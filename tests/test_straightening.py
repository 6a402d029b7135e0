"""Straightening connections: Z field, non-metricity, curvature, projection."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from geoflow import manifold as mf
from geoflow import straightening as st
from geoflow.errors import CriticalPointError, DegenerateTangentError

# single relaxation mode with rate 2 (equilibrium a* = 1):
#   g(a) = 1/(2a^2),  F(a) = 2 (1/a - ln(1/a) - 1),  grad F = 4(a - 1)
# frozen by hand: Z(2a*) = 4a* = 4, cubic at a0=2, t=0 is -8
MODE_RATE = 2.0
MODE_Z_AT_2 = 4.0
MODE_CUBIC_AT_START = -8.0

# two-mode chart at a=(3,1) with rates (1,3): the closed form gives
# C(e2,e2,e1) = g22 * g11 * Z^1 = 1/30 while C(e1,e2,e2) = 0
WITNESS_VALUE = 1.0 / 30.0


# flows and the cubic evaluate these models on point stacks, so they
# broadcast over leading axes


def euclidean(dim):
    eye = np.eye(dim)
    return mf.MetricField(mf.Chart(dim),
                          lambda x: np.zeros(x.shape[:-1] + eye.shape) + eye,
                          partials=lambda x: np.zeros((dim, dim, dim)))


def quadratic(dim):
    return mf.ScalarPotential(lambda x: 0.5 * (x * x).sum(axis=-1),
                              gradient=lambda x: np.asarray(x, dtype=float),
                              minimum_q=np.zeros(dim))


def mode_metric():
    chart = mf.Chart(1, domain_check=lambda x: x[0] > 0.0)
    return mf.MetricField(
        chart,
        lambda x: (1.0 / (2.0 * x ** 2))[..., None],
        partials=lambda x: np.array([[[-1.0 / x[0] ** 3]]]),
    )


def mode_potential(rate=MODE_RATE, astar=1.0):
    def value(x):
        r = astar / x[..., 0]
        return rate * (r - np.log(r) - 1.0)

    def grad(x):
        return rate * (x - astar) / x ** 2

    return mf.ScalarPotential(value, gradient=grad, minimum_q=np.array([astar]))


def two_mode_metric():
    chart = mf.Chart(2, domain_check=lambda x: x[0] > 0.0 and x[1] > 0.0)

    def matrix(x):
        return np.diag([1.0 / (2.0 * x[0] ** 2), 1.0 / (2.0 * x[1] ** 2)])

    def partials(x):
        d = np.zeros((2, 2, 2))
        d[0, 0, 0] = -1.0 / x[0] ** 3
        d[1, 1, 1] = -1.0 / x[1] ** 3
        return d

    return mf.MetricField(chart, matrix, partials=partials)


def two_mode_potential(rates=(1.0, 3.0)):
    astar = [2.0 / r for r in rates]

    def value(x):
        out = 0.0
        for k in (0, 1):
            r = astar[k] / x[k]
            out += rates[k] * (r - np.log(r) - 1.0)
        return out

    def grad(x):
        return np.array([rates[k] * (x[k] - astar[k]) / x[k] ** 2
                         for k in (0, 1)])

    return mf.ScalarPotential(value, gradient=grad,
                              minimum_q=np.array(astar))


def sphere_metric():
    chart = mf.Chart(2, domain_check=lambda x: 0.05 < x[0] < np.pi - 0.05)

    def partials(x):
        d = np.zeros((2, 2, 2))
        d[0, 1, 1] = 2.0 * np.sin(x[0]) * np.cos(x[0])
        return d

    return mf.MetricField(chart, lambda x: np.diag([1.0, np.sin(x[0]) ** 2]),
                          partials=partials)


def sphere_height():
    return mf.ScalarPotential(lambda x: 1.0 + np.cos(x[0]),
                              gradient=lambda x: np.array([-np.sin(x[0]), 0.0]))


# ---------------------------------------------------------------- Z field


def test_z_euclidean_quadratic():
    g, f = euclidean(2), quadratic(2)
    assert_allclose(st.z_field(g, f, 0.0, [1.0, 0.0]), [1.0, 0.0], atol=1e-9)
    assert_allclose(st.z_field(g, f, 1.0, [1.0, 0.0]), [0.0, 0.0], atol=1e-9)


def test_z_mode_closed_form():
    # hand value 2 a a* / (a - a*) at a = 2: differentiate grad F = 4(a-1)
    g, f = mode_metric(), mode_potential()
    assert_allclose(st.z_field(g, f, 0.0, [2.0]), [MODE_Z_AT_2], rtol=1e-8)


def test_z_matches_linear_solve():
    # brute-force oracle: solve (|grad f|^2 I) Z = nabla_grad grad - lam grad
    g, f = mode_metric(), mode_potential()
    x = np.array([2.0])
    v = mf.gradient(g, f, x)
    nsq = float(v @ g(x) @ v)
    jac = np.array([[(mf.gradient(g, f, x + 1e-6)[0]
                      - mf.gradient(g, f, x - 1e-6)[0]) / 2e-6]])
    h = jac @ v + np.einsum("kij,i,j->k", mf.christoffel_levi_civita(g, x), v, v)
    oracle = np.linalg.solve(nsq * np.eye(1), h)
    assert_allclose(st.z_field(g, f, 0.0, x), oracle, rtol=1e-5)


def test_z_raises_at_critical_point():
    g, f = mode_metric(), mode_potential()
    with pytest.raises(CriticalPointError):
        st.z_field(g, f, 0.0, [1.0])
    with pytest.raises(CriticalPointError):
        st.z_field(euclidean(2), quadratic(2), 0.0, [0.0, 0.0])


# ---------------------------------------------------------------- coefficients


def test_coeffs_euclidean_shape():
    # flat base: Gamma~^k_ij = -delta_ij Z^k
    g, f = euclidean(2), quadratic(2)
    got = st.straightening_coeffs(g, f, 0.0, [1.0, 0.0])
    want = -np.einsum("ij,k->kij", np.eye(2), np.array([1.0, 0.0]))
    assert_allclose(got, want, atol=1e-9)


def test_connection_is_symmetric_and_typed():
    conn = st.straightening_connection(mode_metric(), mode_potential())
    assert isinstance(conn, mf.AffineConnection)
    assert conn.symmetric and conn.lam == 0.0
    g2 = two_mode_metric()
    conn2 = st.straightening_connection(g2, two_mode_potential(), lam=0.5)
    gam = conn2(np.array([3.0, 1.0]))
    assert_allclose(gam, np.swapaxes(gam, 1, 2), atol=1e-12)


def test_pregeodesic_residual_random_points():
    rng = np.random.default_rng(7)
    cases = [
        (euclidean(2), quadratic(2),
         lambda: rng.uniform(-2, 2, 2) + np.array([0.1, 0.1])),
        (mode_metric(), mode_potential(),
         lambda: np.array([rng.uniform(1.2, 5.0)])),
        (sphere_metric(), sphere_height(),
         lambda: np.array([rng.uniform(0.3, np.pi - 0.3), rng.uniform(0, 6)])),
    ]
    for g, f, draw in cases:
        for lam in (0.0, 1.0):
            for _ in range(100):
                x = draw()
                try:
                    r = st.pregeodesic_residual(g, f, lam, x)
                except CriticalPointError:
                    continue
                assert r < 1e-8


# ---------------------------------------------------------------- non-metricity


def test_nonmetricity_euclidean_values():
    g, f = euclidean(2), quadratic(2)
    conn = st.straightening_connection(g, f, 0.0)
    e1 = np.array([1.0, 0.0])
    x = np.array([1.0, 0.0])
    assert_allclose(st.nonmetricity(conn, g, x, e1, e1, e1), 2.0, atol=1e-9)
    assert_allclose(st.nonmetricity(conn, g, x, -e1, -e1, -e1), -2.0, atol=1e-9)


def test_nonmetricity_levi_civita_vanishes():
    g = sphere_metric()
    lc = mf.levi_civita_connection(g)
    rng = np.random.default_rng(3)
    for _ in range(5):
        x = np.array([rng.uniform(0.3, 2.8), rng.uniform(0, 6)])
        c = st.nonmetricity_tensor(lc, g, x)
        assert np.abs(c).max() < 1e-11


def test_nonmetricity_matches_closed_form():
    rng = np.random.default_rng(11)
    g, f = two_mode_metric(), two_mode_potential()
    conn = st.straightening_connection(g, f, 0.0)
    for _ in range(20):
        x = rng.uniform(0.5, 4.0, 2)
        if abs(x[0] - 2.0) < 0.05 and abs(x[1] - 2.0 / 3.0) < 0.05:
            continue
        w, xv, yv = rng.standard_normal((3, 2))
        lhs = st.nonmetricity(conn, g, x, w, xv, yv)
        rhs = st.nonmetricity_closed_form(g, f, 0.0, x, w, xv, yv)
        assert abs(lhs - rhs) < 1e-8 * max(1.0, abs(rhs))


def test_nonmetricity_not_totally_symmetric():
    g, f = two_mode_metric(), two_mode_potential()
    conn = st.straightening_connection(g, f, 0.0)
    x = np.array([3.0, 1.0])
    e1, e2 = np.eye(2)
    a = st.nonmetricity(conn, g, x, e1, e2, e2)
    b = st.nonmetricity(conn, g, x, e2, e2, e1)
    assert abs(a - b) > 1e-3
    assert_allclose(a, 0.0, atol=1e-10)
    assert_allclose(b, WITNESS_VALUE, rtol=1e-7)


# ---------------------------------------------------------------- cubic form


def segment_midpoint(traj, t_near):
    i = int(np.searchsorted(traj.ts, t_near))
    i = min(max(i, 1), len(traj.ts) - 1)
    return 0.5 * (traj.ts[i - 1] + traj.ts[i])


def test_cubic_euclidean_start():
    g, f = euclidean(2), quadratic(2)
    traj = mf.integrate_flow(g, f, [1.0, 0.0], 1.0)
    assert_allclose(st.nonmetricity_cubic(g, f, 0.0, traj, 0.0), -2.0,
                    atol=1e-6)


def test_cubic_mode_closed_form():
    # descent cubic equals -2 rate (a*/a) (da/dt / a)^2; -8 at a0 = 2 a*
    g, f = mode_metric(), mode_potential()
    traj = mf.integrate_flow(g, f, [2.0], 1.0)
    assert_allclose(st.nonmetricity_cubic(g, f, 0.0, traj, 0.0),
                    MODE_CUBIC_AT_START, rtol=1e-6)
    t = segment_midpoint(traj, 0.3)
    a = traj.position(t)[0]
    adot = traj.velocity(t)[0]
    want = -2.0 * MODE_RATE * (1.0 / a) * (adot / a) ** 2
    assert_allclose(st.nonmetricity_cubic(g, f, 0.0, traj, t), want, rtol=1e-6)


def test_cubic_vanishes_at_equilibrium():
    g, f = mode_metric(), mode_potential()
    traj = mf.integrate_flow(g, f, [1.0], 0.5)
    assert abs(st.nonmetricity_cubic(g, f, 0.0, traj, 0.25)) < 1e-12


def test_identity_chain():
    # f'' + C(xd,xd,xd) + 2 lam f' = 0 along descent curves
    from geoflow import numdiff
    cases = [
        (euclidean(2), quadratic(2), np.array([1.3, -0.7])),
        (mode_metric(), mode_potential(), np.array([2.0])),
    ]
    for g, f, x0 in cases:
        for lam in (0.0, 1.0):
            traj = mf.integrate_flow(g, f, x0, 1.0)
            for t_near in (0.2, 0.5, 0.8):
                t = segment_midpoint(traj, t_near)
                fdot = numdiff.curve_derivative(
                    lambda s: f(traj.position(s)), t, traj.span)
                fddot = numdiff.curve_derivative(
                    lambda s: f(traj.position(s)), t, traj.span, order=2)
                c = st.nonmetricity_cubic(g, f, lam, traj, t)
                resid = fddot + c + 2.0 * lam * fdot
                assert abs(resid) < 1e-5 * max(1.0, abs(fddot))


def test_lambda_controls_tangential_acceleration():
    # covariant acceleration of the flow under the straightened connection:
    # zero when lam=0 (geodesic), grad f when lam=1
    g, f = euclidean(2), quadratic(2)
    traj = mf.integrate_flow(g, f, [1.3, -0.7], 1.0)
    for lam in (0.0, 1.0):
        conn = st.straightening_connection(g, f, lam)
        for t_near in (0.3, 0.7):
            t = segment_midpoint(traj, t_near)
            acc = mf.covariant_acceleration(conn, traj, t)
            want = lam * mf.gradient(g, f, traj.position(t))
            assert np.abs(acc - want).max() < 1e-7


# ---------------------------------------------------------------- curvature


def test_scalar_curvature_flat():
    g = euclidean(3)
    lc = mf.levi_civita_connection(g)
    assert abs(st.scalar_curvature(lc, np.array([0.3, -1.0, 2.0]))) < 1e-12


def test_scalar_curvature_sphere():
    # Ricci here contracts R^i_{jik}; under this sign convention the unit
    # round sphere lands at -2
    g = sphere_metric()
    lc = mf.levi_civita_connection(g)
    for th in (0.7, 1.2, 2.0):
        s = st.scalar_curvature(lc, np.array([th, 0.5]))
        assert_allclose(s, -2.0, atol=1e-7)


# ---------------------------------------------------------------- projection


def test_projection_orthogonal_at_minimizer():
    # f = half squared distance to (2,0); on the unit circle the constrained
    # minimizer is u=0 and grad f is radial there
    g = euclidean(2)
    f = mf.ScalarPotential(
        lambda x: 0.5 * float((x[0] - 2.0) ** 2 + x[1] ** 2),
        gradient=lambda x: np.array([x[0] - 2.0, x[1]]))
    circle = st.Submanifold(lambda u: np.array([np.cos(u[0]), np.sin(u[0])]),
                            dim_param=1)
    assert st.projection_orthogonality(g, f, circle, [0.0]) < 1e-6
    assert st.projection_orthogonality(g, f, circle, [0.5]) >= 0.1


def test_projection_two_mode_slice():
    # freeze a1: the constrained minimizer of F has a2 at equilibrium, and
    # grad F points purely along the frozen direction
    g, f = two_mode_metric(), two_mode_potential()
    sub = st.Submanifold(lambda u: np.array([3.0, u[0]]), dim_param=1)
    assert st.projection_orthogonality(g, f, sub, [2.0 / 3.0]) < 1e-6
    assert st.projection_orthogonality(g, f, sub, [1.5]) >= 0.1


def test_projection_degenerate_jacobian():
    g, f = euclidean(2), quadratic(2)
    bad = st.Submanifold(lambda u: np.array([u[0] ** 2, 0.0]), dim_param=1)
    with pytest.raises(DegenerateTangentError):
        st.projection_orthogonality(g, f, bad, [0.0])
