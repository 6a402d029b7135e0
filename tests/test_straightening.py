"""Straightening connections: Z field, non-metricity, curvature, projection."""

import functools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from numpy.testing import assert_allclose

from geoflow import gaussian_chain as gc
from geoflow import manifold as mf
from geoflow import numdiff
from geoflow import straightening as st
from geoflow import verify
from geoflow.dually_flat import (
    canonical_divergence,
    gaussian_natural_model,
    metric_field,
)
from geoflow.errors import (
    ClosureShapeError,
    CriticalPointError,
    DegenerateTangentError,
    SingularMatrixError,
    StepUnderflowError,
)
from geoflow.fixtures import (
    distance_squared_potential,
    euclidean_quadratic,
    gaussian_mode,
    hessian_exp,
    sphere_height,
    two_mode_chain,
)

# the gaussian-mode fixture, one relaxation mode with rate 2 (a* = 1):
#   g(a) = 1/(2a^2),  F(a) = 2 (1/a - ln(1/a) - 1),  grad F = 4(a - 1)
# frozen by hand: Z(2a*) = 4a* = 4, cubic at a0=2, t=0 is -8
MODE_RATE = 2.0
MODE_Z_AT_2 = 4.0
MODE_CUBIC_AT_START = -8.0

# the two-mode fixture at a=(3,1) with rates (1,3): the closed form gives
# C(e2,e2,e1) = g22 * g11 * Z^1 = 1/30 while C(e1,e2,e2) = 0
WITNESS_VALUE = 1.0 / 30.0


def contract(c, w, xv, yv):
    """C(W, X, Y) from the tensor C[k, i, j]."""
    return np.einsum("kij,k,i,j->", c, w, xv, yv)


# ---------------------------------------------------------------- Z field


def test_z_euclidean_quadratic():
    g, f = euclidean_quadratic(2)
    assert_allclose(st.z_field(g, f, 0.0, [1.0, 0.0]), [1.0, 0.0], atol=1e-9)
    assert_allclose(st.z_field(g, f, 1.0, [1.0, 0.0]), [0.0, 0.0], atol=1e-9)


def test_z_mode_closed_form():
    # hand value 2 a a* / (a - a*) at a = 2: differentiate grad F = 4(a-1)
    g, f = gaussian_mode()
    assert_allclose(st.z_field(g, f, 0.0, [2.0]), [MODE_Z_AT_2], rtol=1e-8)


def test_z_matches_linear_solve():
    # brute-force oracle on the Jacobian route: solve
    # (|grad f|^2 I) Z = J v + Gamma^g(v, v) - lam v, with J a central
    # difference of grad f; Z itself comes from 1/2 grad |grad f|^2
    sp = gc.spectrum(gc.ChainSpec(2))
    cases = [(*gaussian_mode(), [2.0]),
             (*sphere_height(), [1.1, 0.4]),
             (*hessian_exp(), [0.8]),
             (*gc.mode_plane_manifold(sp, 0), [0.3, 2.5 * sp.a_star[0]])]
    for g, f, x in cases:
        x = np.array(x)
        v = mf.gradient(g, f, x)
        nsq = float(v @ g(x) @ v)
        dx = 1e-6 * np.eye(x.size)
        jac = np.stack([(mf.gradient(g, f, x + e) - mf.gradient(g, f, x - e))
                        / 2e-6 for e in dx], axis=-1)
        acc = jac @ v + np.einsum("kij,i,j->k",
                                  mf.christoffel_levi_civita(g, x), v, v)
        for lam in (0.0, 1.0):
            oracle = np.linalg.solve(nsq * np.eye(x.size), acc - lam * v)
            assert_allclose(st.z_field(g, f, lam, x), oracle, rtol=1e-5,
                            atol=1e-8 * np.abs(oracle).max())


def _chain_points(n=50):
    sp = gc.spectrum(gc.ChainSpec(6))
    g, f = gc.chain_manifold(sp)
    rng = np.random.default_rng(5)
    return g, f, sp.a_star * rng.uniform(1.2, 3.0, (n, sp.n_modes))


def test_z_reads_no_metric_partials():
    # Z = (1/2 grad |grad f|^2 - lam grad f) / |grad f|^2 needs the metric
    # and grad f alone: a partials closure that raises changes no bit
    g, f, x = _chain_points()

    def partials(y):
        raise AssertionError("Z read the metric partials")

    bare = mf.MetricField(g.chart, diagonal=g.diagonal, partials=partials)
    for lam in (0.0, 1.0):
        assert np.array_equal(st.z_field(bare, f, lam, x),
                              st.z_field(g, f, lam, x))
        assert np.array_equal(st.nonmetricity_closed_tensor(bare, f, lam, x),
                              st.nonmetricity_closed_tensor(g, f, lam, x))


def test_pregeodesic_residual_sees_wrong_metric_partials():
    # the residual compares the Jacobian + Christoffel route to
    # nabla_v v with the 1/2 grad |v|^2 behind Z, so partials that do not
    # belong to the metric show, while the true ones read FD error only
    g, f, x = _chain_points()
    scaled = mf.MetricField(g.chart, diagonal=g.diagonal,
                            partials=lambda y: 1.5 * g.partials(y).diagonal(
                                axis1=-2, axis2=-1))
    for lam in (0.0, 1.0):
        assert st.pregeodesic_residual(g, f, lam, x).max() < 1e-8
        assert st.pregeodesic_residual(scaled, f, lam, x).min() > 1e-3


def test_z_raises_at_critical_point():
    g, f = gaussian_mode()
    with pytest.raises(CriticalPointError):
        st.z_field(g, f, 0.0, [1.0])
    with pytest.raises(CriticalPointError):
        st.z_field(*euclidean_quadratic(2), 0.0, [0.0, 0.0])


def _natural_model():
    """The dense 2-D Hessian metric of the Gaussian in natural parameters,
    with the canonical divergence from a reference point as potential."""
    model = gaussian_natural_model()
    q = np.array([0.2, -0.5])
    f = mf.ScalarPotential(
        lambda x: canonical_divergence(model, x, q),
        gradient=lambda x: (model.gradient_covector(x)
                            - model.gradient_covector(q)),
        minimum_q=q, name="natural-divergence")
    return metric_field(model), f, np.array([0.5, -1.2])


def _broken_models():
    """(name, g, f, x, error) with one closure gone wrong at a
    non-critical point x, on a diagonal and on a dense 2-D metric."""
    g_diag, f_diag = two_mode_chain()
    x_diag = np.array([3.0, 1.0])
    g_dense, f_dense, x_dense = _natural_model()
    out = []
    for kind, g, f, x in (("diagonal", g_diag, f_diag, x_diag),
                          ("dense", g_dense, f_dense, x_dense)):
        # the second coordinate's scale squeezed to 1e-7: a condition
        # number above 1e12, the metric still positive definite
        squeeze = np.array([1.0, 1e-7])
        if g.is_diagonal:
            short = mf.MetricField(
                g.chart, diagonal=lambda y, g=g: g.diagonal(y)[..., :1])
            ill = mf.MetricField(
                g.chart, diagonal=lambda y, g=g: g.diagonal(y) * squeeze ** 2)
        else:
            short = mf.MetricField(g.chart, lambda y, g=g: g(y)[..., :1, :])
            ill = mf.MetricField(g.chart, lambda y, g=g:
                                 g(y) * np.outer(squeeze, squeeze))
        bad_grad = mf.ScalarPotential(
            f, gradient=lambda y, f=f: f.gradient_covector(y)[..., :1])
        out += [
            pytest.param(g, f, x, None, id=f"{kind}-sound"),
            pytest.param(short, f, x, ClosureShapeError, id=f"{kind}-metric"),
            pytest.param(g, bad_grad, x, ClosureShapeError,
                         id=f"{kind}-gradient"),
            pytest.param(ill, f, x, SingularMatrixError,
                         id=f"{kind}-ill-conditioned"),
        ]
    return out


@pytest.mark.parametrize("g,f,x,error", _broken_models())
def test_straightening_entry_points_raise_typed_errors(g, f, x, error):
    # each entry point checks the closures' shapes and the metric's
    # condition at a point and on a stack; the sound model passes
    entries = [st.z_field, st.straightening_coeffs, st.pregeodesic_residual,
               st.nonmetricity_closed_tensor]
    for pts in (x, np.stack([x, 1.1 * x])):
        for lam in (0.0, 1.0):
            for entry in entries:
                if error is None:
                    assert np.isfinite(entry(g, f, lam, pts)).all()
                else:
                    with pytest.raises(error):
                        entry(g, f, lam, pts)


# ---------------------------------------------------------------- coefficients


def test_coeffs_euclidean_shape():
    # flat base: Gamma~^k_ij = -delta_ij Z^k
    g, f = euclidean_quadratic(2)
    got = st.straightening_coeffs(g, f, 0.0, [1.0, 0.0])
    want = -np.einsum("ij,k->kij", np.eye(2), np.array([1.0, 0.0]))
    assert_allclose(got, want, atol=1e-9)


def test_connection_is_symmetric_and_typed():
    conn = st.straightening_connection(*gaussian_mode())
    assert isinstance(conn, mf.AffineConnection)
    conn2 = st.straightening_connection(*two_mode_chain(), lam=0.5)
    gam = conn2(np.array([3.0, 1.0]))
    assert_allclose(gam, np.swapaxes(gam, 1, 2), atol=1e-12)


def test_pregeodesic_residual_random_points():
    rng = np.random.default_rng(7)
    cases = [
        (*euclidean_quadratic(2),
         lambda: rng.uniform(-2, 2, 2) + np.array([0.1, 0.1])),
        (*gaussian_mode(),
         lambda: np.array([rng.uniform(1.2, 5.0)])),
        (*sphere_height(),
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
    g, f = euclidean_quadratic(2)
    conn = st.straightening_connection(g, f, 0.0)
    e1 = np.array([1.0, 0.0])
    x = np.array([1.0, 0.0])
    c = st.nonmetricity_tensor(conn, g, x)
    assert_allclose(contract(c, e1, e1, e1), 2.0, atol=1e-9)
    assert_allclose(contract(c, -e1, -e1, -e1), -2.0, atol=1e-9)


def test_nonmetricity_levi_civita_vanishes():
    g, _ = sphere_height()
    lc = mf.levi_civita_connection(g)
    rng = np.random.default_rng(3)
    for _ in range(5):
        x = np.array([rng.uniform(0.3, 2.8), rng.uniform(0, 6)])
        c = st.nonmetricity_tensor(lc, g, x)
        assert np.abs(c).max() < 1e-11


def test_nonmetricity_matches_closed_form():
    rng = np.random.default_rng(11)
    g, f = two_mode_chain()
    conn = st.straightening_connection(g, f, 0.0)
    for _ in range(20):
        x = rng.uniform(0.5, 4.0, 2)
        if abs(x[0] - 2.0) < 0.05 and abs(x[1] - 2.0 / 3.0) < 0.05:
            continue
        w, xv, yv = rng.standard_normal((3, 2))
        lhs = contract(st.nonmetricity_tensor(conn, g, x), w, xv, yv)
        rhs = contract(st.nonmetricity_closed_tensor(g, f, 0.0, x), w, xv, yv)
        assert abs(lhs - rhs) < 1e-8 * max(1.0, abs(rhs))


def test_nonmetricity_not_totally_symmetric():
    g, f = two_mode_chain()
    conn = st.straightening_connection(g, f, 0.0)
    x = np.array([3.0, 1.0])
    e1, e2 = np.eye(2)
    c = st.nonmetricity_tensor(conn, g, x)
    a = contract(c, e1, e2, e2)
    b = contract(c, e2, e2, e1)
    assert abs(a - b) > 1e-3
    assert_allclose(a, 0.0, atol=1e-10)
    assert_allclose(b, WITNESS_VALUE, rtol=1e-7)


# ---------------------------------------------------------------- cubic form


def segment_midpoint(traj, t_near):
    i = int(np.searchsorted(traj.ts, t_near))
    i = min(max(i, 1), len(traj.ts) - 1)
    return 0.5 * (traj.ts[i - 1] + traj.ts[i])


def test_cubic_euclidean_start():
    g, f = euclidean_quadratic(2)
    traj = mf.integrate_flow(g, f, [1.0, 0.0], 1.0)
    assert_allclose(st.nonmetricity_cubic(g, 0.0, traj, 0.0), -2.0,
                    atol=1e-6)


def test_cubic_mode_closed_form():
    # descent cubic equals -2 rate (a*/a) (da/dt / a)^2; -8 at a0 = 2 a*
    g, f = gaussian_mode()
    traj = mf.integrate_flow(g, f, [2.0], 1.0)
    assert_allclose(st.nonmetricity_cubic(g, 0.0, traj, 0.0),
                    MODE_CUBIC_AT_START, rtol=1e-6)
    t = segment_midpoint(traj, 0.3)
    a = traj.position(t)[0]
    adot = traj.velocity(t)[0]
    want = -2.0 * MODE_RATE * (1.0 / a) * (adot / a) ** 2
    assert_allclose(st.nonmetricity_cubic(g, 0.0, traj, t), want, rtol=1e-6)


def test_cubic_vanishes_at_equilibrium():
    g, f = gaussian_mode()
    traj = mf.integrate_flow(g, f, [1.0], 0.5)
    assert abs(st.nonmetricity_cubic(g, 0.0, traj, 0.25)) < 1e-12


def test_identity_chain():
    # f'' + C(xd,xd,xd) + 2 lam f' = 0 along descent curves
    cases = [
        (*euclidean_quadratic(2), np.array([1.3, -0.7])),
        (*gaussian_mode(), np.array([2.0])),
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
                c = st.nonmetricity_cubic(g, lam, traj, t)
                resid = fddot + c + 2.0 * lam * fdot
                assert abs(resid) < 1e-5 * max(1.0, abs(fddot))


def test_lambda_controls_tangential_acceleration():
    # covariant acceleration of the flow under the straightened connection:
    # zero when lam=0 (geodesic), grad f when lam=1
    g, f = euclidean_quadratic(2)
    traj = mf.integrate_flow(g, f, [1.3, -0.7], 1.0)
    for lam in (0.0, 1.0):
        conn = st.straightening_connection(g, f, lam)
        for t_near in (0.3, 0.7):
            t = segment_midpoint(traj, t_near)
            acc = mf.covariant_acceleration(conn, traj, t)
            want = lam * mf.gradient(g, f, traj.position(t))
            assert np.abs(acc - want).max() < 1e-7


def test_lambda_consistency_sees_a_coarse_jacobian_step(monkeypatch):
    # the check measures the finite difference behind Z along a flow.  The
    # bowl's |grad f|^2 is quadratic in the chart, so no step shows there;
    # on hessian-exp, grad f = 1 - e^-theta, and a step of 0.3 reads ~7e-5
    coarse = functools.partial(numdiff.jacobian_fd, scale=0.3)
    monkeypatch.setattr(st, "numdiff", SimpleNamespace(jacobian_fd=coarse))
    assert verify._lambda_defect(*euclidean_quadratic(2), [1.3, -0.7]) < 1e-8
    assert verify._lambda_defect(*hessian_exp(), [0.8]) > 1e-5
    check, = (r for r in verify.run_suites(0, ["straightening"])
              if r.name == "lambda-consistency")
    assert not check.passed and check.measured > 1e-5


# ---------------------------------------------------------------- curvature


def test_scalar_curvature_flat():
    g, _ = euclidean_quadratic(3)
    lc = mf.levi_civita_connection(g)
    assert abs(st.scalar_curvature(lc, np.array([0.3, -1.0, 2.0]))) < 1e-12


def test_mode_plane_curvature_on_the_cli_grid():
    # the curvature command's default grid of a/a*, less its singular
    # equilibrium cell, against the closed form
    sp = gc.spectrum(gc.ChainSpec(2))
    g, f = gc.mode_plane_manifold(sp, 0)
    ratios = np.linspace(0.2, 5.0, 25)
    a = ratios[np.abs(ratios - 1.0) > 1e-3] * sp.a_star[0]
    closed = gc.scalar_curvature_mode(sp, 0, a)
    num = st.scalar_curvature(st.straightening_connection(g, f, 0.0),
                              np.stack([np.zeros_like(a), a], axis=-1))
    assert a.size == 24
    assert (np.abs(num - closed) / np.maximum(1.0, np.abs(closed))
            < 1e-8).all()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(th=hst.floats(0.3, np.pi - 0.3), phi=hst.floats(0.0, 6.0))
def test_scalar_curvature_sphere(th, phi):
    # Ricci here contracts R^i_{jik}; under this sign convention the unit
    # round sphere lands at -2.  The region is the geometry benchmark's,
    # where the step widens with theta toward pi - 0.3
    g, _ = sphere_height()
    lc = mf.levi_civita_connection(g)
    assert abs(st.scalar_curvature(lc, np.array([th, phi])) + 2.0) <= 1e-8


def test_curvature_stencil_on_the_critical_set_is_a_step_underflow():
    # at a = a* / (1 - STEP_COEFFS) the stencil's lower point a - h lands
    # on the equilibrium a*, where the straightening is undefined
    sp = gc.spectrum(gc.ChainSpec(2))
    g, f = gc.mode_plane_manifold(sp, 0)
    a = sp.a_star[0] / (1.0 - numdiff.STEP_COEFFS)
    with pytest.raises(StepUnderflowError, match="relative step"):
        st.scalar_curvature(st.straightening_connection(g, f, 0.0),
                            np.array([0.0, a]))


def test_certificates_evaluate_each_stencil_in_one_call(monkeypatch):
    # deterministic counters: a stencil of the gradient field is one
    # gradient call, and the curvature's stencil of the coefficient field
    # one coefficient call, whatever the dimension
    calls = {}

    def count(module, name, key):
        inner = getattr(module, name)

        def counted(*args, **kwargs):
            calls[key] = calls.get(key, 0) + 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(st, "gradient", "gradient")
    count(st, "_inverse", "inverse")
    count(mf, "_inverse", "inverse")
    sp = gc.spectrum(gc.ChainSpec(2))
    g, f = gc.mode_plane_manifold(sp, 0)
    st.scalar_curvature(st.straightening_connection(g, f, 0.0),
                        np.array([0.0, 0.4 * sp.a_star[0]]))
    assert calls["gradient"] <= 2 and calls["inverse"] <= 5
    sp = gc.spectrum(gc.ChainSpec(12))
    g, f = gc.chain_manifold(sp)
    calls.clear()
    st.pregeodesic_residual(g, f, 1.0, 2.0 * sp.a_star)
    assert calls["gradient"] == 1


# ---------------------------------------------------------------- projection


def test_projection_orthogonal_at_minimizer():
    # f = half squared distance to (2,0); on the unit circle the constrained
    # minimizer is u=0 and grad f is radial there
    g, _ = euclidean_quadratic(2)
    f = distance_squared_potential(g, np.array([2.0, 0.0]))
    circle = st.Submanifold(
        lambda u: np.stack([np.cos(u[..., 0]), np.sin(u[..., 0])], axis=-1))
    assert st.projection_orthogonality(g, f, circle, [0.0]) < 1e-6
    assert st.projection_orthogonality(g, f, circle, [0.5]) >= 0.1


def test_projection_two_mode_slice():
    # freeze a1: the constrained minimizer of F has a2 at equilibrium, and
    # grad F points purely along the frozen direction
    g, f = two_mode_chain()
    sub = st.Submanifold(
        lambda u: np.stack([np.full(u.shape[:-1], 3.0), u[..., 0]], axis=-1))
    assert st.projection_orthogonality(g, f, sub, [2.0 / 3.0]) < 1e-6
    assert st.projection_orthogonality(g, f, sub, [1.5]) >= 0.1


def test_projection_degenerate_jacobian():
    g, f = euclidean_quadratic(2)
    bad = st.Submanifold(
        lambda u: np.stack([u[..., 0] ** 2, np.zeros(u.shape[:-1])], axis=-1))
    with pytest.raises(DegenerateTangentError):
        st.projection_orthogonality(g, f, bad, [0.0])
