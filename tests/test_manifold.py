"""Core geometry: metrics, Christoffels, geodesics, gradient flows."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from geoflow import fixtures
from geoflow import gaussian_chain as gc
from geoflow import manifold as mf
from geoflow import straightening as st
from geoflow.dually_flat import canonical_divergence, exponential_model
from geoflow.errors import (
    ClosureShapeError,
    NonConvergenceError,
    OutOfSpanError,
    SingularMatrixError,
    StepSizeWarning,
)

# frozen by hand: g(a) = 1/(2 a^2) on the half-line has
#   g^{-1}(2) = 8,  Gamma(a) = -1/a
FISHER_INV_AT_2 = 8.0
FISHER_GAMMA_AT_2 = -0.5

# round sphere dtheta^2 + sin^2 theta dphi^2 at theta = pi/4:
#   Gamma^theta_phiphi = -sin cos = -1/2,  Gamma^phi_thetaphi = cot = 1
SPHERE_G_THPHPH = -0.5
SPHERE_G_PHTHPH = 1.0


def halfline_chart():
    return mf.Chart(1, domain_check=lambda x: x[0] > 0.0, name="halfline")


def fisher_1d():
    chart = halfline_chart()
    return mf.MetricField(
        chart,
        lambda x: np.array([[1.0 / (2.0 * x[0] ** 2)]]),
        partials=lambda x: np.array([[[-1.0 / x[0] ** 3]]]),
    )


def sphere_chart():
    return mf.Chart(2, domain_check=lambda x: 0.05 < x[0] < np.pi - 0.05,
                    name="sphere-polar")


# integrate_flow evaluates the field on point stacks, so the models below
# broadcast over leading axes


def sphere_metric(analytic=True):
    chart = sphere_chart()

    def matrix(x):
        m = np.zeros(x.shape[:-1] + (2, 2))
        m[..., 0, 0] = 1.0
        m[..., 1, 1] = np.sin(x[..., 0]) ** 2
        return m

    def partials(x):
        d = np.zeros((2, 2, 2))
        d[0, 1, 1] = 2.0 * np.sin(x[0]) * np.cos(x[0])
        return d

    return mf.MetricField(chart, matrix, partials=partials if analytic else None)


def sphere_height():
    """1 + cos(theta) on the sphere chart."""
    def grad(x):
        d = np.zeros(x.shape)
        d[..., 0] = -np.sin(x[..., 0])
        return d

    return mf.ScalarPotential(lambda x: 1.0 + np.cos(x[..., 0]), gradient=grad)


def euclidean(dim):
    eye = np.eye(dim)
    return mf.MetricField(mf.Chart(dim),
                          lambda x: np.zeros(x.shape[:-1] + eye.shape) + eye,
                          partials=lambda x: np.zeros((dim, dim, dim)))


def quadratic_potential(dim):
    return mf.ScalarPotential(
        lambda x: 0.5 * (x * x).sum(axis=-1),
        gradient=lambda x: np.asarray(x, dtype=float),
        minimum_q=np.zeros(dim),
    )


# ---------------------------------------------------------------- inverse


def test_metric_inverse_fisher():
    g = fisher_1d()
    assert_allclose(mf.metric_inverse(g, np.array([2.0]))[0, 0], FISHER_INV_AT_2,
                    rtol=1e-14)


def test_metric_inverse_rejects_near_singular():
    g = mf.MetricField(mf.Chart(2), lambda x: np.diag([1.0, 1e-13]))
    with pytest.raises(SingularMatrixError):
        mf.metric_inverse(g, np.zeros(2))


def test_metric_inverse_rejects_a_singular_point_in_a_stack():
    def matrix(x):
        m = np.zeros(x.shape[:-1] + (2, 2))
        m[..., 0, 0] = 1.0
        m[..., 1, 1] = x[..., 0]
        return m

    g = mf.MetricField(mf.Chart(2), matrix)
    good = np.array([[1.0, 0.0], [0.5, 3.0], [2.0, -1.0]])
    assert_allclose(mf.metric_inverse(g, good),
                    np.linalg.inv(g(good)), rtol=1e-15)
    for bad in (1e-13, 0.0):
        pts = good.copy()
        pts[1, 0] = bad
        with pytest.raises(SingularMatrixError):
            mf.metric_inverse(g, pts)


def test_positive_definite_check():
    g = mf.MetricField(mf.Chart(2), lambda x: np.diag([1.0, -1.0]))
    with pytest.raises(ValueError):
        g.check_positive_definite([np.zeros(2)])


# ---------------------------------------------------------------- gradient


def test_gradient_raises_index():
    # grad f = g^{ij} d_j f; on the 1-d Fisher chart this is 2 a^2 f'
    g = fisher_1d()
    f = mf.ScalarPotential(lambda x: x[0], gradient=lambda x: np.array([1.0]))
    assert_allclose(mf.gradient(g, f, np.array([2.0])), [8.0], rtol=1e-14)
    assert_allclose(mf.grad_norm_sq(g, f, np.array([2.0])), 8.0, rtol=1e-14)


def test_gradient_fd_fallback_matches_analytic():
    g = euclidean(3)
    f_exact = quadratic_potential(3)
    f_fd = mf.ScalarPotential(lambda x: 0.5 * float(x @ x))
    x = np.array([0.3, -1.2, 0.7])
    assert_allclose(mf.gradient(g, f_fd, x), mf.gradient(g, f_exact, x),
                    atol=1e-9)


# ---------------------------------------------------------------- christoffel


def test_christoffel_fisher_closed_form():
    g = fisher_1d()
    for a in (0.5, 1.0, 2.0, 3.7):
        got = mf.christoffel_levi_civita(g, np.array([a]))[0, 0, 0]
        assert_allclose(got, -1.0 / a, rtol=1e-12)
    assert_allclose(mf.christoffel_levi_civita(g, np.array([2.0]))[0, 0, 0],
                    FISHER_GAMMA_AT_2, rtol=1e-12)


def test_christoffel_sphere_closed_form():
    g = sphere_metric()
    x = np.array([np.pi / 4, 0.3])
    gamma = mf.christoffel_levi_civita(g, x)
    assert_allclose(gamma[0, 1, 1], SPHERE_G_THPHPH, atol=1e-12)
    assert_allclose(gamma[1, 0, 1], SPHERE_G_PHTHPH, atol=1e-12)
    assert_allclose(gamma[1, 1, 0], SPHERE_G_PHTHPH, atol=1e-12)
    # symmetry in the lower pair
    assert_allclose(gamma, np.swapaxes(gamma, 1, 2), atol=1e-15)


def test_christoffel_fd_matches_analytic():
    x = np.array([0.9, 0.4])
    exact = mf.christoffel_levi_civita(sphere_metric(True), x)
    fd = mf.christoffel_levi_civita(sphere_metric(False), x)
    assert_allclose(fd, exact, atol=1e-9)


def test_christoffel_fd_order():
    # quartic convergence: halving the step shrinks the error ~16x
    g = sphere_metric(True)
    x = np.array([0.9, 0.4])
    exact = mf.christoffel_levi_civita(g, x)
    err = [np.abs(mf.christoffel_levi_civita(g, x, step=h) - exact).max()
           for h in (1e-2, 5e-3)]
    assert err[0] / err[1] > 3.5


def test_christoffel_step_warning():
    g = sphere_metric(True)
    with pytest.warns(StepSizeWarning):
        mf.christoffel_levi_civita(g, np.array([0.9, 0.4]), step=1e-14)


# ---------------------------------------------------------------- geodesics


def test_geodesic_euclidean_is_straight():
    conn = mf.levi_civita_connection(euclidean(2))
    traj = mf.integrate_geodesic(conn, [0.0, 0.0], [1.0, 2.0], 1.5)
    assert_allclose(traj.position(1.5), [1.5, 3.0], atol=1e-9)
    assert_allclose(traj.velocity(0.7), [1.0, 2.0], atol=1e-9)


def test_geodesic_sphere_equator():
    # the equator is a great circle: theta stays at pi/2, phi moves at unit rate
    conn = mf.levi_civita_connection(sphere_metric())
    traj = mf.integrate_geodesic(conn, [np.pi / 2, 0.0], [0.0, 1.0], np.pi / 2)
    assert_allclose(traj.position(np.pi / 2), [np.pi / 2, np.pi / 2], atol=1e-8)
    for t in (0.3, 0.9, 1.4):
        acc = mf.covariant_acceleration(conn, traj, t)
        assert np.abs(acc).max() < 1e-6


def test_geodesic_speed_is_constant():
    g = sphere_metric()
    conn = mf.levi_civita_connection(g)
    traj = mf.integrate_geodesic(conn, [1.1, 0.2], [0.3, 0.8], 1.0)
    speeds = [g.norm(traj.position(t), traj.velocity(t))
              for t in np.linspace(0.0, 1.0, 7)]
    assert_allclose(speeds, speeds[0], rtol=1e-8)


def test_geodesic_domain_exit():
    chart = mf.Chart(1, domain_check=lambda x: x[0] < 1.0)
    g = mf.MetricField(chart, lambda x: np.eye(1),
                       partials=lambda x: np.zeros((1, 1, 1)))
    conn = mf.levi_civita_connection(g)
    traj = mf.integrate_geodesic(conn, [0.0], [1.0], 5.0)
    assert traj.exited_domain
    assert traj.xs[-1, 0] < 1.0


def test_geodesic_deterministic():
    conn = mf.levi_civita_connection(sphere_metric())
    a = mf.integrate_geodesic(conn, [1.1, 0.2], [0.3, 0.8], 1.0)
    b = mf.integrate_geodesic(conn, [1.1, 0.2], [0.3, 0.8], 1.0)
    assert np.array_equal(a.ts, b.ts)
    assert np.array_equal(a.xs, b.xs)


def test_trajectory_rejects_out_of_span():
    conn = mf.levi_civita_connection(euclidean(1))
    traj = mf.integrate_geodesic(conn, [0.0], [1.0], 1.0)
    with pytest.raises(OutOfSpanError):
        traj.position(1.5)
    with pytest.raises(OutOfSpanError):
        traj.position(-0.2)


# ---------------------------------------------------------------- flows


def test_flow_euclidean_exponential_decay():
    g = euclidean(2)
    f = quadratic_potential(2)
    traj = mf.integrate_flow(g, f, [1.0, -2.0], 2.0)
    assert_allclose(traj.position(2.0), np.array([1.0, -2.0]) * np.exp(-2.0),
                    atol=1e-9)
    assert_allclose(traj.velocity(1.0), -traj.position(1.0), atol=1e-9)


def test_flow_energy_identity():
    # d/dt f(x(t)) = -|grad f|_g^2 along the flow
    g = sphere_metric()
    f = sphere_height()
    traj = mf.integrate_flow(g, f, [2.0, 0.5], 1.0)
    from geoflow import numdiff
    for t in (0.25, 0.5, 0.75):
        fdot = numdiff.curve_derivative(lambda s: f(traj.position(s)), t,
                                        traj.span)
        assert abs(fdot + mf.grad_norm_sq(g, f, traj.position(t))) < 1e-6


def test_flow_stop_grad_norm():
    g = euclidean(2)
    f = quadratic_potential(2)
    traj = mf.integrate_flow(g, f, [1.0, 1.0], 50.0, stop_grad_norm=1e-4)
    assert traj.converged
    assert traj.ts[-1] < 50.0
    assert np.sqrt(mf.grad_norm_sq(g, f, traj.xs[-1])) < 1e-4


def test_flow_nonconvergence_detected():
    # concave potential: the flow runs away and the gradient norm grows
    g = euclidean(1)
    f = mf.ScalarPotential(lambda x: -0.5 * float(x @ x),
                           gradient=lambda x: -np.asarray(x, dtype=float))
    with pytest.raises(NonConvergenceError):
        mf.integrate_flow(g, f, [1.0], 60.0)


# ---------------------------------------------------------------- point stacks


def _stack_models():
    """(g, f, in-domain points) for every model compare can reach."""
    rng = np.random.default_rng(3)
    sp = gc.spectrum(gc.ChainSpec(6))
    chain_pts = sp.a_star * np.exp(rng.uniform(np.log(0.25), np.log(4.0),
                                               (9, sp.n_modes)))
    plane_pts = np.column_stack([rng.uniform(-1.0, 1.0, 9),
                                 rng.uniform(0.2, 4.0, 9)])
    models = [
        ("euclidean-quadratic", *fixtures.euclidean_quadratic(3),
         rng.uniform(-2.0, 2.0, (9, 3))),
        ("gaussian-mode", *fixtures.gaussian_mode(), rng.uniform(0.2, 5.0, (9, 1))),
        ("two-mode", *fixtures.two_mode_chain(), rng.uniform(0.3, 4.0, (9, 2))),
        ("sphere", *fixtures.sphere_height(),
         np.column_stack([rng.uniform(0.3, 2.8, 9), rng.uniform(0.0, 6.0, 9)])),
        ("hessian-exp", *fixtures.hessian_exp(), rng.uniform(-1.5, 1.5, (9, 1))),
        ("distance-squared", fixtures.euclidean_quadratic(2)[0],
         fixtures.distance_squared_potential(fixtures.euclidean_quadratic(2)[0],
                                             np.array([0.5, -1.0])),
         rng.uniform(-2.0, 2.0, (9, 2))),
        ("chain", *gc.chain_manifold(sp), chain_pts),
        ("mode-plane", *gc.mode_plane_manifold(sp, 2), plane_pts),
    ]
    for name, entry in fixtures.COMPARE_MODELS.items():
        g, f = entry.build()
        dim = g.chart.dim
        pts = (rng.uniform(0.2, 3.0, (9, dim)) if name == "gaussian-mode"
               else rng.uniform(-1.5, 1.5, (9, dim)))
        models.append((f"compare:{name}", g, f, pts))
    return [pytest.param(g, f, pts, id=name) for name, g, f, pts in models]


@pytest.mark.parametrize("g,f,pts", _stack_models())
def test_metric_and_potential_evaluate_point_stacks(g, f, pts):
    assert all(g.chart.contains(x) for x in pts)
    dim = g.chart.dim
    gs, fs = g(pts), f(pts)
    assert gs.shape == (len(pts), dim, dim) and fs.shape == (len(pts),)
    assert_array_equal(gs, np.stack([g(x) for x in pts]))
    assert_array_equal(fs, [f(x) for x in pts])
    assert all(isinstance(f(x), float) for x in pts)


def test_hessian_exp_potential_is_the_divergence():
    _, f = fixtures.hessian_exp()
    model = exponential_model()
    for th in np.linspace(-1.5, 1.5, 7):
        assert_allclose(f(np.array([th])),
                        canonical_divergence(model, [th], np.zeros(1)),
                        rtol=1e-15, atol=1e-17)


def test_non_broadcasting_gradient_raises_typed_error():
    # written for one point: on a stack, x[0] and x[1] are rows, not columns
    pts = np.ones((4, 2))
    g = euclidean(2)
    f = mf.ScalarPotential(lambda x: 0.5 * (x * x).sum(axis=-1),
                           gradient=lambda x: np.array([x[0], x[1]]))
    assert_array_equal(f.gradient_covector(pts[0]), [1.0, 1.0])
    with pytest.raises(ClosureShapeError):
        f.gradient_covector(pts)
    with pytest.raises(ClosureShapeError):
        mf.gradient(g, f, pts)
    with pytest.raises(ClosureShapeError):
        mf.integrate_flow(g, f, pts[0], 1.0)


def test_non_broadcasting_closure_raises_typed_error():
    pts = np.ones((4, 2))
    g = mf.MetricField(mf.Chart(2), lambda x: np.eye(2))
    f = mf.ScalarPotential(lambda x: x[0])
    assert g(pts[0]).shape == (2, 2) and f(pts[0]) == 1.0
    with pytest.raises(ClosureShapeError):
        g(pts)
    with pytest.raises(ClosureShapeError):
        f(pts)


# --------------------------------------------------------- array-t queries


def _trajectories():
    """kind -> (trajectory, g, f) with the model the trajectory lives on."""
    g_sphere, f_sphere = sphere_metric(), sphere_height()
    sphere = mf.levi_civita_connection(g_sphere)
    sp = gc.spectrum(gc.ChainSpec(4))
    return {
        "geodesic": (mf.integrate_geodesic(sphere, [1.1, 0.2], [0.3, 0.8], 1.0),
                     g_sphere, f_sphere),
        "flow": (mf.integrate_flow(g_sphere, f_sphere, [2.0, 0.5], 1.0),
                 g_sphere, f_sphere),
        "zero-step-flow": (mf.integrate_flow(g_sphere, f_sphere, [2.0, 0.5],
                                             0.0), g_sphere, f_sphere),
        "zero-step-geodesic": (mf.integrate_geodesic(sphere, [1.1, 0.2],
                                                     [0.3, 0.8], 0.0),
                               g_sphere, f_sphere),
        "chain": (gc.ChainTrajectory(sp, np.array([0.3, 2.0, 5.0]) * sp.a_star,
                                     100.0), *gc.chain_manifold(sp)),
    }


@pytest.mark.parametrize("kind", list(_trajectories()))
def test_array_queries_match_scalar_queries(kind):
    traj, g, f = _trajectories()[kind]
    t0, t1 = traj.span
    ts = np.concatenate([[t0], np.linspace(t0, t1, 9), [t1]])
    queries = [traj.position, traj.velocity]
    if t1 > t0:     # a zero-step trajectory has no acceleration
        queries.append(traj.acceleration)
    for query in queries:
        stacked = np.stack([query(t) for t in ts])
        got = query(ts)
        assert got.shape == stacked.shape == (ts.size, traj.xs.shape[1])
        assert_allclose(got, stacked, rtol=1e-14, atol=0.0)
    # the evaluators along the curve: a point stack, and an array of t
    xs = traj.position(ts)
    for at in (lambda x: mf.metric_inverse(g, x),
               lambda x: mf.gradient(g, f, x)):
        assert_allclose(at(xs), np.stack([at(x) for x in xs]),
                        rtol=1e-14, atol=0.0)
    if t1 > t0:
        for lam in (0.0, 1.0):
            got = st.nonmetricity_cubic(g, f, lam, traj, ts)
            assert got.shape == ts.shape
            assert_allclose(got, [st.nonmetricity_cubic(g, f, lam, traj, t)
                                  for t in ts], rtol=1e-14, atol=0.0)
    for bad in ([t0, t1 + 1e-3], [t0 - 1e-3, t1]):
        for query in queries:
            with pytest.raises(OutOfSpanError):
                query(np.array(bad))
