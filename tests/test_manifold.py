"""Core geometry: metrics, Christoffels, geodesics, gradient flows."""

import math
import re
import subprocess
import sys

import numpy as np
import pytest
import scipy.integrate
from hypothesis import example, given, settings
from hypothesis import strategies as hst
from numpy.testing import (
    assert_allclose,
    assert_array_equal,
    assert_array_max_ulp,
)
from scipy.integrate import OdeSolution
from scipy.integrate._ivp.rk import RkDenseOutput

from geoflow import cli
from geoflow import comparison as cp
from geoflow import fixtures
from geoflow import gaussian_chain as gc
from geoflow import manifold as mf
from geoflow import numdiff
from geoflow import straightening as st
from geoflow.dually_flat import (
    HessianModel,
    canonical_divergence,
    exponential_model,
)
from geoflow.errors import (
    ClosureShapeError,
    NonConvergenceError,
    OutOfSpanError,
    SingularMatrixError,
)

# frozen by hand: the Fisher metric g(a) = 1/(2 a^2) of the gaussian-mode
# fixture has g^{-1}(2) = 8,  Gamma(a) = -1/a
FISHER_INV_AT_2 = 8.0
FISHER_GAMMA_AT_2 = -0.5

# round sphere dtheta^2 + sin^2 theta dphi^2 at theta = pi/4:
#   Gamma^theta_phiphi = -sin cos = -1/2,  Gamma^phi_thetaphi = cot = 1
SPHERE_G_THPHPH = -0.5
SPHERE_G_PHTHPH = 1.0


# integrate_flow evaluates the field on point stacks, so every model
# below broadcasts over leading axes


def fisher_1d():
    return fixtures.gaussian_mode()[0]


def sphere_metric(analytic=True):
    g = fixtures.sphere_height()[0]
    return g if analytic else mf.MetricField(g.chart, g)


def euclidean(dim):
    return fixtures.euclidean_quadratic(dim)[0]


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


def _spd_stack(rng, dim, size=40, max_cond=1e8):
    """Random SPD matrices, log-uniform in condition number, and their
    condition numbers."""
    q, _ = np.linalg.qr(rng.standard_normal((size, dim, dim)))
    log_cond = rng.uniform(0.0, np.log(max_cond), (size, 1))
    eig = (np.exp(np.linspace(0.0, 1.0, dim) * log_cond)
           * rng.uniform(0.1, 10.0, (size, 1)))
    m = (q * eig[:, None, :]) @ np.swapaxes(q, -1, -2)
    return 0.5 * (m + np.swapaxes(m, -1, -2)), eig[:, -1] / eig[:, 0]


def _constant_metric(m):
    def matrix(x):
        return np.broadcast_to(m, x.shape[:-1] + m.shape[-2:])

    return mf.MetricField(mf.Chart(m.shape[-1]), matrix)


@pytest.mark.parametrize("dim", range(1, 12))
def test_metric_inverse_matches_lapack_inverse(dim):
    # each inverse carries a forward error of order cond * eps, so the two
    # are held together relative to the condition number
    m, cond = _spd_stack(np.random.default_rng([7, dim]), dim)
    got = mf.metric_inverse(_constant_metric(m), np.zeros((len(m), dim)))
    want = np.linalg.inv(m)
    err = (np.abs(got - want).max(axis=(-2, -1))
           / np.abs(want).max(axis=(-2, -1)))
    assert np.all(err <= 1e-14 * cond)
    small = cond <= 1e2
    assert np.all(err[small] <= 1e-12)


def test_metric_inverse_rejects_ill_conditioned_zero_and_nan():
    q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((3, 3)))
    ill = (q * np.array([1.0, 1e-6, 1e-13])) @ q.T
    nan = np.eye(3)
    nan[1, 2] = np.nan
    for m in (ill, np.zeros((3, 3)), nan):
        g = _constant_metric(m)
        with pytest.raises(SingularMatrixError):
            mf.metric_inverse(g, np.zeros(3))
        with pytest.raises(SingularMatrixError):
            mf.metric_inverse(g, np.zeros((4, 3)))


# --------------------------------------------------------- diagonal metrics


def _diagonal_models():
    """(g, f, seeded points) for every package model with a diagonal metric."""
    rng = np.random.default_rng(11)
    models = [("euclidean-quadratic", *fixtures.euclidean_quadratic(3),
               rng.uniform(-2.0, 2.0, (7, 3)))]
    for n_beads in (3, 12):
        sp = gc.spectrum(gc.ChainSpec(n_beads))
        models.append((f"chain-{n_beads}", *gc.chain_manifold(sp),
                       sp.a_star * np.exp(rng.uniform(
                           np.log(0.25), np.log(4.0), (7, sp.n_modes)))))
    sp = gc.spectrum(gc.ChainSpec(6))
    models += [
        ("mode-plane", *gc.mode_plane_manifold(sp, 2),
         np.column_stack([rng.uniform(-1.0, 1.0, 7),
                          rng.uniform(0.2, 4.0, 7)])),
        ("sphere", *fixtures.sphere_height(),
         np.column_stack([rng.uniform(0.3, 2.8, 7),
                          rng.uniform(0.0, 6.0, 7)])),
    ]
    return [pytest.param(g, f, pts, id=name) for name, g, f, pts in models]


@pytest.mark.parametrize("g,f,pts", _diagonal_models())
def test_diagonal_route_matches_the_dense_route(g, f, pts):
    # the same metric through its dense matrix, with the same partials, so
    # only the inverse and the contractions take the other route; the
    # *_fd pair has no partials closure
    dense = mf.MetricField(g.chart, g, partials=g.partials)
    g_fd = mf.MetricField(g.chart, diagonal=g.diagonal)
    dense_fd = mf.MetricField(g.chart, g)
    assert g.is_diagonal and not dense.is_diagonal
    u, v = np.random.default_rng(5).standard_normal((2,) + pts.shape)
    for x, a, b in ((pts[0], u[0], v[0]), (pts, u, v)):
        pairs = [
            (g(x), dense(x)),
            (mf.metric_inverse(g, x), mf.metric_inverse(dense, x)),
            (mf.gradient(g, f, x), mf.gradient(dense, f, x)),
            (g.inner(x, a, b), dense.inner(x, a, b)),
            (g.lower(x, a), dense.lower(x, a)),
            (mf.christoffel_levi_civita(g, x),
             mf.christoffel_levi_civita(dense, x)),
            # partials by finite differences of the diagonal and the matrix
            (mf.christoffel_levi_civita(g_fd, x),
             mf.christoffel_levi_civita(dense_fd, x)),
        ]
        for got, want in pairs:
            assert np.shape(got) == np.shape(want)
            assert_array_max_ulp(got, want, maxulp=1)
        # the cubic sums the same terms d_l g_ii v^l v^i v^i in another
        # order: it agrees to roundoff in the sum of their magnitudes
        got, want = g.cubic_form(x, a), dense.cubic_form(x, a)
        size = np.einsum("...kij,...k,...i,...j->...",
                         np.abs(dense.partials(x)), *[np.abs(a)] * 3)
        assert np.shape(got) == np.shape(want)
        assert (np.abs(got - want) <= 1e-14 * size).all()
    assert isinstance(g.inner(pts[0], u[0], v[0]), float)


def test_cubic_form_takes_lists():
    # v as a list, as inner and lower take it: a point and a stack, on a
    # diagonal metric and on the same metric through its dense matrix
    g, _ = fixtures.two_mode_chain()
    dense = mf.MetricField(g.chart, g, partials=g.partials)
    pts = np.array([[1.0, 2.0], [0.5, 3.0]])
    vs = np.array([[0.3, -1.2], [2.0, 0.7]])
    for metric in (g, dense):
        for x, v in ((pts[0], vs[0]), (pts, vs)):
            want = metric.cubic_form(x, v)
            got = metric.cubic_form(x.tolist(), v.tolist())
            assert np.shape(got) == np.shape(want)
            assert_array_equal(got, want)
            assert_array_equal(metric.inner(x.tolist(), v.tolist(),
                                            v.tolist()),
                               metric.inner(x, v, v))


def _constant_diagonal(d):
    """A metric with the constant diagonals ``d`` on a stack of len(d)."""
    d = np.asarray(d, dtype=float)
    return mf.MetricField(
        mf.Chart(d.shape[-1]),
        diagonal=lambda x: np.broadcast_to(d, x.shape),
        partials=lambda x: np.zeros(x.shape + (d.shape[-1],)))


def test_diagonal_metric_rejects_ill_conditioned_zero_and_nan():
    pts = np.arange(12.0).reshape(4, 3)
    f = fixtures.distance_squared_potential(euclidean(3), np.zeros(3))
    for bad in ([1.0, 1e-13, 1.0], [1.0, 0.0, 1.0], [1.0, np.nan, 1.0]):
        d = np.tile([1.0, 2.0, 3.0], (4, 1))
        d[2] = bad
        g = _constant_diagonal(d)
        for evaluate in (lambda x: mf.metric_inverse(g, x),
                         lambda x: mf.gradient(g, f, x),
                         lambda x: mf.christoffel_levi_civita(g, x)):
            with pytest.raises(SingularMatrixError,
                               match=re.escape(f"metric at {pts[2]}")):
                evaluate(pts)
    # the rule is the dense one: cond 1e12 passes
    ok = _constant_diagonal(np.tile([1.0, 1e-12, 1.0], (4, 1)))
    assert_array_equal(mf.metric_inverse(ok, pts)[:, 1, 1], 1e12)


def _per_point_condition(sv, x):
    """The condition rule checked point by point, as a reference: the
    error message for the first point with max|s| > 1e12 min|s| or
    min|s| not positive, or None."""
    a = np.abs(sv)
    s_max, s_min = a.max(axis=-1), a.min(axis=-1)
    ok = (s_max <= 1e12 * s_min) & (s_min > 0.0)
    if ok.all():
        return None
    i = np.unravel_index(np.argmin(ok), ok.shape)
    cond = s_max[i] / s_min[i] if s_min[i] > 0.0 else np.inf
    return f"metric at {x[i]} has condition number {cond:.3e}"


#: a value's ratio to the largest of its point; 1e12 is the limit itself
_COND_RATIOS = (1.0, 3.0, 1e11, np.nextafter(1e12, 0.0), 1e12,
                np.nextafter(1e12, np.inf), 1e13)


@hst.composite
def _condition_stacks(draw, finite):
    """g_ii values of shape (dim,), (n, dim) or (0, dim): positive values
    at one scale, their ratios either side of 1e12, and in half of the
    draws negatives, 0, -0.0, the smallest subnormal and (unless
    ``finite``) nan and +-inf."""
    dim = draw(hst.integers(1, 4))
    shape = draw(hst.sampled_from(
        [(dim,), (draw(hst.integers(1, 5)), dim), (0, dim)]))
    scale = draw(hst.floats(1e-100, 1e100))
    entry = hst.builds(lambda r: scale / r, hst.sampled_from(_COND_RATIOS))
    if draw(hst.booleans()):
        special = (0.0, -0.0, 5e-324)
        if not finite:
            special += (math.nan, math.inf, -math.inf)
        entry = entry | entry.map(lambda v: -v) | hst.sampled_from(special)
    values = draw(hst.lists(entry, min_size=math.prod(shape),
                            max_size=math.prod(shape)))
    return np.array(values).reshape(shape)


def _singular_message(evaluate):
    """The SingularMatrixError message evaluate() raises, or None."""
    try:
        with np.errstate(over="ignore"):
            evaluate()
    except SingularMatrixError as exc:
        return str(exc)
    return None


@settings(max_examples=300, deadline=None, derandomize=True)
@given(d=_condition_stacks(finite=False))
def test_whole_stack_condition_test_rejects_as_the_per_point_rule_diagonal(d):
    # the diagonal route checks the g_ii themselves
    x = np.arange(d.size, dtype=float).reshape(d.shape)
    g = mf.MetricField(mf.Chart(d.shape[-1]), diagonal=lambda _: d)
    with np.errstate(over="ignore"):
        want = _per_point_condition(d, x)
    assert _singular_message(lambda: mf.metric_inverse(g, x)) == want


@settings(max_examples=300, deadline=None, derandomize=True)
@given(d=_condition_stacks(finite=True))
# condition 1 at subnormal singular values, whose reciprocals overflow
@example(d=np.array([5e-324, 5e-324]))
def test_whole_stack_condition_test_rejects_as_the_per_point_rule_svd(d):
    # the SVD route checks the singular values of the same matrices;
    # LAPACK refuses nan and inf before any condition check
    x = np.arange(d.size, dtype=float).reshape(d.shape)
    m = d[..., None] * np.eye(d.shape[-1])
    g = mf.MetricField(mf.Chart(d.shape[-1]), lambda _: m)
    with np.errstate(over="ignore"):
        want = _per_point_condition(np.linalg.svd(m)[1], x)
    assert _singular_message(lambda: mf.metric_inverse(g, x)) == want


def test_diagonal_closure_shape_and_metric_form_are_checked():
    pts = np.ones((4, 2))
    square = mf.MetricField(mf.Chart(2),
                            diagonal=lambda x: x[..., None] * np.eye(2))
    single = mf.MetricField(mf.Chart(2), diagonal=lambda x: np.ones(2))
    assert_array_equal(single(pts[0]), np.eye(2))
    f = fixtures.distance_squared_potential(euclidean(2), np.zeros(2))
    for g in (square, single):
        for evaluate in (g, lambda x: mf.metric_inverse(g, x),
                         lambda x: mf.gradient(g, f, x),
                         lambda x: g.inner(x, x, x), lambda x: g.lower(x, x)):
            with pytest.raises(ClosureShapeError):
                evaluate(pts)
    with pytest.raises(ValueError):
        mf.MetricField(mf.Chart(2))
    with pytest.raises(ValueError, match="dimension"):
        mf.Chart(0)
    with pytest.raises(ValueError):
        mf.MetricField(mf.Chart(2), euclidean(2),
                       diagonal=lambda x: np.ones(x.shape))
    with pytest.raises(TypeError):
        mf.MetricField(mf.Chart(2), euclidean(2)).diagonal(pts)
    # a diagonal metric's partials are d_l g_ii, (..., dim, dim); the
    # dense (..., dim, dim, dim) form is refused
    dense_form = mf.MetricField(mf.Chart(2), diagonal=np.ones_like,
                                partials=lambda x: np.zeros(x.shape + (2, 2)))
    for x in (pts[0], pts):
        for evaluate in (dense_form.partials,
                         lambda x: dense_form.cubic_form(x, x)):
            with pytest.raises(ClosureShapeError):
                evaluate(x)


# ---------------------------------------------------------------- gradient


def test_gradient_raises_index():
    # grad f = g^{ij} d_j f; on the 1-d Fisher chart this is 2 a^2 f'
    g = fisher_1d()
    f = mf.ScalarPotential(lambda x: x[..., 0], gradient=np.ones_like)
    assert_allclose(mf.gradient(g, f, np.array([2.0])), [8.0], rtol=1e-14)
    assert_allclose(mf.grad_norm_sq(g, f, np.array([2.0])), 8.0, rtol=1e-14)


def test_gradient_fd_fallback_matches_analytic():
    g, f_exact = fixtures.euclidean_quadratic(3)
    f_fd = mf.ScalarPotential(lambda x: 0.5 * (x * x).sum(axis=-1))
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
    # the coefficients are linear in the metric partials, whose stencil
    # converges at 4th order: halving the step shrinks the error ~16x.  In
    # the unit box the scaled step is the scale itself
    g = sphere_metric(True)
    x = np.array([0.9, 0.4])
    exact = np.moveaxis(g.partials(x), 0, -1)
    err = [np.abs(numdiff.jacobian_fd(g, x, scale=h) - exact).max()
           for h in (1e-2, 5e-3)]
    assert err[0] / err[1] > 3.5


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
    g = mf.MetricField(chart, lambda x: np.ones(x.shape[:-1] + (1, 1)),
                       partials=lambda x: np.zeros(x.shape[:-1] + (1, 1, 1)))
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


@pytest.mark.parametrize("kind", ["geodesic", "chain"])
def test_scalar_times_give_one_point_queries(kind):
    # a Python float and a 0-d array both query one point, and both are
    # held to the span
    traj = _trajectories()[kind][0]
    dim = traj.xs.shape[1]
    t0, t1 = traj.span
    for wrap in (float, np.asarray):
        for query in (traj.position, traj.velocity, traj.acceleration):
            assert query(wrap(0.5 * (t0 + t1))).shape == (dim,)
            assert_array_equal(query(wrap(t1)), query(np.array([t1]))[0])
            with pytest.raises(OutOfSpanError):
                query(wrap(t1 + 1e-3))


def test_trajectory_rejects_out_of_span():
    conn = mf.levi_civita_connection(euclidean(1))
    traj = mf.integrate_geodesic(conn, [0.0], [1.0], 1.0)
    with pytest.raises(OutOfSpanError):
        traj.position(1.5)
    with pytest.raises(OutOfSpanError):
        traj.position(-0.2)


# ---------------------------------------------------------------- flows


def test_flow_euclidean_exponential_decay():
    g, f = fixtures.euclidean_quadratic(2)
    traj = mf.integrate_flow(g, f, [1.0, -2.0], 2.0)
    assert_allclose(traj.position(2.0), np.array([1.0, -2.0]) * np.exp(-2.0),
                    atol=1e-9)
    assert_allclose(traj.velocity(1.0), -traj.position(1.0), atol=1e-9)


def test_flow_energy_identity():
    # d/dt f(x(t)) = -|grad f|_g^2 along the flow
    g, f = fixtures.sphere_height()
    traj = mf.integrate_flow(g, f, [2.0, 0.5], 1.0)
    from geoflow import numdiff
    for t in (0.25, 0.5, 0.75):
        fdot = numdiff.curve_derivative(lambda s: f(traj.position(s)), t,
                                        traj.span)
        assert abs(fdot + mf.grad_norm_sq(g, f, traj.position(t))) < 1e-6
    with pytest.raises(ValueError, match="degenerate span"):
        numdiff.curve_derivative(lambda s: s, 0.5, (0.5, 0.5))


@pytest.mark.parametrize("order", [0, 3, -1, 1.5])
def test_curve_derivative_refuses_other_orders(order):
    # order 1 and 2 only: another order used to read as the second
    def square(s):
        return s * s

    assert_allclose(numdiff.curve_derivative(square, 0.5, (0.0, 1.0), 1),
                    1.0, rtol=1e-9)
    assert_allclose(numdiff.curve_derivative(square, 0.5, (0.0, 1.0), 2),
                    2.0, rtol=1e-6)
    with pytest.raises(ValueError, match="order must be 1 or 2"):
        numdiff.curve_derivative(square, 0.5, (0.0, 1.0), order)


def test_flow_stop_grad_norm():
    g, f = fixtures.euclidean_quadratic(2)
    traj = mf.integrate_flow(g, f, [1.0, 1.0], 50.0, stop_grad_norm=1e-4)
    assert traj.converged
    assert traj.ts[-1] < 50.0
    assert np.sqrt(mf.grad_norm_sq(g, f, traj.xs[-1])) < 1e-4


def test_flow_from_a_converged_seed_takes_no_step():
    g, f = fixtures.euclidean_quadratic(2)
    x0 = np.array([3e-7, -4e-7])    # |grad f| = 5e-7
    traj = mf.integrate_flow(g, f, x0, 50.0, stop_grad_norm=1e-6)
    assert traj.converged
    assert traj.span == (0.0, 0.0)
    assert len(traj.ts) == 1
    assert np.array_equal(traj.position(0.0), x0)


def test_flow_nonconvergence_detected():
    # concave potential: the flow runs away and the gradient norm grows
    g = euclidean(1)
    f = mf.ScalarPotential(lambda x: -0.5 * (x * x).sum(axis=-1),
                           gradient=lambda x: -np.asarray(x, dtype=float))
    with pytest.raises(NonConvergenceError,
                       match=r"curve 0, .* stop_grad_norm none, tol 1e-10$"):
        mf.integrate_flow(g, f, [1.0], 60.0)


def _clipped_bowl():
    # the metric max(x, 0) vanishes left of 0; f has its minimum at 0.01
    g = mf.MetricField(mf.Chart(1), diagonal=lambda x: np.maximum(x, 0.0))
    f = mf.ScalarPotential(lambda x: 0.5 * (x[..., 0] - 0.01) ** 2)
    return g, f


@pytest.mark.parametrize("tol", [1e-4, 1e-6])
@pytest.mark.parametrize("x0", [1.0, 3.0])
def test_a_stalled_flow_says_which_curve_and_why(x0, tol):
    # a stop below what tol resolves: the speed levels off above it
    g, f = _clipped_bowl()
    with pytest.raises(NonConvergenceError) as err:
        mf.integrate_flow(g, f, [x0], 1e4, tol=tol, stop_grad_norm=1e-6)
    msg = str(err.value)
    assert msg.startswith("gradient norm failed to decrease over a full "
                          "window of 64 steps: curve 0, window minimum ")
    assert msg.endswith(f", stop_grad_norm 1e-06, tol {tol}")
    window_min = float(re.search(r"window minimum (\S+),", msg).group(1))
    assert 1e-6 < window_min < 1e-4


@pytest.mark.parametrize("tol, x0, steps, nfev", [
    (1e-8, 1.0, 37, 326), (1e-8, 3.0, 41, 374),
    (1e-10, 1.0, 83, 638), (1e-10, 3.0, 91, 728)])
def test_the_same_flow_at_a_finer_tol_converges(tol, x0, steps, nfev):
    g, f = _clipped_bowl()
    traj = mf.integrate_flow(g, f, [x0], 1e4, tol=tol, stop_grad_norm=1e-6)
    assert traj.converged
    assert (traj.steps, traj.nfev) == (steps, nfev)


def test_a_stall_names_the_first_stalled_curve_of_a_batch():
    # curve 0 relaxes to its stop; curve 1 stalls above its own
    g, f = _clipped_bowl()
    with pytest.raises(NonConvergenceError,
                       match=r"curve 1, .* stop_grad_norm 1e-06, tol 1e-06$"):
        mf.integrate_flow(g, f, [[1.0], [3.0]], 1e4, tol=1e-6,
                          stop_grad_norm=[1e-4, 1e-6])


def _compare_to(t_end):
    g, f = fixtures.gaussian_mode()
    x0 = np.array([2.0])
    return cp.compare(g, f, cp.EquidistantPair(x0, x0, f(x0)), t_end)


_HORIZON_ENTRIES = {
    "integrate_flow": lambda t_end: mf.integrate_flow(
        *fixtures.gaussian_mode(), [2.0], t_end),
    "integrate_geodesic": lambda t_end: mf.integrate_geodesic(
        mf.levi_civita_connection(fisher_1d()), [2.0], [1.0], t_end),
    "compare": _compare_to,
}

# a flow to t_end = nan used to step forever, so it runs in a process of
# its own under a timeout
_NAN_FLOW = """
from geoflow import fixtures, manifold as mf
mf.integrate_flow(*fixtures.gaussian_mode(), [2.0], float("nan"))
"""


@pytest.mark.parametrize("t_end", [-1.0, math.nan, math.inf, None])
@pytest.mark.parametrize("entry", list(_HORIZON_ENTRIES))
def test_a_horizon_outside_zero_to_inf_is_refused(entry, t_end):
    # below 0 a solve ran backwards into a span no query could read; a
    # missing horizon is refused alike, compare's default included
    message = f"t_end must be finite and >= 0, got {t_end}"
    if entry == "integrate_flow" and t_end is not None and math.isnan(t_end):
        proc = subprocess.run([sys.executable, "-c", _NAN_FLOW],
                              capture_output=True, text=True, timeout=60)
        assert proc.stderr.strip().endswith(f"ValueError: {message}")
        return
    with pytest.raises(ValueError, match=re.escape(message)):
        _HORIZON_ENTRIES[entry](t_end)


def test_a_wrong_shape_closure_raises_before_the_first_step(monkeypatch):
    # the stages call the closures unchecked, so the seeds are checked
    # first: a gradient written for one point, a diagonal that ignores
    # the stack and a domain check that reduces it each raise the typed
    # error before RK45 is set up
    class Refused(scipy.integrate.RK45):
        def __init__(self, *args, **kwargs):
            raise AssertionError("the solve started")

    monkeypatch.setattr(scipy.integrate, "RK45", Refused)
    seeds = np.ones((3, 2))
    g, f = fixtures.euclidean_quadratic(2)
    point_only = mf.ScalarPotential(
        lambda x: 0.5 * (x * x).sum(axis=-1),
        gradient=lambda x: np.array([x[0], x[1]]))
    flat = mf.MetricField(g.chart, diagonal=lambda x: np.ones(2))
    reduced = mf.MetricField(
        mf.Chart(2, domain_check=lambda x: bool((x > 0.0).all())),
        diagonal=lambda x: np.ones(x.shape))
    for metric, potential in ((g, point_only), (flat, f), (reduced, f)):
        with pytest.raises(ClosureShapeError):
            mf.integrate_flow(metric, potential, seeds, 1.0)


def _pinched_bowl():
    """The bowl |x|^2 / 2 under the metric diag(1, |x|^4).

    Its condition number |x|^-4 passes 1e12 at |x| = 1e-3, which the flow
    from (+-1, 0) along the first axis, x = e^-t, reaches at t ~ 6.9,
    while its speed |x| is still above 1e-6 of its start.
    """
    g = mf.MetricField(
        mf.Chart(2, name="plane"),
        diagonal=lambda x: np.stack([np.ones(x.shape[:-1]),
                                     (x * x).sum(axis=-1) ** 2], axis=-1),
        name="pinched")
    return g, fixtures.distance_squared_potential(g, np.zeros(2))


def test_a_metric_singular_where_the_flow_goes_is_a_typed_error(
        tmp_path, capsys, monkeypatch):
    # the condition is checked at every accepted state, not at every stage
    g, f = _pinched_bowl()
    with pytest.raises(SingularMatrixError, match="condition number"):
        mf.integrate_flow(g, f, [1.0, 0.0], 10.0)
    # a numerical failure of geoflow compare: exit 2
    monkeypatch.setitem(fixtures.COMPARE_MODELS, "pinched-bowl",
                        fixtures.CompareModel(_pinched_bowl, (1.0, 0.0),
                                              (-1.0, 0.0), 0.5))
    code = cli.main(["compare", "--model", "pinched-bowl",
                     "--out", str(tmp_path / "pinched")])
    assert code == 2
    assert "numerical failure: SingularMatrixError" in capsys.readouterr().err


@pytest.mark.parametrize("form", ["diagonal", "dense"])
def test_a_metric_undefined_beside_the_path_rejects_steps_silently(form):
    # past the minimum at 0.2, below x = 0, the diagonal max(x, 0)
    # vanishes and the dense sqrt(x)^2 is nan, which LAPACK cannot
    # factor.  At tol 1e-4 stages overshoot there; the non-finite field
    # makes a non-finite error estimate, RK45 rejects those steps, and no
    # RuntimeWarning leaks (pytest turns one into an error)
    stages = []

    def metric(x):
        stages.append(x.copy())
        if form == "diagonal":
            return np.maximum(x, 0.0)
        return (np.sqrt(x) ** 2)[..., None]

    g = (mf.MetricField(mf.Chart(1), diagonal=metric) if form == "diagonal"
         else mf.MetricField(mf.Chart(1), metric))
    f = fixtures.distance_squared_potential(g, np.array([0.2]))
    traj = mf.integrate_flow(g, f, [1.0], 20.0, tol=1e-4)
    assert min(x.min() for x in stages) < 0.0
    assert traj.ts[-1] == 20.0 and np.all(traj.xs > 0.2)
    assert abs(traj.xs[-1, 0] - 0.2) < 1e-4


# ---------------------------------------------------------------- seed stacks


def _plain_rk45(g, f, x0, t_end, tol=1e-10):
    """scipy's RK45 on -grad f, stepped to t_end: times, states, steps.

    A seed stack ``(B, dim)`` is one system of B·dim states whose error
    norm is scipy's RMS norm taken curve by curve, the largest deciding.
    """
    x0 = np.asarray(x0, dtype=float)
    n = x0.size // x0.shape[-1]
    rk45 = scipy.integrate.RK45
    if x0.ndim > 1:
        class PerCurve(scipy.integrate.RK45):
            def _estimate_error_norm(self, K, h, scale):
                err = (self._estimate_error(K, h) / scale).reshape(n, -1)
                return max(np.linalg.norm(e) / e.size ** 0.5 for e in err)

        rk45 = PerCurve
    solver = rk45(
        lambda _t, y: -mf.gradient(g, f, y.reshape(x0.shape)).reshape(-1),
        0.0, x0.reshape(-1), t_bound=t_end, rtol=tol, atol=tol)
    ts, ys, steps = [0.0], [solver.y.copy()], []
    while solver.status == "running":
        solver.step()
        steps.append(solver.dense_output())
        ts.append(solver.t)
        ys.append(solver.y.copy())
    return np.array(ts), np.array(ys), steps, solver.nfev


@pytest.mark.parametrize("model, x0", [("sphere", [2.0, 0.5]),
                                       ("mode", [2.5]),
                                       ("bowl", [1.0, -0.3]),
                                       ("two-mode", [0.5, 2.0])])
def test_one_seed_is_plain_rk45_bit_for_bit(model, x0):
    g, f = {"sphere": fixtures.sphere_height,
            "mode": fixtures.gaussian_mode,
            "bowl": lambda: fixtures.euclidean_quadratic(2),
            "two-mode": fixtures.two_mode_chain}[model]()
    traj = mf.integrate_flow(g, f, x0, 1.0)
    ts, ys, steps, nfev = _plain_rk45(g, f, x0, 1.0)
    assert traj.ts.tobytes() == ts.tobytes()
    assert traj.xs.tobytes() == ys.tobytes()
    t_old, h, y_old, q = traj._dense
    for got, attr in ((t_old, "t_old"), (h, "h"), (y_old, "y_old"),
                      (q, "Q")):
        assert got.tobytes() == np.stack([getattr(s, attr)
                                          for s in steps]).tobytes()
    assert (traj.steps, traj.nfev) == (len(ts) - 1, nfev)


@pytest.mark.parametrize("n_beads", [3, 9])
def test_a_seed_stack_is_rk45_with_a_per_curve_norm_bit_for_bit(n_beads):
    # the reference takes each curve's norm in a loop, with
    # np.linalg.norm as scipy does; the solve takes them in one product
    g, f = gc.chain_manifold(gc.spectrum(gc.ChainSpec(n_beads)))
    seeds = np.stack([1.8 * f.minimum_q, 0.6 * f.minimum_q])
    traj = mf.integrate_flow(g, f, seeds, 1.0)
    ts, ys, _, nfev = _plain_rk45(g, f, seeds, 1.0)
    assert traj.ts.tobytes() == ts.tobytes()
    assert traj.xs.swapaxes(0, 1).tobytes() == ys.tobytes()
    assert (traj.steps, traj.nfev) == (len(ts) - 1, nfev)


def test_a_seed_stack_is_one_solve_with_a_stop_per_curve():
    g, f = fixtures.two_mode_chain()
    seeds = np.array([[0.5, 2.0], [3.0, 0.4], f.minimum_q])
    stops = np.array([1e-3, 1e-5, 1.0])     # the last seed is at rest
    traj = mf.integrate_flow(g, f, seeds, 20.0, stop_grad_norm=stops)
    t0, t1 = traj.span
    assert t0 == 0.0 and t1.shape == (3,)
    assert 0.0 < t1[0] < t1[1] == traj.ts[-1] and t1[2] == 0.0
    assert traj.converged.tolist() == [True] * 3
    assert traj.exited_domain.tolist() == [False] * 3
    for b in range(3):
        one = traj[b]
        assert one.span == (0.0, t1[b])
        assert (one.steps, one.nfev) == (traj.steps, traj.nfev)
        assert one.converged and not one.exited_domain
        # each curve ends at its first accepted state below its own stop
        speed = np.sqrt(mf.grad_norm_sq(g, f, one.xs))
        assert speed[-1] < stops[b] or one.ts.size == 1
        assert np.all(speed[:-1] >= stops[b])
    # batch queries: the curves down the leading axis, bit for bit the
    # single-curve queries, for one time per curve and for a grid
    grid = np.linspace(0.0, 1.0, 7) * t1[:, None]
    for t in (t1, grid):
        x, v = traj.position_velocity(t)
        assert x.shape == v.shape == t.shape + (2,)
        for b in range(3):
            xb, vb = traj[b].position_velocity(t[b])
            assert x[b].tobytes() == xb.tobytes()
            assert v[b].tobytes() == vb.tobytes()
    with pytest.raises(OutOfSpanError):
        traj.position(t1 + 1e-3)
    # the moving curves' accelerations from one stencil call
    pair = mf.integrate_flow(g, f, seeds[:2], 20.0, stop_grad_norm=stops[:2])
    grid = np.linspace(0.0, 1.0, 7) * pair.span[1][:, None]
    acc = pair.acceleration(grid)
    assert acc.shape == grid.shape + (2,)
    for b in range(2):
        assert_allclose(acc[b], pair[b].acceleration(grid[b]), rtol=1e-13,
                        atol=0.0)


def test_a_seed_stack_flags_domain_exits_per_curve():
    # a concave f pushes x outward: the seed at 0.5 reaches the chart's
    # edge at x = 1 while the one at -0.1 still runs inside
    chart = mf.Chart(1, domain_check=lambda x: x[..., 0] < 1.0)
    g = mf.MetricField(chart, diagonal=lambda x: np.ones(x.shape))
    f = mf.ScalarPotential(lambda x: -0.5 * (x * x).sum(axis=-1),
                           gradient=lambda x: -x)
    traj = mf.integrate_flow(g, f, [[0.5], [-0.1]], 5.0)
    assert traj.exited_domain.tolist() == [True, False]
    assert traj.converged.tolist() == [False, False]
    assert traj.span[1][0] == traj.span[1][1] == traj.ts[-1] < 5.0
    assert traj.xs[0, -1, 0] < 1.0


# ---------------------------------------------------------------- point stacks


def _stack_models():
    """(g, f, in-domain points) for every model compare can reach."""
    rng = np.random.default_rng(3)
    sp = gc.spectrum(gc.ChainSpec(6))
    chain_pts = sp.a_star * np.exp(rng.uniform(np.log(0.25), np.log(4.0),
                                               (9, sp.n_modes)))
    plane_pts = np.column_stack([rng.uniform(-1.0, 1.0, 9),
                                 rng.uniform(0.2, 4.0, 9)])
    sphere_g, sphere_f = fixtures.sphere_height()
    models = [
        ("euclidean-quadratic", *fixtures.euclidean_quadratic(3),
         rng.uniform(-2.0, 2.0, (9, 3))),
        ("gaussian-mode", *fixtures.gaussian_mode(), rng.uniform(0.2, 5.0, (9, 1))),
        ("two-mode", *fixtures.two_mode_chain(), rng.uniform(0.3, 4.0, (9, 2))),
        ("sphere", sphere_g, sphere_f,
         np.column_stack([rng.uniform(0.3, 2.8, 9), rng.uniform(0.0, 6.0, 9)])),
        # the same metric with its partials by finite differences
        ("sphere-fd-partials", mf.MetricField(sphere_g.chart, sphere_g),
         sphere_f,
         np.column_stack([rng.uniform(0.3, 2.8, 9), rng.uniform(0.0, 6.0, 9)])),
        # and through its diagonal, with d_l g_ii by finite differences
        ("sphere-diagonal-fd-partials",
         mf.MetricField(sphere_g.chart, diagonal=sphere_g.diagonal), sphere_f,
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
    gs, fs, ds = g(pts), f(pts), g.partials(pts)
    assert gs.shape == (len(pts), dim, dim) and fs.shape == (len(pts),)
    assert ds.shape == (len(pts), dim, dim, dim)
    assert_array_equal(gs, np.stack([g(x) for x in pts]))
    assert_array_equal(ds, np.stack([g.partials(x) for x in pts]))
    assert_array_equal(fs, [f(x) for x in pts])
    assert all(isinstance(f(x), float) for x in pts)
    if g.is_diagonal:
        # finite differences of the diagonal give those of the dense
        # matrix, bit for bit
        assert_array_equal(
            mf.MetricField(g.chart, diagonal=g.diagonal).partials(pts),
            mf.MetricField(g.chart, g).partials(pts))


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
    # a broadcasting matrix with partials written for one point
    flat = mf.MetricField(mf.Chart(2), euclidean(2),
                          partials=lambda x: np.zeros((2, 2, 2)))
    assert flat.partials(pts[0]).shape == (2, 2, 2)
    with pytest.raises(ClosureShapeError):
        flat.partials(pts)
    with pytest.raises(ClosureShapeError):
        mf.christoffel_levi_civita(flat, pts)
    # finite differences call a closure once on a stack of shifted points
    with pytest.raises(ClosureShapeError):
        numdiff.jacobian_fd(lambda x: x[0], pts[0])
    with pytest.raises(ClosureShapeError):
        numdiff.jacobian_fd(lambda x: x[0], pts)
    model = HessianModel(lambda th: 0.5 * th[0] ** 2 + th[1], mf.Chart(2))
    assert model(pts[0]) == 1.5
    with pytest.raises(ClosureShapeError):
        model.gradient_covector(pts[0])
    with pytest.raises(ClosureShapeError):
        HessianModel(lambda th: th[0], mf.Chart(2),
                     hessian=lambda th: np.eye(2)).hessian(pts)
    circle = st.Submanifold(lambda u: np.array([np.cos(u[0]), np.sin(u[0])]))
    with pytest.raises(ClosureShapeError):
        circle.tangent_basis([0.3])


def _stencil_reference(fn, x, h):
    """The 4th-order stencil one coordinate and one shifted copy at a time."""
    cols = []
    for j in range(x.shape[-1]):
        vals = []
        for o in (2.0, 1.0, -1.0, -2.0):
            xo = x.copy()
            xo[..., j] += o * h[..., j]
            vals.append(np.asarray(fn(xo), dtype=float))
        cols.append(sum(w * v for w, v in zip(numdiff._W4, vals)))
    jac = np.stack(cols, axis=-1)
    return jac / h.reshape(h.shape[:-1] + (1,) * (jac.ndim - h.ndim)
                           + h.shape[-1:])


@pytest.mark.parametrize("shape", [(2,), (7, 2)])
@pytest.mark.parametrize("which", ["potential", "metric"])
def test_jacobian_fd_makes_one_call(shape, which):
    # one call on the whole (4, dim) + x.shape stencil, bit for bit the
    # per-coordinate stencil
    g, f = fixtures.sphere_height()
    fn = f if which == "potential" else g
    x = np.random.default_rng(4).uniform(0.3, 2.8, size=shape)
    calls = []

    def counted(y):
        calls.append(y.shape)
        return fn(y)

    got = numdiff.jacobian_fd(counted, x)
    assert calls == [(4, 2) + shape]
    h = numdiff.STEP * np.maximum(1.0, np.abs(x))
    assert_array_equal(got, _stencil_reference(fn, x, h))


def _jacobian_reference(fn, x, scale=numdiff.STEP):
    """jacobian_fd as first written: the offsets built on every call, the
    stencil rows summed by sum() and the derivative axis moved by
    np.moveaxis."""
    h = scale * np.maximum(1.0, np.abs(x))
    dim = x.shape[-1]
    offsets = numdiff._O4[:, None, None] * np.eye(dim)
    shifted = x + offsets.reshape((4, dim) + (1,) * (x.ndim - 1) + (dim,)) * h
    vals = np.asarray(fn(shifted), dtype=float)
    jac = np.moveaxis(sum(w * v for w, v in zip(numdiff._W4, vals)), 0, -1)
    return jac / h.reshape(h.shape[:-1] + (1,) * (jac.ndim - h.ndim)
                           + h.shape[-1:])


_FD_FUNCTIONS = {
    "scalar": lambda y: np.sin(y).sum(axis=-1),
    "vector": lambda y: np.cos(y) * y.sum(axis=-1, keepdims=True),
    "matrix": lambda y: np.einsum("...i,...j->...ij", y, np.exp(-y)),
}


@pytest.mark.parametrize("lead", [(), (3,), (2, 3)])
@pytest.mark.parametrize("kind", list(_FD_FUNCTIONS))
def test_jacobian_fd_bits_match_the_reference(lead, kind):
    # the cached offsets, the unrolled sum and the transposed view change
    # no bit, at either step scale and on steps above and below 1
    fn = _FD_FUNCTIONS[kind]
    rng = np.random.default_rng(len(lead))
    for dim in range(1, 12):
        x = rng.standard_normal(lead + (dim,)) * rng.choice([1e-3, 1.0, 40.0])
        for scale in (numdiff.STEP, numdiff.STEP_COEFFS):
            got = numdiff.jacobian_fd(fn, x, scale=scale)
            want = _jacobian_reference(fn, x, scale)
            assert got.shape == want.shape == fn(x).shape + (dim,)
            assert got.tobytes() == want.tobytes()


def test_jacobian_fd_negative_zero_sum_reads_as_sum_does():
    # rows of +0.0 and -0.0 whose weighted terms are all -0.0: sum()
    # starts from 0 and gives +0.0, a sum of the rows alone would give -0.0
    def rows(y):
        out = np.zeros(y.shape[:-1])
        out[[1, 3]] = -0.0
        return out

    for x in (np.array([0.5, 2.0]), np.ones((3, 2))):
        got = numdiff.jacobian_fd(rows, x)
        assert got.tobytes() == _jacobian_reference(rows, x).tobytes()
        assert not np.signbit(got).any()


def test_jacobian_fd_offset_table_is_cached_read_only():
    table = numdiff._offsets(3, 2)
    assert numdiff._offsets(3, 2) is table
    assert table.shape == (4, 3, 1, 3) and not table.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        table[0, 0, 0, 0] = 1.0
    numdiff.jacobian_fd(np.sin, np.ones((5, 3)))
    assert_array_equal(table[:, :, 0, :],
                       numdiff._O4[:, None, None] * np.eye(3))


# --------------------------------------------------------- array-t queries


def _trajectories():
    """kind -> (trajectory, g, f) with the model the trajectory lives on."""
    g_sphere, f_sphere = fixtures.sphere_height()
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
        "chain": (gc.ChainTrajectory(sp, np.array([0.3, 2.0, 5.0])
                                     * sp.a_star), *gc.chain_manifold(sp)),
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
    # one query for both, bit for bit the separate ones
    x, v = traj.position_velocity(ts)
    assert x.tobytes() == traj.position(ts).tobytes()
    assert v.tobytes() == traj.velocity(ts).tobytes()
    # the evaluators along the curve: a point stack, and an array of t
    xs = traj.position(ts)
    evaluators = [lambda x: mf.metric_inverse(g, x),
                  lambda x: mf.gradient(g, f, x),
                  lambda x: mf.grad_norm_sq(g, f, x),
                  lambda x: g.norm(x, mf.gradient(g, f, x)),
                  g.partials,
                  lambda x: g.cubic_form(x, mf.gradient(g, f, x)),
                  lambda x: mf.christoffel_levi_civita(g, x)]
    if kind.endswith("flow"):   # off the critical set
        conn = st.straightening_connection(g, f, 1.0)
        evaluators += [lambda x: st.straightening_coeffs(g, f, 1.0, x),
                       lambda x: st.pregeodesic_residual(g, f, 1.0, x),
                       lambda x: st.nonmetricity_tensor(conn, g, x),
                       lambda x: st.nonmetricity_closed_tensor(g, f, 1.0, x),
                       lambda x: st.scalar_curvature(conn, x)]
        assert isinstance(st.pregeodesic_residual(g, f, 1.0, xs[0]), float)
        assert isinstance(st.scalar_curvature(conn, xs[0]), float)
    for at in evaluators:
        assert_allclose(at(xs), np.stack([at(x) for x in xs]),
                        rtol=1e-14, atol=0.0)
    # the squared norms: a float at a point, one value per point on a stack
    assert isinstance(mf.grad_norm_sq(g, f, xs[0]), float)
    assert mf.grad_norm_sq(g, f, xs).shape == ts.shape
    if t1 > t0:
        for lam in (0.0, 1.0):
            got = st.nonmetricity_cubic(g, lam, traj, ts)
            assert got.shape == ts.shape
            assert_allclose(got, [st.nonmetricity_cubic(g, lam, traj, t)
                                  for t in ts], rtol=1e-14, atol=0.0)
    for bad in ([t0, t1 + 1e-3], [t0 - 1e-3, t1]):
        for query in queries:
            with pytest.raises(OutOfSpanError):
                query(np.array(bad))


# ---------------------------------------------------------- dense output


def _recording_rk45(monkeypatch):
    """Patch RK45 so that scipy's own interpolant of every step of positive
    length is kept; ``dense_output()`` reads only the stages ``K`` of the
    step just taken, so it is built right after each step."""
    steps = []

    class Recorded(scipy.integrate.RK45):
        def step(self):
            msg = super().step()
            if self.t != self.t_old:
                steps.append(self.dense_output())
            return msg

    monkeypatch.setattr(scipy.integrate, "RK45", Recorded)
    return steps


@pytest.mark.parametrize("kind", ["flow", "geodesic"])
def test_stacked_dense_output_matches_scipy_ode_solution(kind, monkeypatch):
    # scipy's own OdeSolution over the integrator's own interpolants is the
    # oracle, queried between steps, at every step time and at both ends;
    # at 1e-14 both boundary rules pass, so the next test pins that rule
    steps = _recording_rk45(monkeypatch)
    g, f = fixtures.sphere_height()
    if kind == "flow":
        traj = mf.integrate_flow(g, f, [2.0, 0.5], 1.0)
    else:
        traj = mf.integrate_geodesic(mf.levi_civita_connection(g),
                                     [1.1, 0.2], [0.3, 0.8], 1.0)
    oracle = OdeSolution(traj.ts, steps)
    assert len(steps) == len(traj.ts) - 1 > 5
    t0, t1 = traj.span
    ts = np.concatenate([np.random.default_rng(5).uniform(t0, t1, 1000),
                         traj.ts, [t0, t1]])
    want = oracle(ts).T
    got = traj._state(ts)
    assert np.abs(got - want).max() <= 1e-14 * max(1.0, np.abs(want).max())
    for t in ts[::50]:
        assert np.abs(traj._state(t) - oracle(t)).max() \
            <= 1e-14 * max(1.0, np.abs(oracle(t)).max())


def test_deferred_interpolants_of_a_joint_solve_are_scipys(monkeypatch):
    # the interpolants formed after a two-seed solve are, byte for byte,
    # the per-step objects scipy builds during it
    steps = _recording_rk45(monkeypatch)
    g, f = fixtures.two_mode_chain()
    traj = mf.integrate_flow(g, f, [[0.5, 2.0], [3.0, 0.4]], 1.0)
    t_old, h, y_old, q = traj._dense
    assert len(steps) == len(traj.ts) - 1 == t_old.size > 5
    for got, attr in ((t_old, "t_old"), (h, "h"), (y_old, "y_old"),
                      (q, "Q")):
        want = np.stack([getattr(s, attr) for s in steps])
        assert got.reshape(want.shape).tobytes() == want.tobytes(), attr


def test_stacked_dense_output_takes_the_earlier_step_at_a_boundary():
    # interpolants that jump at every step boundary, with integer data so
    # that any summation order gives the same bits
    ts = np.array([0.0, 1.0, 3.0, 4.0])
    h = np.diff(ts)
    y_old = np.array([[0.0, 1.0], [10.0, 11.0], [20.0, 21.0]])
    q = np.arange(24.0).reshape(3, 2, 4) - 12.0
    traj = mf.Trajectory(ts, y_old[[0, 1, 2, 2]], np.zeros((4, 2)),
                         (ts[:-1], h, y_old, q), 2)
    oracle = OdeSolution(ts, [RkDenseOutput(t0, t0 + dt, y, qq)
                              for t0, dt, y, qq in zip(ts, h, y_old, q)])
    at = np.concatenate([ts, [0.5, 2.0, 3.5]])
    assert_array_equal(traj.position(at), oracle(at).T)
    for t in at:
        assert_array_equal(traj.position(t), oracle(t))


def test_zero_length_and_zero_step_trajectories_keep_the_initial_state():
    g, f = fixtures.sphere_height()
    sphere = mf.levi_civita_connection(g)
    # t_end = 0: RK45 takes one zero-length step
    flow = mf.integrate_flow(g, f, [2.0, 0.5], 0.0)
    geo = mf.integrate_geodesic(sphere, [1.1, 0.2], [0.3, 0.8], 0.0)
    # the first step leaves the chart: no step is accepted
    chart = mf.Chart(1, domain_check=lambda x: x[0] <= 1.0)
    line = mf.MetricField(
        chart, lambda x: np.ones(x.shape[:-1] + (1, 1)),
        partials=lambda x: np.zeros(x.shape[:-1] + (1, 1, 1)))
    exited = mf.integrate_geodesic(mf.levi_civita_connection(line), [1.0],
                                   [1.0], 1.0)
    assert exited.exited_domain and exited.ts.tolist() == [0.0]
    for traj in (flow, geo, exited):
        assert traj.span == (0.0, 0.0)
        for t in (0.0, np.zeros(3)):
            x = traj.position(t)
            assert_array_equal(x, np.broadcast_to(traj.xs[0], x.shape))
            v = traj.velocity(t)
            assert_array_equal(v, np.broadcast_to(traj.vs[0], v.shape))


def test_compare_makes_no_per_step_dense_output_calls(monkeypatch):
    calls = []
    per_step = RkDenseOutput._call_impl

    def counted(self, t):
        calls.append(1)
        return per_step(self, t)

    monkeypatch.setattr(RkDenseOutput, "_call_impl", counted)
    model = fixtures.COMPARE_MODELS["gaussian-mode"]
    g, f = model.build()
    pair = cp.equidistant_seed(g, f, model.level, model.direction1,
                               model.direction2)
    rep = cp.compare(g, f, pair, 12.0)
    assert len(rep.traj1.ts) > 10 and len(rep.coincidence_times) > 0
    assert calls == []
