"""Equidistant seeding, paired relaxation, and the asymmetry verdict."""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.optimize import brentq

from geoflow import comparison as cp
from geoflow import fixtures
from geoflow import gaussian_chain as gc
from geoflow import manifold as mf
from geoflow.errors import (
    ClosureShapeError,
    DomainExitError,
    LevelUnreachableError,
    MissingMinimumError,
    NonConvergenceError,
    NonEquidistantError,
)

# single mode, rate 2, equilibrium a* = 1.  Starting scale T = a(0)/a*:
# the level F(T=2) = 2 ln 2 - 1 is shared by the colder start T = 1/u where
# u - ln u = 1/2 - ln(1/2); frozen by bisection oracle
MODE_LEVEL = 2.0 * np.log(2.0) - 1.0
T_COLD = 0.5693362741


# compare evaluates metrics and potentials on point stacks, so the models
# below broadcast over leading axes


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


def mode_potential(rate=2.0, astar=1.0):
    def value(x):
        r = astar / x[..., 0]
        return rate * (r - np.log(r) - 1.0)

    def grad(x):
        return rate * (x - astar) / x ** 2

    return mf.ScalarPotential(value, gradient=grad, minimum_q=np.array([astar]))


def mode_pair():
    g, f = mode_metric(), mode_potential()
    return g, f, cp.equidistant_seed(g, f, MODE_LEVEL, [1.0], [-1.0])


# ---------------------------------------------------------------- seeding


def test_seed_euclidean_radial():
    g, f = euclidean(2), quadratic(2)
    pair = cp.equidistant_seed(g, f, 0.5, [1.0, 0.0], [0.0, 1.0])
    assert_allclose(pair.x1_0, [1.0, 0.0], atol=1e-10)
    assert_allclose(pair.x2_0, [0.0, 1.0], atol=1e-10)
    assert abs(f(pair.x1_0) - 0.5) < 1e-10
    assert abs(f(pair.x2_0) - 0.5) < 1e-10


def test_seed_mode_warm_cold():
    # direction +1 walks up in a (hot start), -1 walks down (cold start)
    g, f = mode_metric(), mode_potential()
    pair = cp.equidistant_seed(g, f, MODE_LEVEL, [1.0], [-1.0])
    assert_allclose(pair.x1_0[0], 2.0, rtol=1e-9)
    assert_allclose(pair.x2_0[0], T_COLD, rtol=1e-8)


def test_seed_degenerate_level():
    g, f = euclidean(2), quadratic(2)
    with pytest.raises(ValueError):
        cp.equidistant_seed(g, f, 0.0, [1.0, 0.0], [0.0, 1.0])


def test_seed_level_unreachable():
    # bounded potential: level 2 is never crossed
    g = euclidean(1)
    f = mf.ScalarPotential(lambda x: 1.0 - np.exp(-float(x @ x)),
                           gradient=lambda x: 2.0 * x * np.exp(-float(x @ x)),
                           minimum_q=np.zeros(1))
    with pytest.raises(LevelUnreachableError):
        cp.equidistant_seed(g, f, 2.0, [1.0], [-1.0])


def test_seed_domain_exit():
    # the chart ends before the level is crossed
    chart = mf.Chart(1, domain_check=lambda x: abs(x[0]) < 0.5)
    g = mf.MetricField(chart, lambda x: np.eye(1),
                       partials=lambda x: np.zeros((1, 1, 1)))
    f = quadratic(1)
    with pytest.raises(DomainExitError):
        cp.equidistant_seed(g, f, 0.5, [1.0], [-1.0])


def test_seed_requires_minimum():
    g = euclidean(1)
    f = mf.ScalarPotential(lambda x: float(x[0]),
                           gradient=lambda x: np.ones(1))
    with pytest.raises(MissingMinimumError):
        cp.equidistant_seed(g, f, 1.0, [1.0], [-1.0])


def test_pair_validation():
    f = quadratic(2)
    bad = cp.EquidistantPair(np.array([1.0, 0.0]), np.array([0.5, 0.0]), 0.5)
    with pytest.raises(NonEquidistantError):
        bad.validate(f)


# ---------------------------------------------------------------- compare


def test_compare_symmetric_is_inconclusive():
    g, f = euclidean(2), quadratic(2)
    pair = cp.equidistant_seed(g, f, 0.5, [1.0, 0.0], [0.0, 1.0])
    report = cp.compare(g, f, 0.0, pair, 8.0)
    assert report.verdict == cp.INCONCLUSIVE
    assert any("zero-gap" in n for n in report.notes)
    assert np.abs(report.delta_f).max() < 1e-9


def test_compare_identical_seeds():
    g, f = euclidean(2), quadratic(2)
    pair = cp.EquidistantPair(np.array([1.0, 0.0]), np.array([1.0, 0.0]), 0.5)
    report = cp.compare(g, f, 0.0, pair, 5.0)
    assert np.all(report.delta_f == 0.0)
    assert report.verdict == cp.INCONCLUSIVE


def test_compare_mode_warming_wins():
    # cold (warming) start as curve 1, hot (cooling) start as curve 2
    g, f, pair = mode_pair()
    swapped = cp.EquidistantPair(pair.x2_0, pair.x1_0, pair.level)
    report = cp.compare(g, f, 0.0, swapped, 8.0)
    assert report.verdict == cp.CURVE1_FASTER
    assert report.coincidence_times
    assert all(gp > 0.0 for gp in report.cubic_gaps)
    assert report.delta_f.min() >= -1e-9
    assert report.delta_f.max() > 1e-3


def test_compare_orientation_flips():
    g, f, pair = mode_pair()
    report = cp.compare(g, f, 0.0, pair, 8.0)
    assert report.verdict == cp.CURVE2_FASTER
    assert all(gp < 0.0 for gp in report.cubic_gaps)


def test_compare_endpoint_pinning():
    g, f, pair = mode_pair()
    report = cp.compare(g, f, 0.0, pair, 12.0, tol=1e-10)
    assert abs(report.delta_f[0]) < 1e-9
    assert report.traj1.converged and report.traj2.converged
    assert abs(report.delta_f[-1]) < 1e-9


def test_compare_coincidence_characterization():
    # at t*: relaxation rates agree, and delta_f curves away from the gap
    g, f, pair = mode_pair()
    swapped = cp.EquidistantPair(pair.x2_0, pair.x1_0, pair.level)
    report = cp.compare(g, f, 0.0, swapped, 8.0)
    for t_star, gap in zip(report.coincidence_times, report.cubic_gaps):
        if t_star == 0.0:
            continue
        s1 = cp._speed(g, report.traj1, t_star)
        s2 = cp._speed(g, report.traj2, t_star)
        assert abs(s1 ** 2 - s2 ** 2) < 1e-8
        h = 1e-2
        d = [f(report.traj2.position(t_star + k * h))
             - f(report.traj1.position(t_star + k * h)) for k in (-1, 0, 1)]
        dd = (d[0] - 2.0 * d[1] + d[2]) / h ** 2
        assert np.sign(dd) == -np.sign(gap)


def test_compare_rejects_a_pointwise_only_model():
    # the same bowl as test_compare_symmetric_is_inconclusive, with closures
    # that ignore the leading axis of a point stack
    g = mf.MetricField(mf.Chart(2), lambda x: np.eye(2))
    f = mf.ScalarPotential(lambda x: 0.5 * (x[0] ** 2 + x[1] ** 2),
                           gradient=lambda x: np.asarray(x, dtype=float),
                           minimum_q=np.zeros(2))
    pair = cp.equidistant_seed(g, f, 0.5, [1.0, 0.0], [0.0, 1.0])
    with pytest.raises(ClosureShapeError):
        cp.compare(g, f, 0.0, pair, 8.0)
    f_ok = quadratic(2)
    with pytest.raises(ClosureShapeError):
        cp.compare(g, f_ok, 0.0, pair, 8.0)


def test_compare_verdict_stable_under_tol():
    g, f, pair = mode_pair()
    swapped = cp.EquidistantPair(pair.x2_0, pair.x1_0, pair.level)
    a = cp.compare(g, f, 0.0, swapped, 8.0, tol=1e-10)
    b = cp.compare(g, f, 0.0, swapped, 8.0, tol=5e-11)
    assert a.verdict == b.verdict == cp.CURVE1_FASTER


# ------------------------------------------------------------ root search


def _speed_brackets(g, report):
    """A report's speed difference and its sign-change brackets."""
    def fn(t):
        return cp._speed(g, report.traj1, t) - cp._speed(g, report.traj2, t)

    ts = report.ts
    diff = fn(ts)
    i = np.flatnonzero(diff[:-1] * diff[1:] < 0.0)
    return fn, ts[i], ts[i + 1], diff[i], diff[i + 1]


def _flat_bowl():
    """The first certificate of the benchmark's flat-bowl round ([1, 0])."""
    g, _ = fixtures.euclidean_quadratic()
    f = fixtures.distance_squared_potential(g, np.zeros(2))
    d1, d2 = np.random.default_rng([1, 0]).standard_normal((2, 2))
    return g, f, cp.equidistant_seed(g, f, 0.5, d1, d2)


def _smooth_reports():
    g, f, pair = mode_pair()
    yield "gaussian-mode", g, cp.compare(g, f, 0.0, pair, 8.0)
    sp = gc.spectrum(gc.ChainSpec(6))
    g, f = gc.chain_manifold(sp)
    t_minus = gc.equidistant_temperatures(3.0)
    lo, hi = t_minus * sp.a_star, 3.0 * sp.a_star
    level = 0.5 * (f(lo) + f(hi))
    yield "chain", g, cp.compare(
        g, f, 0.0, cp.EquidistantPair(lo, hi, level), 50.0,
        flow=lambda x0: gc.ChainTrajectory(sp, x0, 50.0))


def test_bracketed_roots_match_brentq():
    # a smooth function with many roots, then the brackets of real compares
    def wave(t):
        return np.sin(3.0 * t) * np.exp(-0.3 * t) + 0.2 * np.cos(7.0 * t)

    ts = np.linspace(0.0, 10.0, 97)
    w = wave(ts)
    i = np.flatnonzero(w[:-1] * w[1:] < 0.0)
    cases = [("wave", wave, ts[i], ts[i + 1], w[i], w[i + 1])]
    cases += [(name, *_speed_brackets(g, rep))
              for name, g, rep in _smooth_reports()]
    for name, fn, lo, hi, f_lo, f_hi in cases:
        assert lo.size, name
        got = cp.bracketed_roots(fn, lo, hi, f_lo, f_hi)
        want = [brentq(fn, a, b, xtol=cp.ROOT_XTOL) for a, b in zip(lo, hi)]
        assert_allclose(got, want, rtol=0.0, atol=1e-12, err_msg=name)


def test_bracketed_roots_on_roundoff_brackets():
    # on the flat bowl the speed difference is roundoff: brentq and the
    # batched search stop at different roundoff sign changes of one
    # bracket, and both roots are zeros of fn to within a few ulp
    g, f, pair = _flat_bowl()
    rep = cp.compare(g, f, 0.0, pair, 12.0)
    fn, lo, hi, f_lo, f_hi = _speed_brackets(g, rep)
    assert lo.size > 200
    got = cp.bracketed_roots(fn, lo, hi, f_lo, f_hi)
    assert np.all((lo < got) & (got < hi))
    speed = cp._speed(g, rep.traj1, got)
    assert np.all(np.abs(fn(got)) <= 4.0 * np.finfo(float).eps * speed)


def test_bracketed_roots_raise_when_unfinished(monkeypatch):
    monkeypatch.setattr(cp, "_ROOT_MAXITER", 2)
    with pytest.raises(NonConvergenceError):
        cp.bracketed_roots(np.sin, [3.0], [3.3], [np.sin(3.0)], [np.sin(3.3)])


def test_compare_metric_inverse_calls_are_bounded(monkeypatch):
    # deterministic work counters on the flat bowl: one inverse-metric call
    # per RK45 evaluation plus one for the sample velocities, and a compare
    # on finished curves that stays within a few calls per root
    calls = []
    solvers = []
    inverse = mf.metric_inverse

    def counted(*args):
        calls.append(1)
        return inverse(*args)

    class Recorded(mf.RK45):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            solvers.append(self)

    monkeypatch.setattr(mf, "metric_inverse", counted)
    monkeypatch.setattr(mf, "RK45", Recorded)
    g, f, pair = _flat_bowl()
    trajs = {}
    for x0 in (pair.x1_0, pair.x2_0):
        calls.clear()
        trajs[id(x0)] = mf.integrate_flow(g, f, x0, 12.0,
                                          stop_grad_norm=cp.STOP_GRAD_NORM)
        assert len(calls) <= solvers[-1].nfev + 1
    calls.clear()
    rep = cp.compare(g, f, 0.0, pair, 12.0, flow=lambda x0: trajs[id(x0)])
    assert len(rep.coincidence_times) > 200
    assert len(calls) <= 2 * len(rep.coincidence_times) + 16


# ---------------------------------------------------------------- symmetry


def test_symmetry_check_distance_squared():
    g, f = euclidean(2), quadratic(2)
    pair = cp.equidistant_seed(g, f, 0.5, [1.0, 0.0], [0.0, 1.0])
    assert cp.metric_symmetry_check(g, f, pair, 8.0)


def test_symmetry_check_mode_fails():
    g, f, pair = mode_pair()
    assert not cp.metric_symmetry_check(g, f, pair, 8.0)


def test_symmetry_check_equal_seeds():
    g, f = euclidean(2), quadratic(2)
    pair = cp.EquidistantPair(np.array([1.0, 0.0]), np.array([1.0, 0.0]), 0.5)
    assert cp.metric_symmetry_check(g, f, pair, 5.0)
