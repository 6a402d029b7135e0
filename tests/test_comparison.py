"""Equidistant seeding, paired relaxation, and the asymmetry verdict."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from geoflow import comparison as cp
from geoflow import manifold as mf
from geoflow.errors import (
    ClosureShapeError,
    DomainExitError,
    LevelUnreachableError,
    MissingMinimumError,
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
        return np.array([rate * (x[0] - astar) / x[0] ** 2])

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
