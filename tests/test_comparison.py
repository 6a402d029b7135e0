"""Equidistant seeding, paired relaxation, and the asymmetry verdict."""

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as hst
from numpy.testing import assert_allclose
from scipy.optimize import brentq

from geoflow import comparison as cp
from geoflow import fixtures
from geoflow import gaussian_chain as gc
from geoflow import manifold as mf
from geoflow import straightening as st
from geoflow.errors import (
    ClosureShapeError,
    DomainExitError,
    GeoflowError,
    LevelUnreachableError,
    MissingMinimumError,
    NonConvergenceError,
    NonEquidistantError,
)

# the gaussian-mode fixture: single mode, rate 2, equilibrium a* = 1.
# Starting scale T = a(0)/a*: the level F(T=2) = 2 ln 2 - 1 is shared by
# the colder start T = 1/u where u - ln u = 1/2 - ln(1/2); frozen by
# bisection oracle
MODE_LEVEL = 2.0 * np.log(2.0) - 1.0
T_COLD = 0.5693362741


def mode_pair():
    g, f = fixtures.gaussian_mode()
    return g, f, cp.equidistant_seed(g, f, MODE_LEVEL, [1.0], [-1.0])


# ---------------------------------------------------------------- seeding


def test_seed_euclidean_radial():
    g, f = fixtures.euclidean_quadratic(2)
    pair = cp.equidistant_seed(g, f, 0.5, [1.0, 0.0], [0.0, 1.0])
    assert_allclose(pair.x1_0, [1.0, 0.0], atol=1e-10)
    assert_allclose(pair.x2_0, [0.0, 1.0], atol=1e-10)
    assert abs(f(pair.x1_0) - 0.5) < 1e-10
    assert abs(f(pair.x2_0) - 0.5) < 1e-10


def test_seed_mode_warm_cold():
    # direction +1 walks up in a (hot start), -1 walks down (cold start)
    g, f = fixtures.gaussian_mode()
    pair = cp.equidistant_seed(g, f, MODE_LEVEL, [1.0], [-1.0])
    assert_allclose(pair.x1_0[0], 2.0, rtol=1e-9)
    assert_allclose(pair.x2_0[0], T_COLD, rtol=1e-8)


def test_seed_degenerate_level():
    g, f = fixtures.euclidean_quadratic(2)
    with pytest.raises(ValueError):
        cp.equidistant_seed(g, f, 0.0, [1.0, 0.0], [0.0, 1.0])


def test_seed_zero_direction():
    g, f = fixtures.gaussian_mode()
    with pytest.raises(ValueError, match="nonzero"):
        cp.equidistant_seed(g, f, MODE_LEVEL, [1.0], [0.0])


def test_seed_tiny_direction_seeds_like_its_unit_direction():
    # the norm of these directions underflows to 0; they seed as the unit
    # vectors they point along, to the bit
    g, f = fixtures.gaussian_mode()
    tiny = cp.equidistant_seed(g, f, MODE_LEVEL, [1e-300], [-1e-200])
    unit = cp.equidistant_seed(g, f, MODE_LEVEL, [1.0], [-1.0])
    assert np.array_equal(tiny.x1_0, unit.x1_0)
    assert np.array_equal(tiny.x2_0, unit.x2_0)
    g, f = fixtures.euclidean_quadratic(2)
    tiny = cp.equidistant_seed(g, f, 0.5, [1e-300, 0.0], [0.0, -5e-324])
    unit = cp.equidistant_seed(g, f, 0.5, [1.0, 0.0], [0.0, -1.0])
    assert np.array_equal(tiny.x1_0, unit.x1_0)
    assert np.array_equal(tiny.x2_0, unit.x2_0)


def test_seed_huge_direction_seeds_like_its_unit_direction():
    # the norm of [1e300, 1e300] overflows to inf; scaled by max|d| first,
    # it seeds as [1, 1] to the bit
    g, f = fixtures.euclidean_quadratic(2)
    huge = cp.equidistant_seed(g, f, 0.5, [1e300, 1e300], [-1e300, 0.0])
    unit = cp.equidistant_seed(g, f, 0.5, [1.0, 1.0], [-1.0, 0.0])
    assert huge.x1_0.tobytes() == unit.x1_0.tobytes()
    assert huge.x2_0.tobytes() == unit.x2_0.tobytes()


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_seed_rejects_a_non_finite_direction(bad):
    g, f = fixtures.euclidean_quadratic(2)
    with pytest.raises(ValueError, match="finite"):
        cp.equidistant_seed(g, f, 0.5, [bad, 1.0], [-1.0, 0.0])


def test_seed_level_unreachable():
    # bounded potential: level 2 is never crossed
    g, _ = fixtures.euclidean_quadratic(1)
    f = mf.ScalarPotential(lambda x: 1.0 - np.exp(-x[..., 0] ** 2),
                           gradient=lambda x: 2.0 * x * np.exp(-x ** 2),
                           minimum_q=np.zeros(1))
    with pytest.raises(LevelUnreachableError):
        cp.equidistant_seed(g, f, 2.0, [1.0], [-1.0])


def test_seed_domain_exit():
    # the chart ends before the level is crossed
    chart = mf.Chart(1, domain_check=lambda x: abs(x[0]) < 0.5)
    _, f = fixtures.euclidean_quadratic(1)
    g = mf.MetricField(chart, lambda x: np.ones(x.shape[:-1] + (1, 1)),
                       partials=lambda x: np.zeros(x.shape[:-1] + (1, 1, 1)))
    with pytest.raises(DomainExitError):
        cp.equidistant_seed(g, f, 0.5, [1.0], [-1.0])


@pytest.mark.parametrize("level", [0.7, 1.0, 2.0, 3.0])
def test_seed_near_the_chart_edge_stays_in_the_chart(level):
    # along -1 the ray's doubling overshoots a = 0 for every level above
    # ~0.663; the gaussian-mode potential raises outside its chart, so
    # seeding must halve back instead of calling it there
    g, f = fixtures.gaussian_mode()
    pair = cp.equidistant_seed(g, f, level, [1.0], [-1.0])
    for x in (pair.x1_0, pair.x2_0):
        assert g.chart.contains(x)
        assert abs(f(x) - level) < 1e-10
    assert pair.x2_0[0] < 1.0 < pair.x1_0[0]


def test_seed_requires_minimum():
    g, _ = fixtures.euclidean_quadratic(1)
    f = mf.ScalarPotential(lambda x: x[..., 0], gradient=np.ones_like)
    with pytest.raises(MissingMinimumError):
        cp.equidistant_seed(g, f, 1.0, [1.0], [-1.0])


def test_seed_solve_that_does_not_converge_is_typed(monkeypatch):
    # a Brent solve cut to one iteration ends off the level; that is a
    # LevelUnreachableError, not scipy's RuntimeError
    def one_step(*args, **kwargs):
        return brentq(*args, **{**kwargs, "maxiter": 1})

    monkeypatch.setattr(cp, "brentq", one_step)
    g, f = fixtures.gaussian_mode()
    with pytest.raises(LevelUnreachableError):
        cp.equidistant_seed(g, f, MODE_LEVEL, [1.0], [-1.0])


def test_seed_potential_calls_are_bounded(monkeypatch):
    # the ray walk plus one Brent solve per ray: 43 calls of f for the
    # default gaussian-mode pair (bisection with a Newton check took 191)
    calls = []
    value = mf.ScalarPotential.__call__

    def counted(self, x):
        calls.append(1)
        return value(self, x)

    monkeypatch.setattr(mf.ScalarPotential, "__call__", counted)
    entry = fixtures.COMPARE_MODELS["gaussian-mode"]
    g, f = entry.build()
    cp.equidistant_seed(g, f, entry.level, entry.direction1, entry.direction2)
    assert len(calls) <= 50


_DIRECTION = hst.floats(-10.0, 10.0).filter(lambda v: abs(v) > 1e-3)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(model=hst.sampled_from(sorted(fixtures.COMPARE_MODELS)),
       level=hst.floats(1e-6, 50.0),
       components=hst.lists(_DIRECTION, min_size=4, max_size=4))
def test_seeds_lie_on_the_level_in_the_chart(model, level, components):
    # a seed is on the level inside the chart, or seeding says why not
    g, f = fixtures.COMPARE_MODELS[model].build()
    dim = g.chart.dim
    d1, d2 = np.array(components[:dim]), np.array(components[2:2 + dim])
    try:
        pair = cp.equidistant_seed(g, f, level, d1, d2)
    except GeoflowError:
        return
    for x, d in ((pair.x1_0, d1), (pair.x2_0, d2)):
        assert g.chart.contains(x)
        assert abs(f(x) - level) < cp.LEVEL_TOL
        # on the ray from the minimum, on the side it points to
        assert (x - f.minimum_q) @ d > 0.0


def test_pair_validation():
    _, f = fixtures.euclidean_quadratic(2)
    bad = cp.EquidistantPair(np.array([1.0, 0.0]), np.array([0.5, 0.0]), 0.5)
    with pytest.raises(NonEquidistantError):
        bad.validate(f)


def test_pair_below_the_minimum_level_is_refused():
    # pins the rule: the designated minimum's value f(q) = 1 lies above
    # the seeds' level 0.25
    f = mf.ScalarPotential(lambda x: (x * x).sum(axis=-1),
                           gradient=lambda x: 2.0 * np.asarray(x),
                           minimum_q=np.array([1.0, 0.0]))
    pair = cp.EquidistantPair(np.array([0.5, 0.0]), np.array([0.0, 0.5]), 0.25)
    with pytest.raises(NonEquidistantError):
        pair.validate(f)


# ---------------------------------------------------------------- compare


def test_compare_symmetric_is_inconclusive():
    g, f = fixtures.euclidean_quadratic(2)
    pair = cp.equidistant_seed(g, f, 0.5, [1.0, 0.0], [0.0, 1.0])
    report = cp.compare(g, f, pair, 8.0)
    assert report.verdict == cp.INCONCLUSIVE
    assert any("zero-gap" in n for n in report.notes)
    assert np.abs(report.delta_f).max() < 1e-9


def test_compare_flat_bowl_ties_read_zero_gap_in_any_direction():
    # random directions leave speed gaps of roundoff, far below TIE_RTOL
    # of the speeds: ties, not crossings, so no coincidence is searched
    g, f = fixtures.euclidean_quadratic(2)
    rng = np.random.default_rng(0)
    for d1, d2 in rng.standard_normal((3, 2, 2)):
        report = cp.compare(g, f, cp.equidistant_seed(g, f, 0.5, d1, d2), 12.0)
        assert report.verdict == cp.INCONCLUSIVE
        assert report.coincidence_times == []
        assert report.notes == [cp.TIE_NOTE]


@settings(max_examples=25, deadline=None, derandomize=True)
@given(level=hst.floats(1e-6, 1e3),
       components=hst.lists(_DIRECTION, min_size=4, max_size=4))
def test_flat_bowl_races_tie_in_any_direction_at_any_level(level, components):
    def refused(*args):
        raise AssertionError("a tied race took a cubic")

    g, f = fixtures.euclidean_quadratic(2)
    pair = cp.equidistant_seed(g, f, level, components[:2], components[2:])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cp, "nonmetricity_cubic", refused)
        report = cp.compare(g, f, pair, 12.0)
    assert report.coincidence_times == [] and report.cubic_gaps == []
    assert report.notes == [cp.TIE_NOTE]
    assert report.verdict == cp.INCONCLUSIVE


def _races_found(races):
    return [(r.coincidence_times, r.cubic_gaps) for r in races]


def _chain_and_registry_races():
    for n in range(3, 13):
        for t_plus in np.geomspace(1.1, 8.0, 6):
            res = gc.universal_asymmetry_experiment(gc.ChainSpec(n), t_plus)
            yield from [res.full, *res.modes]
    for model in fixtures.COMPARE_MODELS.values():
        g, f = model.build()
        pair = cp.equidistant_seed(g, f, model.level, model.direction1,
                                   model.direction2)
        yield cp.compare(g, f, pair, 10.0)


def test_tie_bands_drop_no_crossing(monkeypatch):
    # the chain's and the registry's crossings are found bit for bit as
    # with no tie band at all; every race but the flat bowl's has one
    banded = _races_found(_chain_and_registry_races())
    monkeypatch.setattr(cp, "TIE_RTOL", 0.0)
    assert banded == _races_found(_chain_and_registry_races())
    assert [len(times) > 0 for times, _ in banded].count(False) == 1


def test_compare_identical_seeds():
    g, f = fixtures.euclidean_quadratic(2)
    pair = cp.EquidistantPair(np.array([1.0, 0.0]), np.array([1.0, 0.0]), 0.5)
    report = cp.compare(g, f, pair, 5.0)
    assert np.all(report.delta_f == 0.0)
    assert report.verdict == cp.INCONCLUSIVE


class _Spiral:
    """x(t) = e^{-t} R(w t) x0 in the plane: |x| decays as on the flat
    bowl's gradient curve (w = 0), at sqrt(1 + w^2) times its speed."""

    def __init__(self, x0, w):
        self.x0, self.w, self.span = np.asarray(x0), w, (0.0, 8.0)

    def position_velocity(self, t):
        t = np.asarray(t)[..., None]
        c, s = np.cos(self.w * t), np.sin(self.w * t)
        x, y = self.x0
        p = np.exp(-t) * np.concatenate([c * x - s * y, s * x + c * y], -1)
        turn = np.concatenate([-p[..., 1:], p[..., :1]], -1)
        return p, -p + self.w * turn


def test_no_coincidence_and_no_delta_f_reads_zero_gap():
    # the spiral keeps the straight curve's f but never its speed: no
    # coincidence, and the zero-gap rung rests on delta_f alone
    g, f = fixtures.euclidean_quadratic(2)
    pair = cp.EquidistantPair(np.array([1.0, 0.0]), np.array([0.0, 1.0]), 0.5)
    report = cp.compare(g, f, pair, 8.0,
                        flow=lambda x1, x2: (_Spiral(x1, 0.0),
                                             _Spiral(x2, 1.0)))
    assert report.coincidence_times == []
    assert np.abs(report.delta_f).max() <= cp.DELTA_TOL
    assert report.verdict == cp.INCONCLUSIVE
    assert [n.split(":")[0] for n in report.notes] == ["no-coincidence",
                                                        "zero-gap"]
    assert "delta_f vanishes" in report.notes[1]


def test_cubic_gaps_of_both_signs_are_inconclusive(monkeypatch):
    # near its minimum the mode's speeds cross many times on integration
    # noise, ~1e-5 relative, while delta_f is roundoff; curve 2's cubic
    # alternates in sign over those crossings and curve 1's is zero:
    # neither one-sided rung holds, and no note applies
    sides = iter([0.0, 1.0])

    def cubic(g, lam, traj, at):
        return next(sides) * (-1.0) ** np.arange(at.shape[-1]) + 0.0 * at

    monkeypatch.setattr(cp, "nonmetricity_cubic", cubic)
    g, f = fixtures.gaussian_mode()
    pair = cp.equidistant_seed(g, f, 1e-10, [-1.0], [1.0])
    report = cp.compare(g, f, pair, 10.0)
    assert len(report.cubic_gaps) > 1
    assert min(report.cubic_gaps) < 0.0 < max(report.cubic_gaps)
    assert np.abs(report.delta_f).max() <= cp.DELTA_TOL
    assert report.verdict == cp.INCONCLUSIVE
    assert report.notes == []


@pytest.mark.parametrize("model", ["flat-bowl", "chain"])
def test_pair_on_the_minimum_level_is_a_no_race(model, monkeypatch):
    if model == "flat-bowl":    # integrated
        g, _ = fixtures.euclidean_quadratic()
        f = fixtures.distance_squared_potential(g, np.zeros(2))
        flow = None
    else:                       # closed form
        sp = gc.spectrum(gc.ChainSpec(4))
        g, f = gc.chain_manifold(sp)
        flow = gc.chain_flow(sp)

    def refused(*args):
        raise AssertionError("a no-race ran the root search or a cubic")

    monkeypatch.setattr(cp, "bracketed_roots", refused)
    monkeypatch.setattr(cp, "nonmetricity_cubic", refused)
    q = f.minimum_q
    report = cp.compare(g, f, cp.EquidistantPair(q, q, f(q)), 50.0,
                        flow=flow)
    assert report.verdict == cp.INCONCLUSIVE
    assert report.traj1.span == report.traj2.span == (0.0, 0.0)
    assert report.coincidence_times == [] and report.cubic_gaps == []
    assert [n.split(":")[0] for n in report.notes] == ["no-race"]


def test_a_batch_needs_one_curve_per_pair():
    g, f = fixtures.euclidean_quadratic(2)
    x = np.array([[1.0, 0.0], [0.0, 1.0]])
    pairs = cp.EquidistantPair(x, x[::-1], np.full(2, f(x[0])))
    with pytest.raises(ValueError, match="one curve"):
        cp.compare_batch(g, f, pairs,
                         lambda x1, x2: (mf.integrate_flow(g, f, x1[0], 1.0),
                                         mf.integrate_flow(g, f, x2[0], 1.0)))


def test_compare_mode_warming_wins():
    # cold (warming) start as curve 1, hot (cooling) start as curve 2
    g, f, pair = mode_pair()
    swapped = cp.EquidistantPair(pair.x2_0, pair.x1_0, pair.level)
    report = cp.compare(g, f, swapped, 8.0)
    assert report.verdict == cp.CURVE1_FASTER
    assert report.coincidence_times
    assert all(gp > 0.0 for gp in report.cubic_gaps)
    assert report.delta_f.min() >= -1e-9
    assert report.delta_f.max() > 1e-3


def test_hessian_exp_race_matches_analytic_partials():
    # the registry model's metric e^theta has no partials closure, so its
    # cubic uses finite differences of the metric; the race whose metric
    # carries the analytic partials e^theta runs the same curves
    entry = fixtures.COMPARE_MODELS["hessian-exp"]
    g, f = entry.build()
    exact = mf.MetricField(g.chart, g,
                           partials=lambda x: np.exp(x)[..., None, None])
    pair = cp.equidistant_seed(g, f, entry.level, entry.direction1,
                               entry.direction2)
    fd, ref = (cp.compare(m, f, pair, 10.0) for m in (g, exact))
    assert fd.verdict == ref.verdict == cp.CURVE1_FASTER
    assert len(ref.cubic_gaps) == 1
    assert_allclose(fd.cubic_gaps, ref.cubic_gaps, rtol=1e-12, atol=0.0)


def test_compare_orientation_flips():
    g, f, pair = mode_pair()
    report = cp.compare(g, f, pair, 8.0)
    assert report.verdict == cp.CURVE2_FASTER
    assert all(gp < 0.0 for gp in report.cubic_gaps)


def test_compare_endpoint_pinning():
    g, f, pair = mode_pair()
    report = cp.compare(g, f, pair, 12.0, tol=1e-10)
    assert abs(report.delta_f[0]) < 1e-9
    assert report.traj1.converged and report.traj2.converged
    assert abs(report.delta_f[-1]) < 1e-9


def test_compare_coincidence_characterization():
    # at t*: relaxation rates agree, and delta_f curves away from the gap
    g, f, pair = mode_pair()
    swapped = cp.EquidistantPair(pair.x2_0, pair.x1_0, pair.level)
    report = cp.compare(g, f, swapped, 8.0)
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
        cp.compare(g, f, pair, 8.0)
    _, f_ok = fixtures.euclidean_quadratic(2)
    with pytest.raises(ClosureShapeError):
        cp.compare(g, f_ok, pair, 8.0)


def test_compare_verdict_stable_under_tol():
    g, f, pair = mode_pair()
    swapped = cp.EquidistantPair(pair.x2_0, pair.x1_0, pair.level)
    a = cp.compare(g, f, swapped, 8.0, tol=1e-10)
    b = cp.compare(g, f, swapped, 8.0, tol=5e-11)
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


def _one_solve_per_curve(g, f, t_end):
    """compare's default flow, but each curve from a solve of its own.

    Two step sequences make the flat bowl's speeds differ by roundoff
    at ~224 brackets; one joint solve shares its steps and finds fewer.
    """
    def flow(*seeds):
        return tuple(mf.integrate_flow(
            g, f, x0, t_end,
            stop_grad_norm=cp.STOP_RTOL * np.sqrt(mf.grad_norm_sq(g, f, x0)))
            for x0 in seeds)
    return flow


def _smooth_reports():
    g, f, pair = mode_pair()
    yield "gaussian-mode", g, cp.compare(g, f, pair, 8.0)
    sp = gc.spectrum(gc.ChainSpec(6))
    g, f = gc.chain_manifold(sp)
    t_minus = gc.equidistant_temperatures(3.0)
    lo, hi = t_minus * sp.a_star, 3.0 * sp.a_star
    level = 0.5 * (f(lo) + f(hi))
    yield "chain", g, cp.compare(
        g, f, cp.EquidistantPair(lo, hi, level), flow=gc.chain_flow(sp))


def test_the_cubic_gap_does_not_depend_on_lam():
    # the straightening connections' cubics differ by 2 lam |xd|^2_g along
    # a curve, and the speeds agree at a coincidence, so the gap that
    # decides the race is the same for every lam: the race takes lam = 0
    def reports():
        for name in ("gaussian-mode", "hessian-exp"):
            entry = fixtures.COMPARE_MODELS[name]
            g, f = entry.build()
            pair = cp.equidistant_seed(g, f, entry.level, entry.direction1,
                                       entry.direction2)
            yield name, g, cp.compare(g, f, pair, 10.0)
        yield from ((name, g, rep) for name, g, rep in _smooth_reports()
                    if name == "chain")

    for name, g, rep in reports():
        assert rep.verdict == cp.CURVE1_FASTER and rep.cubic_gaps, name
        for t, gap in zip(rep.coincidence_times, rep.cubic_gaps):
            x, v = rep.traj1.position_velocity(t)
            c0 = st.nonmetricity_cubic(g, 0.0, rep.traj1, t)
            for lam in (1.0, 1e3):
                c1, c2 = (st.nonmetricity_cubic(g, lam, traj, t)
                          for traj in (rep.traj1, rep.traj2))
                assert_allclose(c2 - c1, gap, rtol=1e-9, atol=0.0,
                                err_msg=name)
                assert_allclose(c1 - c0, 2.0 * lam * g.inner(x, v, v),
                                rtol=1e-9, err_msg=name)


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
        got = cp.bracketed_roots(lambda t, _: fn(t), lo, hi, f_lo, f_hi)
        want = [brentq(fn, a, b, xtol=cp.ROOT_XTOL) for a, b in zip(lo, hi)]
        assert_allclose(got, want, rtol=0.0, atol=1e-12, err_msg=name)


def test_bracketed_roots_on_roundoff_brackets():
    # on the flat bowl the speed difference is roundoff: brentq and the
    # batched search stop at different roundoff sign changes of one
    # bracket, and both roots are zeros of fn to within a few ulp
    g, f, pair = _flat_bowl()
    rep = cp.compare(g, f, pair, 12.0,
                     flow=_one_solve_per_curve(g, f, 12.0))
    fn, lo, hi, f_lo, f_hi = _speed_brackets(g, rep)
    assert lo.size > 200
    got = cp.bracketed_roots(lambda t, _: fn(t), lo, hi, f_lo, f_hi)
    assert np.all((lo < got) & (got < hi))
    speed = cp._speed(g, rep.traj1, got)
    assert np.all(np.abs(fn(got)) <= 4.0 * np.finfo(float).eps * speed)


def test_bracketed_roots_raise_when_unfinished(monkeypatch):
    monkeypatch.setattr(cp, "_ROOT_MAXITER", 2)
    monkeypatch.setattr(cp, "_BISECT_MAXITER", 2)
    with pytest.raises(NonConvergenceError):
        cp.bracketed_roots(lambda t, _: np.sin(t), [3.0], [3.3],
                           [np.sin(3.0)], [np.sin(3.3)])


def test_compare_metric_inverse_calls_are_bounded(monkeypatch):
    # deterministic work counters on the flat bowl through the dense
    # route (the package bowl is diagonal and inverts nothing): two
    # checked inverse-metric calls per solve, one on the seed and one for
    # the sample velocities, since the stages invert the metric unchecked;
    # and a compare on finished curves that makes a fixed number of
    # calls, 30 at 224 roots
    calls = []
    solvers = []
    inverse = mf.metric_inverse

    def counted(*args):
        calls.append(1)
        return inverse(*args)

    class Recorded(scipy.integrate.RK45):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            solvers.append(self)

    monkeypatch.setattr(mf, "metric_inverse", counted)
    monkeypatch.setattr(scipy.integrate, "RK45", Recorded)
    g, f, pair = _flat_bowl()
    g = mf.MetricField(g.chart, g, partials=g.partials)
    trajs = {}
    for x0 in (pair.x1_0, pair.x2_0):
        # compare's own stop: STOP_RTOL of the seed's speed
        stop = cp.STOP_RTOL * np.sqrt(mf.grad_norm_sq(g, f, x0))
        calls.clear()
        trajs[id(x0)] = mf.integrate_flow(g, f, x0, 12.0,
                                          stop_grad_norm=stop)
        assert len(calls) == 2 and solvers[-1].nfev > 100
    calls.clear()
    rep = cp.compare(g, f, pair, 12.0,
                     flow=lambda x1, x2: (trajs[id(x1)], trajs[id(x2)]))
    assert len(rep.coincidence_times) > 200
    # one call per velocity query: the two sample grids, two per round
    # of the root search (all brackets at once, so the count does not
    # grow with the roots), and velocity plus acceleration per cubic
    assert len(calls) <= 30


def test_diagonal_models_make_no_svd_calls(monkeypatch):
    # deterministic counters: a diagonal metric inverts elementwise, so
    # neither the flat bowl's flows and compare nor a chain race reaches
    # LAPACK's SVD; and the cubic is the speed identity, so a chain race,
    # whose closed-form curves need no gradient, inverts no metric and
    # forms no Christoffel symbols at all; its cubic contracts the chain's
    # diagonal partials d_l g_ii, never the dense (n, n, n) tensor
    calls = {}

    def count(module, name):
        inner = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(np.linalg, "svd")
    g, f, pair = _flat_bowl()
    rep = cp.compare(g, f, pair, 12.0,
                     flow=_one_solve_per_curve(g, f, 12.0))
    assert len(rep.coincidence_times) > 200
    assert "svd" not in calls
    for name in ("_inverse", "metric_inverse", "christoffel_levi_civita",
                 "covariant_acceleration"):
        count(mf, name)
    count(st, "_inverse")
    count(mf.MetricField, "partials")
    res = gc.universal_asymmetry_experiment(gc.ChainSpec(12), 2.0)
    assert res.full.verdict == cp.CURVE1_FASTER and len(res.modes) == 11
    assert calls == {}


def test_large_chain_race_builds_no_dense_partials(monkeypatch):
    # at N = 1024 the dense metric partials would take 7.98 GiB
    def dense(*args):
        raise AssertionError("the race built the dense metric partials")

    monkeypatch.setattr(mf.MetricField, "partials", dense)
    res = gc.universal_asymmetry_experiment(gc.ChainSpec(1024), 1.1,
                                            per_mode=False)
    assert res.full.verdict == cp.CURVE1_FASTER


# ---------------------------------------------------------------- symmetry
# verify's distance-squared-symmetry criterion, max |delta_f| < 1e-7 c,
# read off compare's own report


def _max_delta_over_level(rep):
    return np.abs(rep.delta_f).max() / rep.level


def test_symmetry_check_distance_squared():
    g, f = fixtures.euclidean_quadratic(2)
    pair = cp.equidistant_seed(g, f, 0.5, [1.0, 0.0], [0.0, 1.0])
    rep = cp.compare(g, f, pair, 8.0)
    assert _max_delta_over_level(rep) < 1e-7
    assert rep.verdict == cp.INCONCLUSIVE
    assert rep.notes == [cp.TIE_NOTE]


def test_symmetry_check_mode_fails():
    g, f, pair = mode_pair()
    rep = cp.compare(g, f, pair, 8.0)
    assert _max_delta_over_level(rep) > 1e-7
    assert rep.verdict == cp.CURVE2_FASTER
    assert rep.notes == []


def test_symmetry_check_equal_seeds():
    g, f = fixtures.euclidean_quadratic(2)
    pair = cp.EquidistantPair(np.array([1.0, 0.0]), np.array([1.0, 0.0]), 0.5)
    rep = cp.compare(g, f, pair, 5.0)
    assert not rep.delta_f.any()
    assert rep.verdict == cp.INCONCLUSIVE
    assert rep.notes == [cp.TIE_NOTE]


# ---------------------------------------------------------- the joint solve


def _joint_and_closed_race(name):
    """g, f, the integrated report, the closed-form flow and t_end."""
    if name == "gaussian-mode":
        g, f, pair = mode_pair()
        sp = gc.ModeSpectrum(lambdas=np.array([2.0]))
        swapped = cp.EquidistantPair(pair.x2_0, pair.x1_0, pair.level)
        return g, f, cp.compare(g, f, swapped, 8.0), gc.chain_flow(sp), 8.0
    res = gc.universal_asymmetry_experiment(gc.ChainSpec(6), 3.0,
                                            per_mode=False)
    g, f = gc.chain_manifold(res.spect)
    t_end = 12.0 / res.spect.lambdas[0]
    return (g, f, cp.compare(g, f, res.pair, t_end), gc.chain_flow(res.spect),
            t_end)


@pytest.mark.parametrize("name", ["gaussian-mode", "chain"])
def test_each_curve_of_the_joint_solve_keeps_its_closed_form(name):
    # within route-agreement's 1e-8 of the exact relaxation, curve by
    # curve, and flagged as the same curve integrated alone would be
    g, f, rep, closed_flow, t_end = _joint_and_closed_race(name)
    assert rep.verdict == cp.CURVE1_FASTER
    assert rep.traj1.nfev == rep.traj2.nfev
    exact = closed_flow(rep.traj1.xs[0], rep.traj2.xs[0])
    for traj, closed in zip((rep.traj1, rep.traj2), exact):
        ts = np.linspace(0.0, min(traj.span[1], closed.span[1]), 257)
        a = closed.position(ts)
        assert np.max(np.abs(traj.position(ts) - a) / a) < 1e-8, name
        x0 = traj.xs[0]
        alone = mf.integrate_flow(
            g, f, x0, t_end,
            stop_grad_norm=cp.STOP_RTOL * np.sqrt(mf.grad_norm_sq(g, f, x0)))
        assert (traj.converged, traj.exited_domain) == (
            alone.converged, alone.exited_domain), name


def test_flat_bowl_compare_is_one_solve():
    # both curves come from one RK45 system: one step sequence, and the
    # work of a single curve (1396 evaluations as two solves)
    g, f, pair = _flat_bowl()
    rep = cp.compare(g, f, pair, 12.0)
    assert np.shares_memory(rep.traj1.ts, rep.traj2.ts)
    assert rep.traj1.steps == rep.traj2.steps
    assert rep.traj1.nfev == rep.traj2.nfev <= 700
    assert rep.verdict == cp.INCONCLUSIVE
    assert _max_delta_over_level(rep) <= 1e-7


def test_flat_bowl_solve_checks_its_closures_once(monkeypatch):
    # deterministic work counters: the solve takes the same 116 steps and
    # 698 evaluations as when every stage checked its closures, while the
    # shape-checking wrappers run once on the seeds and once on the
    # sample velocities, never per stage or per accepted step
    calls = {}

    def count(owner, name):
        inner = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    g, f, pair = _flat_bowl()
    seeds = np.stack([pair.x1_0, pair.x2_0])
    stop = cp.STOP_RTOL * np.sqrt(mf.grad_norm_sq(g, f, seeds))
    count(mf.MetricField, "diagonal")
    count(mf.ScalarPotential, "gradient_covector")
    count(mf, "_check_shape")
    traj = mf.integrate_flow(g, f, seeds, 12.0, stop_grad_norm=stop)
    assert (traj.steps, traj.nfev) == (116, 698)
    assert calls == {"diagonal": 2, "gradient_covector": 2, "_check_shape": 4}


def _log_ray_chain_pairs(count):
    """ChainSpec(9) and its first ``count`` seeded pairs on level 0.5.

    Each seed is a* e^{s d} along a direction d ~ N(0, 1) in the log
    variances, two per pair, drawn from default_rng(0), with s solved for
    F = 0.5.
    """
    sp = gc.spectrum(gc.ChainSpec(9))
    g, f = gc.chain_manifold(sp)
    rng = np.random.default_rng(0)

    def seed(d):
        s = brentq(lambda s: f(sp.a_star * np.exp(s * d)) - 0.5, 0.0, 50.0,
                   xtol=1e-300, rtol=8.9e-16)
        return sp.a_star * np.exp(s * d)

    pairs = [cp.EquidistantPair(*map(seed, rng.standard_normal(
        (2, sp.n_modes))), 0.5) for _ in range(count)]
    return sp, g, f, pairs


@pytest.mark.parametrize("tol", [1e-4, 1e-5, 1e-6])
def test_coarse_tolerances_end_in_a_verdict(tol):
    # a coarse solve does not resolve a curve's speed down to STOP_RTOL of
    # its start; stopped there, the non-convergence check fired on 8, 3
    # and 1 of these 12 chain races at these tols.  Stopped at 10 tol of
    # the start speed, every race ends in a verdict, and every decided
    # verdict is the closed-form curves' one
    sp, g, f, pairs = _log_ray_chain_pairs(12)
    t_end = 12.0 / sp.lambdas.min()
    closed = gc.chain_flow(sp)
    decided = 0
    for pair in pairs:
        got = cp.compare(g, f, pair, t_end, tol=tol).verdict
        if got != cp.INCONCLUSIVE:
            decided += 1
            assert got == cp.compare(g, f, pair, flow=closed).verdict
    assert decided >= 4


def test_samples_outside_the_chart_raise_domain_exit(monkeypatch):
    # at tol 0.5 the interpolant between two in-chart steps dips below
    # a = 0; the samples are checked before f sees them
    g, f, pair = mode_pair()
    value = f._value

    def guarded(a):
        assert np.all(a > 0.0), "f called outside the chart"
        return value(a)

    monkeypatch.setattr(f, "_value", guarded)
    with pytest.raises(DomainExitError, match="dense output"):
        cp.compare(g, f, pair, 8.0, tol=0.5)
