"""Mode spectrum, relaxation closed forms, and the warming/cooling experiment."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from numpy.testing import assert_allclose

from geoflow import comparison as cp
from geoflow import gaussian_chain as gc
from geoflow import straightening as st
from geoflow.comparison import (
    CURVE1_FASTER,
    INCONCLUSIVE,
    STOP_RTOL,
    EquidistantPair,
    compare,
    compare_batch,
)
from geoflow.errors import NonConvergenceError, SingularCurvatureError
from geoflow.manifold import grad_norm_sq, integrate_flow

# frozen oracles.  Rates for a two-bead chain come from the 2x2 path
# Laplacian (eigenvalues 0 and 2); three beads give 1 and 3.
RATES_TWO_BEADS = [2.0]
RATES_THREE_BEADS = [1.0, 3.0]

# F for one mode started at twice its equilibrium width:
# lambda * (1/T - ln(1/T) - 1) with lambda = 2, T = 2
F_MODE_WARM = 2.0 * np.log(2.0) - 1.0

# minus the trajectory cubic at t = 0 for that same start; hand value
# from the closed form d^2F/dt^2 = 4 lambda^2 [ (2r - 1) r - (r - 1) r ] ...
# frozen numerically and cross-checked against the connection route below
CUBIC_MODE_WARM = 8.0

# cold partners T_minus solving u - ln u = 1/T_plus + ln T_plus, u = 1/T_minus;
# frozen from an 80-step bisection plus Newton polish at 1e-12
T_MINUS_TABLE = {
    1.1: 0.9117626758,
    1.5: 0.6996161491,
    2.0: 0.5693362741,
    4.0: 0.3865984888,
    8.0: 0.2907080383,
}


def single_mode():
    return gc.spectrum(gc.ChainSpec(2))


# ---------------------------------------------------------------- spectrum


def test_two_bead_spectrum():
    sp = single_mode()
    assert_allclose(sp.lambdas, RATES_TWO_BEADS, atol=1e-12)
    assert_allclose(sp.a_star, [1.0], atol=1e-12)


def test_three_bead_spectrum():
    sp = gc.spectrum(gc.ChainSpec(3))
    assert_allclose(sp.lambdas, RATES_THREE_BEADS, atol=1e-12)
    assert_allclose(sp.a_star, [2.0, 2.0 / 3.0], atol=1e-12)


def _chain_laplacian(n_beads):
    """Path-graph Laplacian of the bead connectivity (free ends)."""
    lap = 2.0 * np.eye(n_beads)
    lap[0, 0] = lap[-1, -1] = 1.0
    idx = np.arange(n_beads - 1)
    lap[idx, idx + 1] = -1.0
    lap[idx + 1, idx] = -1.0
    return lap


@pytest.mark.parametrize("n_beads", [2, 3, 5, 12, 33, 256])
def test_spectrum_matches_sine_rates(n_beads):
    # the Rouse closed form against the Laplacian's own eigenvalues
    sp = gc.spectrum(gc.ChainSpec(n_beads))
    evals = np.linalg.eigvalsh(_chain_laplacian(n_beads))
    assert_allclose(sp.lambdas, evals[1:], atol=1e-12)
    assert sp.lambdas.shape == (n_beads - 1,)
    assert np.all(np.diff(sp.lambdas) > 0)


def test_chain_spec_validation():
    with pytest.raises(ValueError):
        gc.ChainSpec(1)


@pytest.mark.parametrize("rates,message", [
    ([], "nonempty"), ([[1.0, 2.0]], "nonempty"),
    ([0.0, 1.0], "positive"), ([2.0, 1.0], "strictly increasing"),
    ([1.0, 1.0], "strictly increasing")])
def test_mode_spectrum_validation(rates, message):
    with pytest.raises(ValueError, match=message):
        gc.ModeSpectrum(np.array(rates))
    with pytest.raises(ValueError):
        gc.ChainSpec(4, t_tilde=0.0)


# ------------------------------------------------------- analytic variance


def test_variance_initial_and_limits():
    sp = gc.spectrum(gc.ChainSpec(5, t_tilde=3.0))
    for k in range(sp.lambdas.size):
        assert_allclose(gc.analytic_variance(gc.ChainSpec(5, t_tilde=3.0), sp, k, 0.0),
                        3.0 * sp.a_star[k], rtol=1e-12)
        assert_allclose(gc.analytic_variance(gc.ChainSpec(5, t_tilde=3.0), sp, k, 50.0),
                        sp.a_star[k], rtol=1e-8)


def test_variance_constant_at_equilibrium_start():
    spec = gc.ChainSpec(4, t_tilde=1.0)
    sp = gc.spectrum(spec)
    for t in [0.0, 0.3, 2.0, 9.0]:
        assert_allclose(gc.analytic_variance(spec, sp, 1, t), sp.a_star[1],
                        rtol=1e-13)


def test_variance_stack_equals_pointwise_calls():
    spec = gc.ChainSpec(9, t_tilde=3.5)
    sp = gc.spectrum(spec)
    k = np.arange(sp.n_modes)
    ts = np.linspace(0.0, 4.0 / sp.lambdas[0], 13)
    stack = gc.analytic_variance(spec, sp, k, ts[:, None])
    assert stack.shape == (ts.size, sp.n_modes)
    pointwise = [[gc.analytic_variance(spec, sp, j, t) for j in k]
                 for t in ts]
    assert np.array_equal(stack, pointwise)
    assert type(gc.analytic_variance(spec, sp, 2, 0.5)) is float


def test_variance_solves_the_mode_ode():
    # finite-difference d a/dt against the right-hand side
    spec = gc.ChainSpec(3, t_tilde=2.5)
    sp = gc.spectrum(spec)
    h = 1e-6
    for k in range(2):
        for t in [0.1, 0.7, 1.9]:
            da = (gc.analytic_variance(spec, sp, k, t + h)
                  - gc.analytic_variance(spec, sp, k, t - h)) / (2.0 * h)
            a = np.array([gc.analytic_variance(spec, sp, j, t) for j in range(2)])
            rhs = gc.ode_rhs(sp, a)
            assert_allclose(da, rhs[k], rtol=1e-7, atol=1e-9)


def test_ode_rhs_frozen_value():
    sp = single_mode()
    assert_allclose(gc.ode_rhs(sp, np.array([2.0])), [-4.0], atol=1e-14)


def test_ode_matches_integrated_flow():
    # the gradient flow of F in the Fisher metric must reproduce the
    # analytic per-mode relaxation
    spec = gc.ChainSpec(4)
    sp = gc.spectrum(spec)
    g, f = gc.chain_manifold(sp)
    for t_tilde in [0.25, 0.5, 2.0, 4.0]:
        a0 = t_tilde * sp.a_star
        t_end = 5.0 / sp.lambdas[0]
        traj = integrate_flow(g, f, a0, t_end, tol=1e-10)
        for t in np.linspace(0.0, t_end, 7):
            want = [gc.analytic_variance(gc.ChainSpec(4, t_tilde=t_tilde), sp, k, t)
                    for k in range(sp.lambdas.size)]
            assert_allclose(traj.position(t), want, rtol=1e-8, atol=1e-10)


def test_closed_form_trajectory_solves_the_mode_ode():
    sp = gc.spectrum(gc.ChainSpec(4))
    x0 = np.array([0.3, 2.0, 5.0]) * sp.a_star
    traj = gc.ChainTrajectory(sp, x0)
    assert_allclose(traj.position(0.0), x0, rtol=1e-15)
    for t in [0.0, 0.4, 3.0]:
        v = traj.velocity(t)
        assert_allclose(v, gc.ode_rhs(sp, traj.position(t)),
                        rtol=1e-12, atol=1e-14)
        assert_allclose(traj.acceleration(t), -2.0 * sp.lambdas * v,
                        rtol=1e-15)


def test_closed_form_trajectory_span_ends_at_the_stop_threshold():
    # hot and cold starts alike: at the span's end the Fisher speed has
    # fallen to at most STOP_RTOL of its own start value
    sp = gc.spectrum(gc.ChainSpec(4))
    g, f = gc.chain_manifold(sp)
    for t_tilde in (0.3, 2.0):
        x0 = t_tilde * sp.a_star
        traj = gc.ChainTrajectory(sp, x0)
        t_stop = traj.span[1]
        assert 0.0 < t_stop < 1e3
        assert traj.xs.shape == traj.vs.shape == (2, 3)
        end = grad_norm_sq(g, f, traj.position(t_stop))
        assert np.sqrt(end / grad_norm_sq(g, f, x0)) <= STOP_RTOL
    still = gc.ChainTrajectory(sp, sp.a_star)
    assert still.span == (0.0, 0.0)


@pytest.mark.parametrize("t_tilde", [0.3, 2.0, 8.0])
def test_one_mode_stop_time_is_the_closed_form(t_tilde):
    # one mode's speed, relative to its start, is e x0 / (a* + (x0 - a*) e)
    # <= max(1, x0 / a*) e with e = e^{-2 lambda t}; the span ends where
    # that bound reaches STOP_RTOL, which leaves the speed within a factor
    # min(1, x0 / a*) of STOP_RTOL, for one curve or a batch row alike
    sp = gc.spectrum(gc.ChainSpec(12))
    x0 = t_tilde * sp.a_star
    batch = gc.ChainTrajectory(sp, x0[:, None])
    assert batch.span[1].shape == (11,)
    for k in range(sp.n_modes):
        one = gc._mode_spectrum(sp, k)
        g, f = gc.mode_manifold(sp, k)
        traj = gc.ChainTrajectory(one, x0[k:k + 1])
        t_stop = traj.span[1]
        want = np.log(max(1.0, t_tilde) / STOP_RTOL) / (2.0 * sp.lambdas[k])
        assert t_stop == pytest.approx(want, rel=1e-14)
        ratio = np.sqrt(grad_norm_sq(g, f, traj.position(t_stop))
                        / grad_norm_sq(g, f, x0[k:k + 1]))
        assert (1.0 - 1e-5) * min(1.0, t_tilde) * STOP_RTOL <= ratio
        assert ratio <= STOP_RTOL
        assert batch[k].span == traj.span
        assert batch[k].position(t_stop).tobytes() == \
            traj.position(t_stop).tobytes()
        assert batch.position(batch.span[1])[k].tobytes() == \
            traj.position(t_stop).tobytes()
    still = gc.ChainTrajectory(sp, np.where(np.arange(11) == 4, sp.a_star,
                                            x0)[:, None])
    assert still[4].span == (0.0, 0.0)
    assert (np.delete(still.span[1], 4) == np.delete(batch.span[1], 4)).all()


# ----------------------------------------------------- potential and metric


def test_potential_frozen_value():
    sp = single_mode()
    assert_allclose(gc.potential_F(sp, np.array([2.0])), F_MODE_WARM,
                    rtol=1e-12)


def test_potential_uniform_start_closed_form():
    for n_beads, t_tilde in [(3, 2.0), (6, 0.5), (11, 4.0)]:
        sp = gc.spectrum(gc.ChainSpec(n_beads))
        got = gc.potential_F(sp, t_tilde * sp.a_star)
        want = sp.lambdas.sum() * (1.0 / t_tilde - np.log(1.0 / t_tilde) - 1.0)
        assert_allclose(got, want, rtol=1e-12)


def test_potential_vanishes_at_equilibrium():
    sp = gc.spectrum(gc.ChainSpec(7))
    assert gc.potential_F(sp, sp.a_star) == pytest.approx(0.0, abs=1e-15)


def test_rhs_is_minus_fisher_gradient():
    # ode_rhs must equal -g^{-1} dF/da, blockwise, at random states
    rng = np.random.default_rng(7)
    sp = gc.spectrum(gc.ChainSpec(5))
    g, f = gc.chain_manifold(sp)
    for _ in range(20):
        a = sp.a_star * rng.uniform(0.3, 3.0, size=sp.lambdas.size)
        rhs = gc.ode_rhs(sp, a)
        ginv_grad = np.linalg.solve(g(a), f.gradient_covector(a))
        assert_allclose(rhs, -ginv_grad, rtol=1e-10, atol=1e-12)


# ------------------------------------------------------------ cubic forms


def test_cubic_frozen_value():
    sp = single_mode()
    spec = gc.ChainSpec(2, t_tilde=2.0)
    a0 = gc.analytic_variance(spec, sp, 0, 0.0)
    assert_allclose(gc.cubic_closed_form(sp, np.array([a0]), 0),
                    CUBIC_MODE_WARM, rtol=1e-12)


def test_cubic_matches_trajectory_route():
    # closed form F-double-dot against minus the trajectory-only cubic
    # computed from the integrated flow and the metric connection
    sp = single_mode()
    g, f = gc.mode_manifold(sp, 0)
    for t_tilde in [2.0, 0.5]:
        a0 = np.array([t_tilde * sp.a_star[0]])
        traj = integrate_flow(g, f, a0, 3.0, tol=1e-11)
        for t in [0.0, 0.4, 1.1]:
            a_t = traj.position(t)
            closed = gc.cubic_closed_form(sp, a_t, 0)
            traj_route = st.nonmetricity_cubic(g, 0.0, traj, t)
            assert_allclose(traj_route, -closed, rtol=1e-6, atol=1e-8)


def test_cubic_sign_separates_sides():
    # hotter-than-equilibrium starts decelerate the loss curve less than
    # colder ones at matched F; the cubic at t = 0 reflects that ordering
    sp = single_mode()
    spec_w = gc.ChainSpec(2, t_tilde=2.0)
    t_minus = gc.equidistant_temperatures(2.0)
    a_warm = gc.analytic_variance(spec_w, sp, 0, 0.0)
    a_cold = t_minus * sp.a_star[0]
    c_warm = gc.cubic_closed_form(sp, np.array([a_warm]), 0)
    c_cold = gc.cubic_closed_form(sp, np.array([a_cold]), 0)
    assert c_cold > c_warm > 0.0


def test_cubic_stack_equals_pointwise_calls():
    rng = np.random.default_rng(5)
    sp = gc.spectrum(gc.ChainSpec(6))
    a = sp.a_star * rng.uniform(0.2, 4.0, size=(40, sp.n_modes))
    for k in range(sp.n_modes):
        stack = gc.cubic_closed_form(sp, a, k)
        assert stack.shape == (40,)
        assert np.array_equal(stack, [gc.cubic_closed_form(sp, row, k)
                                      for row in a])
    with pytest.raises(ValueError):
        gc.cubic_closed_form(sp, np.vstack([a, -a[:1]]), 0)


# -------------------------------------------------------------- curvature


def test_curvature_frozen_points():
    sp = single_mode()
    astar = sp.a_star[0]
    assert_allclose(gc.scalar_curvature_mode(sp, 0, 2.0 * astar), -6.0,
                    rtol=1e-12)
    assert gc.scalar_curvature_mode(sp, 0, 5.0 * astar) == pytest.approx(0.0, abs=1e-12)
    assert_allclose(gc.scalar_curvature_mode(sp, 0, 0.2 * astar), -1.5,
                    rtol=1e-12)
    assert_allclose(gc.scalar_curvature_mode(sp, 0, 0.5 * astar), -9.0,
                    rtol=1e-12)


def test_curvature_singular_at_equilibrium():
    sp = single_mode()
    with pytest.raises(SingularCurvatureError):
        gc.scalar_curvature_mode(sp, 0, sp.a_star[0])


def test_curvature_stack_equals_pointwise_calls():
    sp = gc.spectrum(gc.ChainSpec(4))
    ratios = np.array([0.2, 0.5, 0.8, 1.2, 2.0, 3.5, 5.0])
    for k in range(sp.n_modes):
        a = ratios * sp.a_star[k]
        stack = gc.scalar_curvature_mode(sp, k, a)
        assert np.array_equal(stack, [gc.scalar_curvature_mode(sp, k, ai)
                                      for ai in a])
        # one point at equilibrium makes the whole stack singular
        with pytest.raises(SingularCurvatureError):
            gc.scalar_curvature_mode(sp, k, np.append(a, sp.a_star[k]))


def test_curvature_matches_connection_route():
    # numeric curvature of the straightening connection on the (mu, a)
    # plane against the closed form
    sp = single_mode()
    g, f = gc.mode_plane_manifold(sp, 0)
    conn = st.straightening_connection(g, f, 0.0)
    for ratio in [0.2, 0.5, 0.8, 1.2, 2.0, 5.0]:
        a = ratio * sp.a_star[0]
        closed = gc.scalar_curvature_mode(sp, 0, a)
        num = st.scalar_curvature(conn, np.array([0.0, a]))
        assert abs(num - closed) <= 1e-4 * max(1.0, abs(closed))


def test_curvature_scale_invariance():
    # s depends on a/a* only, so modes with different rates agree at
    # matched ratio
    sp = gc.spectrum(gc.ChainSpec(4))
    for ratio in [0.3, 1.7, 4.0]:
        vals = [gc.scalar_curvature_mode(sp, k, ratio * sp.a_star[k])
                for k in range(3)]
        assert np.ptp(vals) < 1e-10 * max(1.0, abs(vals[0]))


# ------------------------------------------------- equidistant temperatures


def test_equidistant_frozen_table():
    for t_plus, t_minus in T_MINUS_TABLE.items():
        assert_allclose(gc.equidistant_temperatures(t_plus), t_minus,
                        atol=1e-10)


def test_equidistant_rejects_non_hot():
    for bad in [1.0, 0.7, 0.0, -2.0]:
        with pytest.raises(ValueError):
            gc.equidistant_temperatures(bad)


@pytest.mark.parametrize("t_plus", [1.0 + 1e-6, 1.1, 8.0, 1e3])
def test_equidistant_residual_within_bound(t_plus):
    u = 1.0 / gc.equidistant_temperatures(t_plus)
    target = 1.0 / t_plus + np.log(t_plus)
    assert abs(u - np.log(u) - target) <= gc.EQUIDISTANT_RTOL * target


def test_equidistant_accurate_just_above_one():
    # T+ = 1 + d pairs with T- = 1 - d + (4/3) d^2 + O(d^3).  The two sides
    # of u - ln u = target agree to O(d^2) there, so a small residual alone
    # does not pin T-
    t_plus = 1.0 + 1e-6
    d = t_plus - 1.0
    assert_allclose(1.0 - gc.equidistant_temperatures(t_plus),
                    d - 4.0 / 3.0 * d ** 2, rtol=1e-8)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_equidistant_refuses_a_hot_ratio_past_its_bracket():
    # from T_plus ~ 1.278e305 the bracket's end 2 T_plus ln(2 T_plus)
    # overflows; such a T_plus is refused before any arithmetic, so with
    # no overflow warning and with an error that names the limit
    assert 0.0 < gc.equidistant_temperatures(gc.T_PLUS_MAX) < 1e-2
    for bad in [1.3e305, 1e306, np.finfo(float).max, np.inf, np.nan]:
        with pytest.raises(ValueError, match="at most T_PLUS_MAX = 1.278e"):
            gc.equidistant_temperatures(bad)


def test_equidistant_raises_when_the_residual_misses(monkeypatch):
    monkeypatch.setattr(gc, "brentq", lambda fn, lo, hi, **kw: hi)
    with pytest.raises(NonConvergenceError):
        gc.equidistant_temperatures(2.0)


@pytest.mark.parametrize("n_beads", [2, 5, 17, 65])
def test_equidistant_levels_match_on_chain(n_beads):
    # the same T solves every mode, so whole-chain F values coincide
    sp = gc.spectrum(gc.ChainSpec(n_beads))
    for t_plus in [1.1, 2.0, 8.0]:
        t_p, t_m = t_plus, gc.equidistant_temperatures(t_plus)
        f_plus = gc.potential_F(sp, t_p * sp.a_star)
        f_minus = gc.potential_F(sp, t_m * sp.a_star)
        assert abs(f_plus - f_minus) < 1e-10 * max(1.0, f_plus)
        assert t_m < 1.0 < t_p


def test_equidistant_order_relation():
    sp = single_mode()
    t_m = gc.equidistant_temperatures(3.0)
    astar = sp.a_star[0]
    assert t_m * astar < astar < 3.0 * astar


# ------------------------------------------------------------- experiment


def test_experiment_single_mode_warming_wins():
    res = gc.universal_asymmetry_experiment(gc.ChainSpec(2), 2.0, 10.0)
    assert res.full.verdict == CURVE1_FASTER
    assert res.full.delta_f.min() >= -1e-9
    assert all(m.verdict == CURVE1_FASTER for m in res.modes)
    assert all(gap > 0.0 for gap in res.full.cubic_gaps)


def test_experiment_levels_are_equidistant():
    res = gc.universal_asymmetry_experiment(gc.ChainSpec(3), 1.5, 10.0)
    assert_allclose(res.full.f1[0], res.full.f2[0], rtol=1e-9)
    assert_allclose(res.full.f1[0], res.pair.level, rtol=1e-9)
    assert res.t_minus == pytest.approx(T_MINUS_TABLE[1.5], abs=1e-10)


def test_experiment_rejects_cold_start():
    with pytest.raises(ValueError):
        gc.universal_asymmetry_experiment(gc.ChainSpec(2), 0.5, 5.0)


def test_experiment_degenerate_pair_is_flat():
    res = gc.universal_asymmetry_experiment(gc.ChainSpec(3), 1.0, 5.0)
    assert res.full.verdict == INCONCLUSIVE
    assert np.abs(res.full.delta_f).max() == 0.0
    assert any(n.startswith("no-race") for n in res.full.notes)
    for rep in res.modes:
        assert rep.verdict == INCONCLUSIVE
        assert np.abs(rep.delta_f).max() == 0.0


def test_modes_that_start_slow_still_race():
    # mode 1 at N = 128, T+ = 1.001 starts at Fisher speed
    # sqrt(2) lambda_1 |T - 1| / T ~ 8.5e-7; its race is the unit race
    # rescaled, and its stop is relative to that start speed, so it races
    # and is decided like every other mode
    res = gc.universal_asymmetry_experiment(gc.ChainSpec(128), 1.001)
    assert np.sqrt(2.0) * res.spect.lambdas[0] * 1e-3 / 1.001 < 1e-6
    assert all(rep.verdict == CURVE1_FASTER for rep in res.modes)
    for k in (0, 1, 63, 126):
        assert len(res.modes[k].coincidence_times) == 1
        _assert_same_race(res.modes[k], _mode_race_alone(res, k))


def test_experiment_without_modes():
    res = gc.universal_asymmetry_experiment(gc.ChainSpec(4), 2.0,
                                            per_mode=False)
    assert res.modes == []
    assert res.full.verdict == CURVE1_FASTER


@settings(max_examples=6, deadline=None, derandomize=True)
@given(n_beads=hst.integers(2, 64), t_plus=hst.floats(1.05, 20.0))
def test_warming_wins_for_every_chain_and_mode(n_beads, t_plus):
    res = gc.universal_asymmetry_experiment(gc.ChainSpec(n_beads), t_plus)
    sp = res.spect
    assert res.full.verdict == CURVE1_FASTER
    for rep in res.modes:
        assert rep.verdict == CURVE1_FASTER
    for rep in [res.full, *res.modes]:
        assert abs(rep.delta_f[0]) <= 1e-9
        assert rep.delta_f.min() >= -1e-9

    full = res.full
    for traj, t_tilde in ((full.traj1, res.t_minus), (full.traj2, t_plus)):
        spec_t = gc.ChainSpec(n_beads, t_tilde=t_tilde)
        for t in full.ts:
            want = [gc.analytic_variance(spec_t, sp, k, t)
                    for k in range(sp.n_modes)]
            assert_allclose(traj.position(t), want, rtol=1e-12)


@pytest.mark.parametrize("n_beads", [3, 12])
def test_hot_start_just_below_the_overflow_bound_is_decided(n_beads):
    # the slowest mode's a+ sits just under A_MAX: its cube is finite,
    # no overflow warning is raised, and every race reads warming-faster
    t_plus = gc.A_MAX / gc.spectrum(gc.ChainSpec(n_beads)).a_star[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = gc.universal_asymmetry_experiment(gc.ChainSpec(n_beads),
                                                t_plus * (1.0 - 1e-12))
    assert res.full.verdict == CURVE1_FASTER
    assert [rep.verdict for rep in res.modes] == [CURVE1_FASTER] * (n_beads - 1)


@pytest.mark.parametrize("n_beads", [3, 12, 100])
def test_hot_start_past_the_overflow_bound_is_refused(n_beads):
    # past A_MAX the metric's partials -1/a^3 overflow to zero, and a
    # verdict (inconclusive at 1e154, warming-faster at 1e300 at N = 3)
    # would come from the overflow
    t_bound = gc.A_MAX / gc.spectrum(gc.ChainSpec(n_beads)).a_star[0]
    for t_plus in (t_bound, 1e154, 1e300, np.finfo(float).max):
        with pytest.raises(ValueError, match="overflows a float"):
            gc.universal_asymmetry_experiment(gc.ChainSpec(n_beads), t_plus)


@pytest.mark.parametrize("n_beads", [3, 12])
@pytest.mark.parametrize("t_plus", [1.1, 8.0, 1e4, 1e10])
def test_the_race_window_is_the_cold_starts_stop_time(n_beads, t_plus):
    # every race runs up to its shorter curve, and that is always the cold
    # start, which stops at ln(1 / STOP_RTOL) / (2 lambda): no horizon
    # ever shortens it
    res = gc.universal_asymmetry_experiment(gc.ChainSpec(n_beads), t_plus)
    lambdas = res.spect.lambdas
    want = np.log(1.0 / STOP_RTOL) / (2.0 * lambdas)
    full = res.full
    assert full.ts[-1] == pytest.approx(want.max(), rel=1e-15)
    assert full.traj1.span[1] == full.ts[-1] < full.traj2.span[1]
    for k, rep in enumerate(res.modes):
        assert rep.ts[-1] == pytest.approx(want[k], rel=1e-15)
        assert rep.traj1.span[1] == rep.ts[-1] < rep.traj2.span[1]


def _mode_race_alone(res, k):
    """Mode k's race as a compare of that one pair."""
    sp = gc._mode_spectrum(res.spect, k)
    g, f = gc.mode_manifold(res.spect, k)
    lo, hi = res.pair.x1_0[k:k + 1], res.pair.x2_0[k:k + 1]
    pair = EquidistantPair(lo, hi, 0.5 * (f(hi) + f(lo)))
    return compare(g, f, pair, flow=gc.chain_flow(sp))


def _assert_same_race(got, want):
    assert got.verdict == want.verdict
    assert got.notes == want.notes
    assert got.coincidence_times == want.coincidence_times
    assert got.cubic_gaps == want.cubic_gaps
    assert got.delta_f.tobytes() == want.delta_f.tobytes()
    assert got.level == want.level


@pytest.mark.parametrize("n_beads, t_plus",
                         [(n, t) for n in range(3, 13) for t in (1.1, 2.0, 8.0)]
                         + [(64, 1.05)])
def test_batched_mode_races_equal_one_compare_per_mode(n_beads, t_plus):
    res = gc.universal_asymmetry_experiment(gc.ChainSpec(n_beads), t_plus)
    assert len(res.modes) == n_beads - 1
    for k, rep in enumerate(res.modes):
        _assert_same_race(rep, _mode_race_alone(res, k))


def test_batched_modes_at_4096_beads_all_race():
    # modes 1-3 start below a Fisher speed of 1e-6; each still races to
    # STOP_RTOL of its own start speed and reads Curve1Faster
    res = gc.universal_asymmetry_experiment(gc.ChainSpec(4096), 1.1)
    assert res.full.verdict == CURVE1_FASTER
    assert all(rep.verdict == CURVE1_FASTER for rep in res.modes)
    for k in (0, 1, 2, 3, 4, 100, 2047, 4094):
        _assert_same_race(res.modes[k], _mode_race_alone(res, k))


def test_a_no_race_row_leaks_nothing_into_its_batch():
    # mode 4 seeded at equilibrium has t_hi = 0: its grid, roots and cubic
    # padding must not move the other rows by a bit
    res = gc.universal_asymmetry_experiment(gc.ChainSpec(9), 2.0)
    sp = res.spect
    lo, hi = (np.where(np.arange(8) == 3, sp.a_star, x)[:, None]
              for x in (res.pair.x1_0, res.pair.x2_0))
    g, f = gc._mode_rows(sp)
    reps = compare_batch(g, f, EquidistantPair(lo, hi, 0.5 * (f(hi) + f(lo))),
                         gc.chain_flow(sp))
    assert [n.split(":")[0] for n in reps[3].notes] == ["no-race"]
    assert reps[3].verdict == INCONCLUSIVE and reps[3].traj1.span == (0.0, 0.0)
    g3, f3 = gc.mode_manifold(sp, 3)
    q = sp.a_star[3:4]
    _assert_same_race(reps[3], compare(
        g3, f3, EquidistantPair(q, q, f3(q)),
        flow=gc.chain_flow(gc._mode_spectrum(sp, 3))))
    for k, rep in enumerate(reps):
        if k != 3:
            _assert_same_race(rep, res.modes[k])


def test_per_mode_races_make_one_root_search(monkeypatch):
    calls = []
    search = cp.bracketed_roots

    def counted(*args):
        calls.append(len(args[1]))
        return search(*args)

    monkeypatch.setattr(cp, "bracketed_roots", counted)
    gc.universal_asymmetry_experiment(gc.ChainSpec(12), 2.0, per_mode=False)
    assert len(calls) == 1
    calls.clear()
    gc.universal_asymmetry_experiment(gc.ChainSpec(12), 2.0)
    # the full race, then one search over all 11 modes' brackets
    assert calls[0] >= 1 and calls[1:] == [11]


def test_slow_modes_are_decided_by_the_relative_gap_cut():
    # mode 1 of N = 64 at T+ = 1.05 has a cubic gap far below 1e-10 in
    # absolute terms, yet 1/16 of its cubics: a real, scale-free win
    res = gc.universal_asymmetry_experiment(gc.ChainSpec(64), 1.05)
    gaps = np.array(res.modes[0].cubic_gaps)
    assert gaps.size and (gaps > 0.0).all() and (gaps < 1e-10).all()
    assert [rep.verdict for rep in res.modes] == [CURVE1_FASTER] * 63
