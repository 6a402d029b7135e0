"""Acceptance: every check of the invariant battery passes.

The invariants live in :mod:`geoflow.verify` alone.  The battery runs
once per session at seed 0.  Each suite is one test, so
``pytest tests/test_acceptance.py -v`` gives one line per suite, and each
guarantee of the paper keeps a test of its own that names the checks
certifying it.  A failure lists each failing check with its measured
value and tolerance.
"""

import time

import pytest

from geoflow import comparison
from geoflow.verify import SUITE_NAMES, run_suites

# Wall-time bound on the whole battery at seed 0, in seconds.  It once
# bounded the 25-cell universality sweep alone, which the battery
# contains; it stays a test bound, not a check, because checks.csv must
# not depend on the machine.
BATTERY_SECONDS = 300.0


@pytest.fixture(scope="session")
def timed_battery():
    t0 = time.perf_counter()
    rows = run_suites(seed=0)
    return rows, time.perf_counter() - t0


@pytest.fixture(scope="session")
def battery(timed_battery):
    return timed_battery[0]


def _assert_passed(rows):
    failed = [f"{r.suite}/{r.name}: measured {r.measured:.6e}, "
              f"tolerance {r.tolerance:.1e}" for r in rows if not r.passed]
    assert not failed, "\n".join(failed)


def _assert_checks(battery, *names):
    by_name = {f"{r.suite}/{r.name}": r for r in battery}
    missing = [n for n in names if n not in by_name]
    assert not missing, f"checks not in the battery: {missing}"
    _assert_passed([by_name[n] for n in names])


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_suite_passes(battery, suite):
    rows = [r for r in battery if r.suite == suite]
    assert rows, f"suite {suite} ran no checks"
    assert all(type(r.passed) is bool and type(r.measured) is float
               and type(r.tolerance) is float for r in rows)
    _assert_passed(rows)


def test_suite_alone_matches_full_run(battery):
    alone = run_suites(0, ["fujiwara-amari"])
    assert alone == [r for r in battery if r.suite == "fujiwara-amari"]


def test_gradient_curves_are_pregeodesics(battery):
    _assert_checks(battery, "straightening/pregeodesic")


def test_nonmetricity_matches_product_closed_form(battery):
    _assert_checks(battery, "straightening/closed-form-nonmetricity",
                   "straightening/asymmetric-nonmetricity")


def test_potential_second_derivative_identity(battery):
    _assert_checks(battery, "straightening/identity-chain")


def test_geodesic_projection_is_orthogonal(battery):
    _assert_checks(battery, "straightening/projection-orthogonality",
                   "straightening/projection-off-foot")


def test_mode_relaxation_closed_forms(battery):
    _assert_checks(battery, "gaussian-chain/ode-closed-form",
                   "gaussian-chain/cubic-cross-validation",
                   "gaussian-chain/curvature-cross-validation",
                   "gaussian-chain/curvature-point-value",
                   "gaussian-chain/crossing-closed-form",
                   "gaussian-chain/mode-scaling-covariance")


def test_warming_beats_cooling_across_the_grid(timed_battery):
    battery, elapsed = timed_battery
    _assert_checks(battery, "gaussian-chain/universality-sweep",
                   "gaussian-chain/route-agreement")
    assert elapsed < BATTERY_SECONDS, (
        f"battery took {elapsed:.1f} s, bound {BATTERY_SECONDS:.0f} s")


def test_distance_squared_relaxation_is_symmetric(battery):
    _assert_checks(battery, "gradient-flow/distance-squared-symmetry")


def test_symmetry_fails_on_a_bowl_race_that_does_not_tie(monkeypatch):
    # with no tie band the bowl's roundoff speed gaps come back as
    # coincidences; delta_f alone would still pass
    monkeypatch.setattr(comparison, "TIE_RTOL", 0.0)
    rows = run_suites(0, ["gradient-flow"])
    sym = next(r for r in rows if r.name == "distance-squared-symmetry")
    assert not sym.passed and sym.measured < sym.tolerance


def test_divergence_gradient_is_affinely_self_parallel(battery):
    _assert_checks(battery, "fujiwara-amari/fujiwara-amari")


def test_unknown_suite_is_refused():
    with pytest.raises(ValueError, match="nope"):
        run_suites(suites=["nope"])
