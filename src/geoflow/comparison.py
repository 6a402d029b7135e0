"""Equidistant seeds and relaxation-speed comparison of paired flows.

Two trajectories started on the same level set of f relax toward the same
minimum; which one is faster is decided by the sign of the cubic
non-metricity gap at every time where their speeds coincide, cross-checked
against the directly sampled difference Delta f = f(curve2) - f(curve1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
# not called here (the root search is bracketed_roots); bench/tracer.py
# wraps this binding, so it stays importable
from scipy.optimize import brentq  # noqa: F401

from .errors import (
    DomainExitError,
    LevelUnreachableError,
    MissingMinimumError,
    NonConvergenceError,
    NonEquidistantError,
)
from .manifold import MetricField, ScalarPotential, Trajectory, integrate_flow
from .straightening import nonmetricity_cubic

__all__ = [
    "CURVE1_FASTER",
    "CURVE2_FASTER",
    "INCONCLUSIVE",
    "STOP_GRAD_NORM",
    "EquidistantPair",
    "AsymmetryReport",
    "equidistant_seed",
    "compare",
    "metric_symmetry_check",
]

CURVE1_FASTER = "Curve1Faster"
CURVE2_FASTER = "Curve2Faster"
INCONCLUSIVE = "Inconclusive"

#: |f - c| tolerance for a point to count as on-level
LEVEL_TOL = 1e-10

#: delta_f slack when certifying a one-sided verdict
DELTA_TOL = 1e-9

#: speeds below this fraction of the run maximum are treated as converged
#: noise and excluded from coincidence detection
SPEED_FLOOR = 1e-8

#: Fisher |grad f| at which a relaxation counts as converged; each curve
#: of a comparison ends there
STOP_GRAD_NORM = 1e-6

_GRID = 512

#: a bracketed root is located once its bracket is narrower than
#: ROOT_XTOL + 4 eps |t|, scipy brentq's rule at xtol=1e-12
ROOT_XTOL = 1e-12
_ROOT_RTOL = 4.0 * np.finfo(float).eps
_ROOT_MAXITER = 100


@dataclass(frozen=True)
class EquidistantPair:
    """Two seeds on the same level set of f."""

    x1_0: np.ndarray
    x2_0: np.ndarray
    level: float

    def validate(self, f: ScalarPotential) -> None:
        for x in (self.x1_0, self.x2_0):
            err = abs(f(x) - self.level)
            if err > LEVEL_TOL:
                raise NonEquidistantError(
                    f"|f(x) - c| = {err:.3e} at seed {x} (limit {LEVEL_TOL})")
        if f.minimum_q is not None and not self.level > f(f.minimum_q):
            raise NonEquidistantError(
                f"level {self.level} does not exceed the minimum value")


@dataclass
class AsymmetryReport:
    """Outcome of a paired-relaxation comparison.

    ``delta_f[i] = f(curve2(ts[i])) - f(curve1(ts[i]))``; a positive sign
    means curve 1 sits lower, i.e. has relaxed further.  ``cubic_gaps[j]``
    is C(curve2) - C(curve1) at ``coincidence_times[j]``.
    """

    ts: np.ndarray
    delta_f: np.ndarray
    f1: np.ndarray
    f2: np.ndarray
    coincidence_times: list[float]
    cubic_gaps: list[float]
    verdict: str
    notes: list[str] = field(default_factory=list)
    traj1: Trajectory | None = None
    traj2: Trajectory | None = None
    level: float = np.nan


def _seed_along(g: MetricField, f: ScalarPotential, q: np.ndarray, c: float,
                direction: np.ndarray) -> np.ndarray:
    d = np.asarray(direction, dtype=float)
    nd = np.linalg.norm(d)
    if nd == 0.0:
        raise ValueError("seed direction must be nonzero")
    d = d / nd
    chart = g.chart

    def on_ray(s):
        return q + s * d

    def level_gap(s):
        return f(on_ray(s)) - c

    # expand until the ray crosses the level or leaves the chart
    s_lo, s_hi = 0.0, 1e-3
    while level_gap(s_hi) < 0.0:
        if chart is not None and not chart.contains(on_ray(s_hi)):
            raise DomainExitError(
                f"ray from {q} along {d} leaves the chart at s={s_hi:.3e} "
                f"before reaching level {c}")
        s_lo, s_hi = s_hi, 2.0 * s_hi
        if s_hi > 1e8:
            raise LevelUnreachableError(
                f"level {c} not reached within s <= 1e8 along {d}")
    if chart is not None and not chart.contains(on_ray(s_hi)):
        raise DomainExitError(
            f"level {c} is only crossed outside the chart along {d}")

    for _ in range(80):
        s_mid = 0.5 * (s_lo + s_hi)
        if level_gap(s_mid) < 0.0:
            s_lo = s_mid
        else:
            s_hi = s_mid

    s = 0.5 * (s_lo + s_hi)
    for _ in range(25):
        gap = level_gap(s)
        if abs(gap) < LEVEL_TOL:
            break
        slope = float(f.gradient_covector(on_ray(s)) @ d)
        if slope == 0.0:
            break
        s -= gap / slope
    if abs(level_gap(s)) >= LEVEL_TOL:
        raise LevelUnreachableError(
            f"root polish stalled at |f - c| = {abs(level_gap(s)):.3e}")
    return on_ray(s)


def equidistant_seed(g: MetricField, f: ScalarPotential, c: float,
                     direction1, direction2) -> EquidistantPair:
    """Find the two points where rays from the minimum cross the level c.

    Scalar root-finding (bisection, then Newton polish to |f - c| < 1e-10)
    along each direction from f.minimum_q.

    Raises
    ------
    MissingMinimumError
        If the potential has no designated minimum.
    LevelUnreachableError, DomainExitError
        If a ray fails to cross the level inside the chart.
    """
    if f.minimum_q is None:
        raise MissingMinimumError(
            "equidistant seeding needs a potential with a designated minimum")
    q = f.minimum_q
    if not c > f(q):
        raise ValueError(
            f"level c={c} must exceed the minimum value f(q)={f(q)}")
    x1 = _seed_along(g, f, q, c, direction1)
    x2 = _seed_along(g, f, q, c, direction2)
    pair = EquidistantPair(x1, x2, float(c))
    pair.validate(f)
    return pair


def _speed(g: MetricField, traj: Trajectory, t):
    """Riemannian speed |xd|_g at a scalar t or over a 1-D array of t."""
    x = traj.position(t)
    v = traj.velocity(t)
    return np.sqrt(np.maximum(
        np.einsum("...i,...ij,...j->...", v, g(x), v), 0.0))


def bracketed_roots(fn, lo, hi, f_lo, f_hi) -> np.ndarray:
    """One root of ``fn`` in each bracket [lo[j], hi[j]], all at once.

    ``f_lo`` and ``f_hi`` are fn at the bracket ends and must differ in
    sign.  Illinois regula falsi: the false-position point replaces the
    end whose value has its sign; when it lands on the same side as the
    previous point, the value kept at the other end is halved, so both
    ends close in.  Each round evaluates
    ``fn`` once, on the array of the unfinished brackets' points.  A
    bracket is done when fn vanishes there or the bracket is narrower
    than ROOT_XTOL + 4 eps |t|.

    Raises
    ------
    NonConvergenceError
        If a bracket is still open after 100 rounds.
    """
    a, b = np.array(lo, dtype=float), np.array(hi, dtype=float)
    fa, fb = np.array(f_lo, dtype=float), np.array(f_hi, dtype=float)
    todo = np.arange(a.size)
    for _ in range(_ROOT_MAXITER):
        width = np.abs(b[todo] - a[todo])
        todo = todo[width >= ROOT_XTOL + _ROOT_RTOL * np.abs(b[todo])]
        if todo.size == 0:
            return b
        ai, bi, fai, fbi = a[todo], b[todo], fa[todo], fb[todo]
        c = bi - fbi * (bi - ai) / (fbi - fai)
        fc = np.asarray(fn(c), dtype=float)
        flip = np.sign(fc) != np.sign(fbi)
        # a sign change between b and c: b becomes the far end
        a[todo] = np.where(flip, bi, ai)
        fa[todo] = np.where(flip, fbi, 0.5 * fai)
        b[todo], fb[todo] = c, fc
        hit = fc == 0.0
        a[todo[hit]] = c[hit]
    raise NonConvergenceError(
        f"{todo.size} root bracket(s) still open after "
        f"{_ROOT_MAXITER} rounds")


def compare(g: MetricField, f: ScalarPotential, lam: float,
            pair: EquidistantPair, t_end: float, tol: float = 1e-10,
            n_samples: int = _GRID, flow=None) -> AsymmetryReport:
    """Run both relaxations and issue the asymmetry verdict.

    ``flow(x0) -> trajectory`` supplies each curve from its seed.  The
    default integrates ``integrate_flow(g, f, x0, t_end, tol=tol,
    stop_grad_norm=STOP_GRAD_NORM)``.  A closed-form relaxation such as
    :class:`geoflow.gaussian_chain.ChainTrajectory` may stand in for it;
    ``t_end`` and ``tol`` then go unused, the flow sets its own horizon.
    A trajectory needs ``span`` plus ``position``, ``velocity`` and
    ``acceleration`` at a scalar t and over a 1-D array of t.

    Each curve is sampled on the ``n_samples`` grid in one call each to
    ``position`` and ``velocity``; ``f`` and ``g`` then evaluate the
    position stack in one call each, so their closures must broadcast
    (:class:`~geoflow.errors.ClosureShapeError` otherwise).  The root
    search refines every bracket at once (:func:`bracketed_roots`), one
    array query per round, and the cubics are one
    :func:`nonmetricity_cubic` call per curve over all roots.

    Speed-coincidence times are the bracketed sign changes of
    |curve1'| - |curve2'| on the dense output (plus t=0 when the seeds
    already move at equal speed), each located to 1e-12 in t and merged
    when closer than 1e-9.  The verdict is
    CURVE1_FASTER only when every cubic gap is positive and the sampled
    delta_f never dips below -1e-9; symmetrically for CURVE2_FASTER;
    anything else is INCONCLUSIVE.  Sign changes where both speeds have
    decayed below 1e-8 of the run maximum are roundoff chatter near
    equilibrium, not coincidences, and are skipped.
    """
    pair.validate(f)
    if flow is None:
        def flow(x0):
            return integrate_flow(g, f, x0, t_end, tol=tol,
                                  stop_grad_norm=STOP_GRAD_NORM)
    traj1, traj2 = flow(pair.x1_0), flow(pair.x2_0)

    t_hi = min(traj1.span[1], traj2.span[1])
    ts = np.linspace(0.0, t_hi, n_samples)
    f1 = f(traj1.position(ts))
    f2 = f(traj2.position(ts))
    delta = f2 - f1

    s1 = _speed(g, traj1, ts)
    s2 = _speed(g, traj2, ts)
    diff = s1 - s2
    floor = SPEED_FLOOR * max(s1.max(), s2.max())
    live = np.maximum(s1, s2) > floor

    notes: list[str] = []
    both_live = live[:-1] & live[1:]
    on_grid = both_live & (diff[:-1] == 0.0) & (ts[:-1] > 0.0)
    i = np.flatnonzero(both_live & (diff[:-1] * diff[1:] < 0.0))
    refined = bracketed_roots(
        lambda t: _speed(g, traj1, t) - _speed(g, traj2, t),
        ts[i], ts[i + 1], diff[i], diff[i + 1])
    roots = np.sort(np.concatenate([[0.0] if abs(diff[0]) <= floor else [],
                                    ts[:-1][on_grid], refined]))
    dedup: list[float] = []
    for r in roots.tolist():
        if not dedup or r - dedup[-1] > 1e-9:
            dedup.append(r)

    gaps: list[float] = []
    if dedup:
        at = np.array(dedup)
        gaps = (nonmetricity_cubic(g, f, lam, traj2, at)
                - nonmetricity_cubic(g, f, lam, traj1, at)).tolist()

    if gaps:
        if max(abs(gp) for gp in gaps) < 1e-10:
            notes.append("zero-gap: every cubic gap vanishes to tolerance "
                         "(symmetric relaxation)")
            verdict = INCONCLUSIVE
        elif all(gp > 0.0 for gp in gaps) and delta.min() >= -DELTA_TOL:
            verdict = CURVE1_FASTER
        elif all(gp < 0.0 for gp in gaps) and delta.max() <= DELTA_TOL:
            verdict = CURVE2_FASTER
        else:
            verdict = INCONCLUSIVE
    else:
        notes.append("no-coincidence: speeds never re-coincide after t=0; "
                     "verdict rests on the sampled delta_f alone")
        if np.abs(delta).max() <= DELTA_TOL:
            notes.append("zero-gap: delta_f vanishes to tolerance "
                         "(symmetric relaxation)")
            verdict = INCONCLUSIVE
        elif delta.min() >= -DELTA_TOL:
            verdict = CURVE1_FASTER
        elif delta.max() <= DELTA_TOL:
            verdict = CURVE2_FASTER
        else:
            verdict = INCONCLUSIVE

    return AsymmetryReport(ts=ts, delta_f=delta, f1=f1, f2=f2,
                           coincidence_times=dedup, cubic_gaps=gaps,
                           verdict=verdict, notes=notes,
                           traj1=traj1, traj2=traj2, level=pair.level)


def metric_symmetry_check(g: MetricField, f: ScalarPotential,
                          pair: EquidistantPair, t_end: float) -> bool:
    """True iff the paired relaxations are indistinguishable in f.

    The witness that a potential admits a metric straightening connection:
    max_t |delta_f| < 1e-7 * level.
    """
    report = compare(g, f, 0.0, pair, t_end)
    scale = max(abs(pair.level), 1e-30)
    return bool(np.abs(report.delta_f).max() < 1e-7 * scale)
