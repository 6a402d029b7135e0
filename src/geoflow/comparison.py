"""Equidistant seeds and relaxation-speed comparison of paired flows.

Two trajectories started on the same level set of f relax toward the same
minimum; which one is faster is decided by the sign of the cubic
non-metricity gap at every time where their speeds coincide, cross-checked
against the directly sampled difference Delta f = f(curve2) - f(curve1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainExitError,
    LevelUnreachableError,
    MissingMinimumError,
    NonConvergenceError,
    NonEquidistantError,
)
from .manifold import (
    MetricField,
    ScalarPotential,
    Trajectory,
    grad_norm_sq,
    integrate_flow,
)
from .straightening import nonmetricity_cubic

__all__ = [
    "CURVE1_FASTER",
    "CURVE2_FASTER",
    "INCONCLUSIVE",
    "STOP_RTOL",
    "TIE_NOTE",
    "TIE_RTOL",
    "EquidistantPair",
    "AsymmetryReport",
    "equidistant_seed",
    "compare",
    "compare_batch",
]

CURVE1_FASTER = "Curve1Faster"
CURVE2_FASTER = "Curve2Faster"
INCONCLUSIVE = "Inconclusive"

#: |f - c| tolerance for a point to count as on-level
LEVEL_TOL = 1e-10

#: delta_f slack when certifying a one-sided verdict
DELTA_TOL = 1e-9

#: a cubic gap counts as zero when |C2 - C1| <= GAP_RTOL * max(|C1|, |C2|):
#: relative, so a mode's verdict does not depend on its rate's scale
GAP_RTOL = 1e-3

#: a grid sample is a tie when |s1 - s2| <= TIE_RTOL * max(s1, s2): the
#: flat bowl's relative speed gap is roundoff, at most 1.8e-15 over 8
#: random direction pairs, while the smallest one seen elsewhere, in
#: gaussian-mode races at levels 1e-10 to 1e-14, is 3e-13
TIE_RTOL = 1e-13

#: the one note of a race whose speeds tie over every live interval
TIE_NOTE = ("zero-gap: speeds tie to TIE_RTOL over the whole race "
            "(symmetric relaxation)")

#: speeds below this fraction of the run maximum are treated as converged
#: noise and excluded from coincidence detection
SPEED_FLOOR = 1e-8

#: fraction of its own start speed |grad f(x0)| at which a relaxation
#: counts as converged; each curve of a comparison ends there, so the
#: stop does not depend on the scale of f or of the metric
STOP_RTOL = 1e-6

#: an integrated curve resolves its speed down to about tol of its start
#: speed, not below: a solve coarser than tol = 1e-7 stops each curve at
#: STOP_TOL_FACTOR * tol of its start speed instead of STOP_RTOL, where
#: its non-convergence check would otherwise read the integration error
#: as a flow that does not relax.  Uncapped, factors of 30 and 100
#: decide 1 and 4 of 100 seeded 9-bead races at tol 1e-4 that the
#: closed-form curves leave open; 10 decides none
STOP_TOL_FACTOR = 10.0

#: the cap on that fraction: however coarse the solve, each curve still
#: relaxes to 1e-3 of its start speed rather than stopping at its seed
STOP_RTOL_MAX = 1e-3

_GRID = 512

#: a coincidence is located once its bracket is narrower than
#: ROOT_XTOL + 4 eps |t|, scipy brentq's rule at xtol=1e-12
ROOT_XTOL = 1e-12
_ROOT_RTOL = 4.0 * np.finfo(float).eps
_ROOT_MAXITER = 100
#: bisection rounds for the brackets that Illinois leaves open
_BISECT_MAXITER = 64


def brentq(f, a, b, **kwargs):
    """scipy's ``brentq``, imported on the first call.

    Deferred so that ``import geoflow``, pointwise geometry and the chain
    never load scipy.optimize; the seed solve alone calls it.
    """
    from scipy.optimize import brentq as solve

    return solve(f, a, b, **kwargs)


@dataclass(frozen=True)
class EquidistantPair:
    """Two seeds on the same level set of f.

    A batch of B pairs stacks them on a leading axis: seeds of shape
    ``(B, dim)`` and levels of shape ``(B,)``.
    """

    x1_0: np.ndarray
    x2_0: np.ndarray
    level: float | np.ndarray

    def validate(self, f: ScalarPotential) -> None:
        """Check both seeds lie on ``level`` and the level is not below the
        minimum.

        A level equal to the minimum value is accepted: both seeds then sit
        at the minimum, as in the chain's T+ = 1 race, and :func:`compare`
        reads the pair as a no-race.  A batch is checked in one call of f
        per side.

        Raises
        ------
        NonEquidistantError
            If a seed is off the level by more than LEVEL_TOL, or the level
            lies below f at the potential's designated minimum.
        """
        for x in (self.x1_0, self.x2_0):
            err = np.max(np.abs(f(x) - self.level))
            if err > LEVEL_TOL:
                raise NonEquidistantError(
                    f"|f(x) - c| = {err:.3e} at seed {x} (limit {LEVEL_TOL})")
        if (f.minimum_q is not None
                and not np.all(self.level >= f(f.minimum_q))):
            raise NonEquidistantError(
                f"level {self.level} lies below the minimum value")


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
    notes: list[str]
    traj1: Trajectory
    traj2: Trajectory
    level: float


def _seed_along(g: MetricField, f: ScalarPotential, q: np.ndarray, c: float,
                direction: np.ndarray) -> np.ndarray:
    d = np.asarray(direction, dtype=float)
    if not np.isfinite(d).all():
        raise ValueError(f"seed direction must be finite, got {d}")
    # scale by max|d| first, so the norm neither underflows nor overflows
    scale = np.abs(d).max(initial=0.0)
    if scale == 0.0:
        raise ValueError("seed direction must be nonzero")
    d = d / scale
    d = d / np.linalg.norm(d)

    def on_ray(s):
        return q + s * d

    def level_gap(s):
        return f(on_ray(s)) - c

    # expand until the ray crosses the level; past the chart's edge, halve
    # back toward the last in-chart point, so f is only called in the chart
    s_lo, s_hi, s_out = 0.0, 1e-3, np.inf
    while True:
        if not g.chart.contains(on_ray(s_hi)):
            s_out = s_hi
            # the chart's edge is pinned to 4 eps: the level lies beyond
            if s_out - s_lo <= _ROOT_RTOL * max(1.0, s_out):
                raise DomainExitError(
                    f"ray from {q} along {d} leaves the chart at "
                    f"s={s_out:.3e} before reaching level {c}")
        elif level_gap(s_hi) < 0.0:
            s_lo = s_hi
        else:
            break
        s_hi = 2.0 * s_lo if s_out == np.inf else 0.5 * (s_lo + s_out)
        if s_hi > 1e8:
            raise LevelUnreachableError(
                f"level {c} not reached within s <= 1e8 along {d}")

    # Brent's method on the bracket, to machine precision in s
    s, info = brentq(level_gap, s_lo, s_hi, xtol=np.finfo(float).tiny,
                     rtol=_ROOT_RTOL, full_output=True, disp=False)
    gap = abs(level_gap(s))
    if not info.converged or gap >= LEVEL_TOL:
        raise LevelUnreachableError(
            f"level solve on [{s_lo:.3e}, {s_hi:.3e}] ended at "
            f"|f - c| = {gap:.3e} ({info.flag})")
    return on_ray(s)


def equidistant_seed(g: MetricField, f: ScalarPotential, c: float,
                     direction1, direction2) -> EquidistantPair:
    """Find the two points where rays from the minimum cross the level c.

    Along each direction from f.minimum_q the ray doubles its step
    until it crosses the level; a step that lands outside the chart is
    halved back toward the last in-chart point, so f is never called
    outside the chart.  One scipy ``brentq`` solve then locates the
    crossing in that bracket to 4 eps relative in the ray parameter, and
    each seed must land within |f - c| < LEVEL_TOL.  ``c`` must exceed f
    at the minimum.

    Raises
    ------
    MissingMinimumError
        If the potential has no designated minimum.
    LevelUnreachableError
        If a ray does not cross the level within s <= 1e8, or its solve
        does not converge to |f - c| < LEVEL_TOL.
    DomainExitError
        If a ray reaches the chart's edge, pinned to 4 eps, below the
        level.
    """
    if f.minimum_q is None:
        raise MissingMinimumError(
            "equidistant seeding needs a potential with a designated minimum")
    q = f.minimum_q
    if not c > f(q):
        raise ValueError(
            f"level c={c} must exceed the minimum value f(q)={f(q)}")
    return EquidistantPair(_seed_along(g, f, q, c, direction1),
                           _seed_along(g, f, q, c, direction2), float(c))


def _speed(g: MetricField, traj: Trajectory, t):
    """Riemannian speed |xd|_g at a scalar t or over an array of t."""
    return g.norm(*traj.position_velocity(t))


def bracketed_roots(fn, lo, hi, f_lo, f_hi,
                    xtol: float = ROOT_XTOL) -> np.ndarray:
    """One root of ``fn(., j)`` in each bracket j, [lo[j], hi[j]], all at
    once.

    ``f_lo`` and ``f_hi`` are fn at the bracket ends and must differ in
    sign.  Illinois regula falsi: the false-position point replaces the
    end whose value has its sign; when it lands on the same side as the
    previous point, the value kept at the other end is halved, so both
    ends close in.  Each round evaluates ``fn(t, j)`` once, on the array
    t of the unfinished brackets' points and the ascending array j of
    their indices, so a bracket may have a function of its own.  A
    bracket is done when fn vanishes there or the bracket is narrower
    than xtol + 4 eps |t|.  The default absolute term ROOT_XTOL is the
    coincidence search's; ``xtol=0`` stops at 4 eps relative alone.

    Where fn is roundoff, a gap of 1e-21 across a bracket 4e-12 wide,
    say, Illinois crawls.  The brackets still open after 100 rounds are
    bisected instead, each round halving them, for up to 64 rounds; a
    bracket that closes within the first 100 rounds never sees a
    bisection step.

    Raises
    ------
    NonConvergenceError
        If a bracket is still open after the 100 + 64 rounds.
    """
    a, b = np.array(lo, dtype=float), np.array(hi, dtype=float)
    fa, fb = np.array(f_lo, dtype=float), np.array(f_hi, dtype=float)
    todo = np.arange(a.size)
    for n in range(_ROOT_MAXITER + _BISECT_MAXITER):
        width = np.abs(b[todo] - a[todo])
        todo = todo[width >= xtol + _ROOT_RTOL * np.abs(b[todo])]
        if todo.size == 0:
            return b
        ai, bi, fai, fbi = a[todo], b[todo], fa[todo], fb[todo]
        c = (bi - fbi * (bi - ai) / (fbi - fai) if n < _ROOT_MAXITER
             else 0.5 * (ai + bi))
        fc = np.asarray(fn(c, todo), dtype=float)
        flip = np.sign(fc) != np.sign(fbi)
        # a sign change between b and c: b becomes the far end
        a[todo] = np.where(flip, bi, ai)
        fa[todo] = np.where(flip, fbi, 0.5 * fai)
        b[todo], fb[todo] = c, fc
        hit = fc == 0.0
        a[todo[hit]] = c[hit]
    raise NonConvergenceError(
        f"{todo.size} root bracket(s) still open after {_ROOT_MAXITER} "
        f"Illinois and {_BISECT_MAXITER} bisection rounds")


def _by_row(n: int, rows: np.ndarray, times: np.ndarray):
    """Times grouped by their ascending ``rows`` into an ``(n, m)`` stack,
    left-aligned and padded with t = 0, where every curve is defined;
    with the column of each time."""
    col = np.arange(rows.size) - np.searchsorted(rows, rows)
    out = np.zeros((n, col.max(initial=-1) + 1))
    out[rows, col] = times
    return out, col


def compare_batch(g: MetricField, f: ScalarPotential, pairs: EquidistantPair,
                  flow) -> list[AsymmetryReport]:
    """Race B equidistant pairs at once; report b is the race of pair b.

    ``pairs`` holds the B pairs on a leading axis (a pair of single seeds
    is the batch of one), and one call ``flow(x1_0, x2_0)`` returns both
    sides, ``(traj1, traj2)``, each side's B curves as one trajectory.
    Its ``span`` ends broadcast to ``(B,)``, and its
    ``position_velocity`` and ``acceleration`` at times of shape
    ``(B, n)`` give ``(B, n, dim)``, row b on curve b; a single curve is
    a batch of one.  A batched trajectory gives row b alone as
    ``traj[b]``, which report b keeps.  ``f`` and ``g`` evaluate point
    stacks ``(B, n, dim)`` in one call each, row b belonging to pair b.

    Every row runs the steps of :func:`compare`, each as one array
    operation over all rows:

    - one grid stack of ``_GRID`` times on each row's shorter span,
      whose sampled positions must lie in the chart
      (:class:`~geoflow.errors.DomainExitError` otherwise, before f
      is called there);
    - one tie mask over every row's samples: an interval whose two ends
      both tie to TIE_RTOL is a band, not a crossing, and is never
      searched;
    - one :func:`bracketed_roots` call over every row's brackets, whose
      rounds query both curves on a ``(B, m)`` stack of times, and none
      when no row has a bracket;
    - one lam = 0 :func:`nonmetricity_cubic` call per side over every
      root (see :func:`compare` for why the race takes no lam), and none
      when no row has a root;
    - the verdict ladder of :func:`compare`, row by row.

    Illinois steps, speeds and cubics are elementwise and every reduction
    runs along a row, so each report is bit for bit the one
    :func:`compare` gives for its pair alone.
    """
    pairs.validate(f)
    traj1, traj2 = flow(pairs.x1_0, pairs.x2_0)
    levels = np.atleast_1d(pairs.level)
    n = levels.size
    batched = np.ndim(traj1.span[1]) == 1
    if n > 1 and not batched:
        raise ValueError(f"flow gave one curve for a batch of {n} pairs")

    t_hi = np.broadcast_to(np.minimum(traj1.span[1], traj2.span[1]), (n,))
    # np.linspace(0, t_hi, _GRID) row by row: its array form would switch
    # every row to its zero-step branch when one row has t_hi = 0
    ts = np.arange(_GRID) * (t_hi / (_GRID - 1))[:, None]
    ts[:, -1] = t_hi
    x1, v1 = traj1.position_velocity(ts)
    x2, v2 = traj2.position_velocity(ts)
    if not (g.chart.contains(x1) and g.chart.contains(x2)):
        raise DomainExitError(
            f"the dense output leaves chart {g.chart.name!r} between "
            "accepted steps; a smaller tol keeps it inside")
    f1, f2 = f(x1), f(x2)
    delta = f2 - f1
    race = t_hi > 0.0

    s1, s2 = g.norm(x1, v1), g.norm(x2, v2)
    diff = s1 - s2
    top = np.maximum(s1, s2)
    floor = SPEED_FLOOR * top.max(axis=1)
    live = top > floor[:, None]
    both_live = live[:, :-1] & live[:, 1:] & race[:, None]
    tied = np.abs(diff) <= TIE_RTOL * top
    band = both_live & tied[:, :-1] & tied[:, 1:]
    crossing = both_live & ~band
    flat = np.abs(delta).max(axis=1) <= DELTA_TOL
    tie = race & ~crossing.any(axis=1) & flat
    on_grid = crossing & (diff[:, :-1] == 0.0) & (ts[:, :-1] > 0.0)
    row, i = np.nonzero(crossing & (diff[:, :-1] * diff[:, 1:] < 0.0))

    def speed_gap(t, j):
        at, col = _by_row(n, row[j], t)
        return (_speed(g, traj1, at) - _speed(g, traj2, at))[row[j], col]

    refined = (bracketed_roots(speed_gap, ts[row, i], ts[row, i + 1],
                               diff[row, i], diff[row, i + 1])
               if row.size else np.zeros(0))
    on_row, on_i = np.nonzero(on_grid)
    at_start = np.flatnonzero(race & ~band[:, 0]
                              & (np.abs(diff[:, 0]) <= floor))
    rows = np.concatenate([at_start, on_row, row])
    roots = np.concatenate([np.zeros(at_start.size), ts[on_row, on_i],
                            refined])
    order = np.lexsort((roots, rows))
    coincide: list[list[float]] = [[] for _ in range(n)]
    for r, t in zip(rows[order].tolist(), roots[order].tolist()):
        kept = coincide[r]
        if not kept or t - kept[-1] > 1e-9:
            kept.append(t)

    counts = np.array([len(c) for c in coincide])
    at, _ = _by_row(n, np.repeat(np.arange(n), counts),
                    np.concatenate(coincide))
    if at.size:
        c1, c2 = (nonmetricity_cubic(g, 0.0, traj, at)
                  for traj in (traj1, traj2))
    else:
        c1 = c2 = at
    gaps = c2 - c1
    pad = np.arange(at.shape[1]) >= counts[:, None]
    zero_gap = (np.abs(gaps) <= GAP_RTOL * np.maximum(np.abs(c1), np.abs(c2)))
    symmetric = np.where(counts > 0, (zero_gap | pad).all(axis=1), flat)
    up = ((gaps > 0.0) | pad).all(axis=1) & (delta.min(axis=1) >= -DELTA_TOL)
    down = ((gaps < 0.0) | pad).all(axis=1) & (delta.max(axis=1) <= DELTA_TOL)

    reports = []
    for b in range(n):
        notes: list[str] = []
        if not race[b]:
            notes.append("no-race: a curve starts at rest (its span is "
                         "[0, 0]) and never moves; nothing to race")
            verdict = INCONCLUSIVE
        elif tie[b]:
            notes.append(TIE_NOTE)
            verdict = INCONCLUSIVE
        else:
            if not counts[b]:
                notes.append("no-coincidence: speeds never re-coincide after "
                             "t=0; verdict rests on the sampled delta_f alone")
            if symmetric[b]:
                notes.append("zero-gap: " + ("every cubic gap" if counts[b]
                                             else "delta_f")
                             + " vanishes to tolerance (symmetric relaxation)")
                verdict = INCONCLUSIVE
            elif up[b]:
                verdict = CURVE1_FASTER
            elif down[b]:
                verdict = CURVE2_FASTER
            else:
                verdict = INCONCLUSIVE
        reports.append(AsymmetryReport(
            ts=ts[b], delta_f=delta[b], f1=f1[b], f2=f2[b],
            coincidence_times=coincide[b],
            cubic_gaps=gaps[b, :counts[b]].tolist(), verdict=verdict,
            notes=notes, traj1=traj1[b] if batched else traj1,
            traj2=traj2[b] if batched else traj2, level=float(levels[b])))
    return reports


def compare(g: MetricField, f: ScalarPotential, pair: EquidistantPair,
            t_end: float | None = None, tol: float = 1e-10,
            flow=None) -> AsymmetryReport:
    """Run both relaxations and issue the asymmetry verdict.

    The batch of one of :func:`compare_batch`, which holds the single
    code path.  ``flow(x1_0, x2_0) -> (traj1, traj2)`` supplies both
    curves from their seeds in one call.  The default races them through
    one solve, ``integrate_flow`` on the seed stack ``(2, dim)`` with
    ``tol`` and each curve's own ``stop_grad_norm = rtol * |grad
    f(x0)|``: one RK45 system whose steps pass only when each curve's own
    error estimate meets ``tol``, and in which each curve ends once its
    speed has fallen to ``rtol`` of its own start speed, whatever the
    scale of f, with its own ``converged`` and ``exited_domain`` flags.
    ``rtol = min(max(STOP_RTOL, STOP_TOL_FACTOR * tol), STOP_RTOL_MAX)``
    is STOP_RTOL at tol <= 1e-7, the default included, and 10 tol, at
    most 1e-3, above: a coarser solve does not resolve the speed further
    down.  ``t_end`` bounds that solve and is needed there: a missing
    one raises the ``ValueError`` of a bad one, 0 <= t_end < inf.  A
    closed-form relaxation such as
    :func:`geoflow.gaussian_chain.chain_flow` may stand in for the solve;
    ``t_end`` and ``tol`` then go unused, and each curve ends at its own
    stop time.
    A trajectory needs ``span`` plus ``position_velocity`` and
    ``acceleration`` at a scalar t and over an array of t.

    Each curve is sampled on a uniform grid of ``_GRID`` times up to the
    shorter span, in one ``position_velocity`` call each; ``f`` and ``g``
    then evaluate the position stack in one call each, so their closures
    must broadcast (:class:`~geoflow.errors.ClosureShapeError`
    otherwise).  The root search refines every bracket at once
    (:func:`bracketed_roots`), one array query per round, and the cubics
    are one :func:`nonmetricity_cubic` call per curve over all roots.

    The cubics are those of the lam = 0 straightening connection, and the
    race takes no lam.  Every connection of the family makes the descent
    curves pregeodesics; along a curve the cubic at lam exceeds the
    lam = 0 one by 2 lam |xd|^2_g, which is the same on both curves where
    their speeds coincide, so the gap C2 - C1 that decides the race does
    not depend on lam.  A large lam would only inflate both cubics, and
    with them the relative zero-gap cut below.

    Speed-coincidence times are the bracketed sign changes of
    |curve1'| - |curve2'| on the dense output (plus t=0 when the seeds
    already move at equal speed), each located to 1e-12 in t and merged
    when closer than 1e-9.  Sign changes where both speeds have decayed
    below 1e-8 of the run maximum are roundoff chatter near equilibrium,
    not coincidences, and are skipped.  So are ties: a sample where
    |s1 - s2| <= TIE_RTOL * max(s1, s2) is tied, and an interval whose
    two ends are both tied adds no bracket, no on-grid zero and no t=0
    coincidence, since its sign changes are roundoff, not crossings.

    One verdict ladder serves with and without coincidences (an empty gap
    list counts as all positive and all negative):

    1. INCONCLUSIVE with a no-race note when either span has zero length:
       a seed at rest, with |grad f| = 0 (a pair on the minimum's own
       level, say), never moves, so there is nothing to race; no root
       search runs and no cubic is taken;
    2. INCONCLUSIVE with the single note TIE_NOTE when every live
       interval is tied and |delta_f| stays within 1e-9: the curves
       relax identically, as on the isotropic flat bowl; no root search
       runs and no cubic is taken;
    3. INCONCLUSIVE with a zero-gap note when the relaxation is symmetric:
       every cubic gap C2 - C1 is within GAP_RTOL of max(|C1|, |C2|), or,
       with no coincidence, |delta_f| stays within 1e-9;
    4. CURVE1_FASTER when every cubic gap is positive and the sampled
       delta_f never dips below -1e-9;
    5. CURVE2_FASTER symmetrically;
    6. INCONCLUSIVE otherwise.
    """
    if flow is None:
        def flow(x1_0, x2_0):
            seeds = np.stack([x1_0, x2_0])
            rtol = min(max(STOP_RTOL, STOP_TOL_FACTOR * tol), STOP_RTOL_MAX)
            stop = rtol * np.sqrt(grad_norm_sq(g, f, seeds))
            traj = integrate_flow(g, f, seeds, t_end, tol=tol,
                                  stop_grad_norm=stop)
            return traj[0], traj[1]
    return compare_batch(g, f, pair, flow)[0]

