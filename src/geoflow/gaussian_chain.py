"""Relaxation of an ideal bead-spring chain in normal-mode coordinates.

A chain of ``n_beads`` beads coupled by unit springs decomposes into
independent modes with rates lambda_k (the nonzero eigenvalues of the
path-graph Laplacian).  After a temperature quench by the factor T_tilde,
each mode variance follows

    a_k(t) = (2 / lambda_k) (1 + (T_tilde - 1) e^{-2 lambda_k t}),

which is the Fisher-metric gradient flow of

    F(a) = sum_k lambda_k (a*_k / a_k - ln(a*_k / a_k) - 1),

with equilibrium a*_k = 2 / lambda_k.  Pairs of quenches that start
F-equidistant (one hot, one cold) relax at different speeds; the cold
(warming) start always wins, and the machinery here wires the model into
the generic comparison and straightening tooling to certify that.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .comparison import (
    STOP_RTOL,
    AsymmetryReport,
    EquidistantPair,
    bracketed_roots,
    compare,
    compare_batch,
)
from .errors import NonConvergenceError, SingularCurvatureError
from .manifold import (Chart, MetricField, ScalarPotential, _diag_matrix,
                       span_times)

__all__ = [
    "ChainSpec",
    "ModeSpectrum",
    "ExperimentResult",
    "spectrum",
    "analytic_variance",
    "ode_rhs",
    "ChainTrajectory",
    "chain_flow",
    "potential_F",
    "cubic_closed_form",
    "scalar_curvature_mode",
    "equidistant_temperatures",
    "mode_manifold",
    "mode_plane_manifold",
    "chain_manifold",
    "universal_asymmetry_experiment",
]


@dataclass(frozen=True)
class ChainSpec:
    """Bead count (n_beads = N+1, giving N modes) and quench ratio."""

    n_beads: int
    t_tilde: float = 1.0

    def __post_init__(self):
        if self.n_beads < 2:
            raise ValueError("a chain needs at least 2 beads")
        if not self.t_tilde > 0.0:
            raise ValueError("temperature ratio must be positive")


@dataclass(frozen=True)
class ModeSpectrum:
    """Ascending mode rates and their equilibrium variances a* = 2/lambda,
    derived from the rates."""

    lambdas: np.ndarray
    a_star: np.ndarray = field(init=False)

    def __post_init__(self):
        lam = np.asarray(self.lambdas, dtype=float)
        if lam.ndim != 1 or lam.size == 0:
            raise ValueError("spectrum needs a nonempty rate vector")
        if not (lam > 0.0).all():
            raise ValueError("mode rates must be positive")
        if not (np.diff(lam) > 0.0).all():
            raise ValueError("mode rates must be strictly increasing")
        object.__setattr__(self, "lambdas", lam)
        object.__setattr__(self, "a_star", 2.0 / lam)

    @property
    def n_modes(self) -> int:
        return self.lambdas.size


def _avec(state) -> np.ndarray:
    a = np.asarray(state, dtype=float)
    if not (a > 0.0).all():
        raise ValueError("mode variances must be positive")
    return a


def spectrum(spec: ChainSpec) -> ModeSpectrum:
    """Mode rates lambda_k = 4 sin^2(k pi / (2 n_beads)), k = 1 ... n_beads - 1:
    the Rouse spectrum, the eigenvalues of the free-ended chain's path-graph
    Laplacian without its zero mode."""
    k = np.arange(1, spec.n_beads)
    lam = 4.0 * np.sin(k * np.pi / (2 * spec.n_beads)) ** 2
    return ModeSpectrum(lambdas=lam)


def analytic_variance(spec: ChainSpec, spect: ModeSpectrum, k,
                      t) -> float | np.ndarray:
    """Closed-form a_k(t) = (2/lambda_k)(1 + (T_tilde - 1) e^{-2 lambda_k t}).

    The mode index k and the time t broadcast against each other, e.g.
    ``np.arange(n)`` against ``ts[:, None]``; a scalar k and t give a float.
    """
    lam = spect.lambdas[k]
    a = (2.0 / lam) * (1.0 + (spec.t_tilde - 1.0) * np.exp(-2.0 * lam * t))
    return float(a) if a.ndim == 0 else a


def ode_rhs(spect: ModeSpectrum, state) -> np.ndarray:
    """Mode velocities da_k/dt = -2 lambda_k (a_k - a*_k), per state."""
    return -2.0 * spect.lambdas * (_avec(state) - spect.a_star)


class ChainTrajectory:
    """Closed-form relaxation a(t) = a* + (x0 - a*) e^{-2 lambda t}.

    The exact solution of :func:`ode_rhs` from any positive start ``x0``,
    i.e. the Fisher gradient flow of F, with position, velocity and
    acceleration read off the formula.  Like
    :class:`~geoflow.manifold.Trajectory`, each takes a scalar t, giving
    shape ``(n_modes,)``, or an array of times, giving
    ``t.shape + (n_modes,)``; ``position_velocity`` gives both from one
    exponential.  A time outside ``span`` raises
    :class:`~geoflow.errors.OutOfSpanError`.

    A start of shape ``(n_modes, 1)`` is a batch of one-mode curves: row
    k relaxes mode k alone, from ``x0[k]``.  Its span ends and ``ts``
    then have one entry (row) per mode, a query's times have the modes on
    their leading axis (``(n_modes,)`` or ``(n_modes, n)``, giving
    ``(n_modes, 1)`` or ``(n_modes, n, 1)``), and ``traj[k]`` is row k as
    a one-mode curve of its own.

    The span ends once the Fisher speed |grad F| has surely fallen to
    STOP_RTOL of its own start value, and nowhere else.  Mode k's
    speed |v_k| / (sqrt2 a_k), relative to its start, is
    e x0_k / (a*_k + (x0_k - a*_k) e) with e = e^{-2 lambda_k t}, which
    is at most max(1, x0_k / a*_k) e.  So every mode, and with them the
    whole speed, is down to STOP_RTOL by
    max_k ln(max(1, x0_k / a*_k) / STOP_RTOL) / (2 lambda_k); a mode
    that starts at a*_k never moves and counts 0, so a start at a*
    spans [0, 0].  The bound is one closed form for one curve, a batch
    row and any number of modes, so a batch row's span is its one-curve
    span bit for bit.  ``ts``, ``xs`` and ``vs`` hold the two ends of
    the span.  A cold start, 0 < x0 < a* in every mode, thus ends at
    ln(1 / STOP_RTOL) / (2 lambda_min), and a hot one later.
    """

    def __init__(self, spect: ModeSpectrum, x0):
        x0 = _avec(x0)
        self._rate = (2.0 * spect.lambdas).reshape(x0.shape)
        self._a_star = spect.a_star.reshape(x0.shape)
        self._d0 = x0 - self._a_star
        ratio = np.maximum(1.0, x0 / self._a_star)
        t_mode = np.where(self._d0 == 0.0, 0.0,
                          np.log(ratio / STOP_RTOL) / self._rate)
        t_stop = t_mode.max(axis=-1)
        self.ts = np.stack([np.zeros_like(t_stop), t_stop], axis=-1)
        self.xs, self.vs = self.position_velocity(self.ts)

    @property
    def span(self) -> tuple[float, float | np.ndarray]:
        end = self.ts[..., -1]
        return 0.0, float(end) if end.ndim == 0 else end

    def __getitem__(self, k: int) -> "ChainTrajectory":
        row = object.__new__(ChainTrajectory)
        row._rate, row._a_star, row._d0 = (self._rate[k], self._a_star[k],
                                           self._d0[k])
        row.ts, row.xs, row.vs = self.ts[k], self.xs[k], self.vs[k]
        return row

    def _terms(self, t):
        """Rate, a*, x0 - a* and the decay, each shaped for the times t."""
        t = span_times(t, self.span)
        terms = self._rate, self._a_star, self._d0
        if self._rate.ndim == 2:    # a batch: the rows run down t's first axis
            shape = (-1,) + (1,) * max(t.ndim - 1, 0) + (1,)
            terms = tuple(v.reshape(shape) for v in terms)
        rate, a_star, d0 = terms
        return rate, a_star, d0, np.exp(-(t[..., None] * rate))

    def position(self, t) -> np.ndarray:
        return self.position_velocity(t)[0]

    def velocity(self, t) -> np.ndarray:
        return self.position_velocity(t)[1]

    def position_velocity(self, t) -> tuple[np.ndarray, np.ndarray]:
        rate, a_star, d0, decay = self._terms(t)
        return a_star + d0 * decay, -rate * d0 * decay

    def acceleration(self, t) -> np.ndarray:
        rate, _, d0, decay = self._terms(t)
        return rate ** 2 * d0 * decay


def chain_flow(spect: ModeSpectrum):
    """The race's flow on closed-form curves: ``flow(x1_0, x2_0)`` gives
    the :class:`ChainTrajectory` of each side, each ending at its own
    stop time."""
    def flow(x1_0, x2_0):
        return ChainTrajectory(spect, x1_0), ChainTrajectory(spect, x2_0)
    return flow


def potential_F(spect: ModeSpectrum, state) -> float | np.ndarray:
    """F = sum_k lambda_k (a*/a - ln(a*/a) - 1); zero only at equilibrium.

    One state gives a float; a stack of states ``(n, n_modes)`` gives
    their n values.
    """
    value = _potential(spect.lambdas, spect.a_star, _avec(state))
    return float(value) if value.ndim == 0 else value


def _potential(lam, a_star, a) -> np.ndarray:
    r = a_star / a
    return np.sum(lam * (r - np.log(r) - 1.0), axis=-1)


def cubic_closed_form(spect: ModeSpectrum, state,
                      k: int) -> float | np.ndarray:
    """F-acceleration of mode k: 2 lambda_k (a*/a)(adot/a)^2, adot on-flow.

    Equal to minus the straightening-connection cubic C(xd, xd, xd) of the
    single-mode model at lam=0.  One state gives a float; a stack of
    states ``(n, n_modes)`` gives their n values.
    """
    a = _avec(state)[..., k]
    adot = ode_rhs(spect, state)[..., k]
    c = 2.0 * spect.lambdas[k] * (spect.a_star[k] / a) * (adot / a) ** 2
    return float(c) if c.ndim == 0 else c


def scalar_curvature_mode(spect: ModeSpectrum, k: int,
                          a) -> float | np.ndarray:
    """Closed-form scalar curvature a (a - 5 a*) / (a - a*)^2 of mode k.

    One variance gives a float; an array of variances gives an array.

    Raises
    ------
    SingularCurvatureError
        If any a lies within |a - a*| < 1e-6 a*: the straightened geometry
        degenerates on the equilibrium set.
    """
    astar = spect.a_star[k]
    if (abs(a - astar) < 1e-6 * astar).any():
        raise SingularCurvatureError(
            f"curvature of mode {k} diverges at a = a* = {astar}")
    s = a * (a - 5.0 * astar) / (a - astar) ** 2
    return float(s) if s.ndim == 0 else s


#: bound on |u - ln u - target| / target in equidistant_temperatures; the
#: F-levels of the two starts then differ by at most
#: EQUIDISTANT_RTOL * target * sum_k lambda_k
EQUIDISTANT_RTOL = 1e-14

#: the hot ratios past this bound are refused by equidistant_temperatures:
#: at its bracket's upper end s = 2 ln(2 T_plus), the product T_plus s
#: overflows a float from T_plus ~ 1.27817e305
T_PLUS_MAX = 1.278e305


def equidistant_temperatures(t_plus: float) -> float:
    """The cold ratio T_minus < 1 that is F-equidistant with T_plus > 1.

    Solves u - ln u = 1/T_plus + ln T_plus for u = 1/T_minus > 1.
    Substituting u = 1/T_plus + s turns it into s / ln(1 + T_plus s) = 1,
    which :func:`~geoflow.comparison.bracketed_roots` solves to 4 eps
    relative in s on the bracket [2 (1 - 1/T_plus), 2 ln(2 T_plus)].
    Every intermediate value stays finite up to T_PLUS_MAX.  Unlike
    u - ln u, whose two sides agree to O((T_plus - 1)^2) near T_plus = 1,
    this form keeps T_minus accurate there.  Equidistance is mode-uniform
    because F depends on the start only through the common ratio
    a*/a = 1/T_tilde.

    Raises
    ------
    ValueError
        Unless 1 < t_plus <= T_PLUS_MAX.
    NonConvergenceError
        If the solve does not converge, or u misses u - ln u = target by
        more than EQUIDISTANT_RTOL relative to the target.
    """
    if not 1.0 < t_plus <= T_PLUS_MAX:
        raise ValueError(f"t_plus must exceed 1 and be at most T_PLUS_MAX = "
                         f"{T_PLUS_MAX:g}, got {t_plus}")

    def gap(s, _=None):
        return s / np.log1p(t_plus * s) - 1.0

    lo, hi = 2.0 * (1.0 - 1.0 / t_plus), 2.0 * np.log(2.0 * t_plus)
    s = bracketed_roots(gap, [lo], [hi], [gap(lo)], [gap(hi)], xtol=0.0)[0]
    u = 1.0 / t_plus + s
    target = 1.0 / t_plus + np.log(t_plus)
    residual = abs(u - np.log(u) - target)
    if not residual <= EQUIDISTANT_RTOL * target:
        raise NonConvergenceError(
            f"equidistant temperature for t_plus={t_plus}: residual "
            f"{residual:.3e} exceeds {EQUIDISTANT_RTOL} x {target:.6g}")
    return float(1.0 / u)


def chain_manifold(spect: ModeSpectrum) -> tuple[MetricField, ScalarPotential]:
    """Variance chart with the diagonal Fisher metric and potential F."""
    chart = Chart(spect.n_modes, domain_check=lambda a: (a > 0.0).all(axis=-1),
                  name="mode-variances")
    # d_l g_ii = -1/a_i^3 at l = i only: the metric is separable
    g = MetricField(chart, diagonal=lambda a: 1.0 / (2.0 * a ** 2),
                    partials=lambda a: _diag_matrix(-1.0 / a ** 3),
                    name="fisher-variance")

    def grad(a):
        return spect.lambdas * (a - spect.a_star) / a ** 2

    f = ScalarPotential(lambda a: potential_F(spect, a), gradient=grad,
                        minimum_q=spect.a_star.copy(), name="chain-potential")
    return g, f


def mode_manifold(spect: ModeSpectrum,
                  k: int) -> tuple[MetricField, ScalarPotential]:
    """Single-mode restriction of the chain manifold (1-D variance chart)."""
    return chain_manifold(_mode_spectrum(spect, k))


def _mode_spectrum(spect: ModeSpectrum, k: int) -> ModeSpectrum:
    return ModeSpectrum(lambdas=spect.lambdas[k:k + 1])


def _mode_rows(spect: ModeSpectrum) -> tuple[MetricField, ScalarPotential]:
    """Every mode's :func:`mode_manifold` at once, for a batched race.

    A point stack's leading axis runs over the modes: row k of an
    ``(n_modes, 1)`` or ``(n_modes, n, 1)`` stack holds states of mode k.
    The one-mode Fisher metric 1/(2 a^2) has no rate in it, so one
    metric serves every row; the potential takes row k's lambda_k and
    a*_k.
    """
    g, _ = mode_manifold(spect, 0)

    def value(a):
        lam, a_star = (v.reshape((-1,) + (1,) * (a.ndim - 1))
                       for v in (spect.lambdas, spect.a_star))
        return _potential(lam, a_star, _avec(a))

    f = ScalarPotential(value, minimum_q=spect.a_star[:, None],
                        name="mode-potentials")
    return g, f


def mode_plane_manifold(spect: ModeSpectrum,
                        k: int) -> tuple[MetricField, ScalarPotential]:
    """Mode k on the (mean, variance) chart.

    g = (2/a) dmu^2 + 1/(2a^2) da^2 with the mean relaxed at 0; the
    potential still depends on the variance alone.  The extra dimension is
    what gives the straightened connection visible curvature; on the pure
    variance line every curvature tensor vanishes identically.
    """
    lam = spect.lambdas[k]
    astar = spect.a_star[k]
    chart = Chart(2, domain_check=lambda x: x[..., 1] > 0.0,
                  name="mode-plane")

    def diagonal(x):
        a = x[..., 1]
        return np.stack([2.0 / a, 1.0 / (2.0 * a ** 2)], axis=-1)

    def partials(x):
        # row l = 0 vanishes: g depends on the variance a alone
        a = x[..., 1:]
        d1 = np.concatenate([-2.0 / a ** 2, -1.0 / a ** 3], axis=-1)
        return np.stack([np.zeros(x.shape), d1], axis=-2)

    g = MetricField(chart, diagonal=diagonal, partials=partials,
                    name="fisher-mode-plane")

    def value(x):
        r = astar / x[..., 1]
        return lam * (r - np.log(r) - 1.0)

    def grad(x):
        d = np.zeros(x.shape)
        d[..., 1] = lam * (x[..., 1] - astar) / x[..., 1] ** 2
        return d

    f = ScalarPotential(value, gradient=grad,
                        minimum_q=np.array([0.0, astar]),
                        name=f"mode-{k}-potential")
    return g, f


@dataclass
class ExperimentResult:
    """Full-chain and per-mode warming/cooling comparison outcome."""

    spec: ChainSpec
    spect: ModeSpectrum
    t_plus: float
    t_minus: float
    pair: EquidistantPair
    full: AsymmetryReport
    modes: list[AsymmetryReport] = field(default_factory=list)


#: every variance below this bound has a finite cube, as the Fisher
#: metric's partials -1/a^3 need; a hot start at or past it is refused
A_MAX = float(np.cbrt(np.finfo(float).max))


def universal_asymmetry_experiment(spec: ChainSpec, t_plus: float,
                                   per_mode: bool = True) -> ExperimentResult:
    """Warming/cooling race from F-equidistant temperature quenches.

    Curve 1 is the cold (warming) start a- = T_minus a*, curve 2 the hot
    (cooling) start a+ = T_plus a*.  Both relax along closed-form
    :class:`ChainTrajectory` curves, so nothing is integrated and there
    is no tolerance to set.  :func:`~geoflow.comparison.compare` races
    the full chain; with ``per_mode``, one
    :func:`~geoflow.comparison.compare_batch` call races all N - 1 modes,
    mode k on its own one-mode manifold, each report the one ``compare``
    would give.  At ``t_plus = 1`` both starts sit at equilibrium and
    never move, so every race is a no-race: Inconclusive, with the
    no-race note of :func:`~geoflow.comparison.compare`.  No horizon is
    set: each curve ends at its own stop time, and every race runs up to
    the shorter one, the cold start's ln(1 / STOP_RTOL) / (2 lambda_k)
    (lambda_min for the full chain).

    Raises
    ------
    ValueError
        If t_plus < 1, or if the hot start's slowest mode reaches
        :data:`A_MAX`, where the metric's partials overflow to zero and
        the verdict would come from the overflow.
    """
    if t_plus < 1.0:
        raise ValueError(f"t_plus must be >= 1, got {t_plus}")
    spect = spectrum(spec)
    # Python floats: a product past the float range is inf, not a warning
    a_hot = float(t_plus) * float(spect.a_star[0])
    if a_hot >= A_MAX:
        raise ValueError(
            f"t_plus={t_plus} puts the slowest mode's hot start at "
            f"a = {a_hot:.6g}, whose cube overflows a float; it must stay "
            f"below {A_MAX:.6g}, i.e. t_plus < {A_MAX / spect.a_star[0]:.6g}")
    t_minus = 1.0 if t_plus == 1.0 else equidistant_temperatures(t_plus)
    a_minus = t_minus * spect.a_star
    a_plus = t_plus * spect.a_star
    flow = chain_flow(spect)

    def pair(f, x_minus, x_plus):
        # the temperature solve pins the two levels together to within
        # EQUIDISTANT_RTOL; quote their midpoint so seed validation sees
        # both gaps half-sized
        return EquidistantPair(x_minus, x_plus,
                               0.5 * (f(x_plus) + f(x_minus)))

    g, f = chain_manifold(spect)
    full = compare(g, f, pair(f, a_minus, a_plus), flow=flow)
    modes = []
    if per_mode:
        g, f = _mode_rows(spect)
        modes = compare_batch(g, f, pair(f, a_minus[:, None], a_plus[:, None]),
                              flow)

    return ExperimentResult(spec=spec, spect=spect, t_plus=t_plus,
                            t_minus=t_minus,
                            pair=EquidistantPair(a_minus, a_plus, full.level),
                            full=full, modes=modes)
