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
from functools import partial

import numpy as np
from scipy.optimize import brentq

from .comparison import (
    _GRID,
    INCONCLUSIVE,
    STOP_GRAD_NORM,
    AsymmetryReport,
    EquidistantPair,
    compare,
)
from .errors import NonConvergenceError, SingularCurvatureError
from .manifold import Chart, MetricField, ScalarPotential, span_times

__all__ = [
    "ChainSpec",
    "ModeSpectrum",
    "ModeState",
    "ExperimentResult",
    "chain_laplacian",
    "spectrum",
    "analytic_variance",
    "ode_rhs",
    "ChainTrajectory",
    "potential_F",
    "fisher_block",
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

    @property
    def n_modes(self) -> int:
        return self.n_beads - 1


@dataclass(frozen=True)
class ModeSpectrum:
    """Ascending mode rates and their equilibrium variances a* = 2/lambda."""

    lambdas: np.ndarray
    a_star: np.ndarray

    def __post_init__(self):
        lam = np.asarray(self.lambdas, dtype=float)
        if lam.ndim != 1 or lam.size == 0:
            raise ValueError("spectrum needs a nonempty rate vector")
        if not (lam > 0.0).all():
            raise ValueError("mode rates must be positive")
        if not (np.diff(lam) > 0.0).all():
            raise ValueError("mode rates must be strictly increasing")
        object.__setattr__(self, "lambdas", lam)
        object.__setattr__(self, "a_star", np.asarray(self.a_star, dtype=float))

    @property
    def n_modes(self) -> int:
        return self.lambdas.size


@dataclass(frozen=True)
class ModeState:
    """Mode variances at a time point."""

    a: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        if not (a > 0.0).all():
            raise ValueError("mode variances must be positive")
        object.__setattr__(self, "a", a)


def _avec(state) -> np.ndarray:
    a = state.a if isinstance(state, ModeState) else np.asarray(state,
                                                                dtype=float)
    if not (a > 0.0).all():
        raise ValueError("mode variances must be positive")
    return a


def chain_laplacian(n_beads: int) -> np.ndarray:
    """Path-graph Laplacian of the bead connectivity (free ends)."""
    lap = 2.0 * np.eye(n_beads)
    lap[0, 0] = lap[-1, -1] = 1.0
    idx = np.arange(n_beads - 1)
    lap[idx, idx + 1] = -1.0
    lap[idx + 1, idx] = -1.0
    return lap


def spectrum(spec: ChainSpec) -> ModeSpectrum:
    """Mode rates: Laplacian eigenvalues, zero (center-of-mass) mode dropped."""
    evals = np.linalg.eigvalsh(chain_laplacian(spec.n_beads))
    lam = np.sort(evals)[1:]
    return ModeSpectrum(lambdas=lam, a_star=2.0 / lam)


def analytic_variance(spec: ChainSpec, spect: ModeSpectrum, k: int,
                      t: float) -> float:
    """Closed-form a_k(t) = (2/lambda_k)(1 + (T_tilde - 1) e^{-2 lambda_k t})."""
    lam = spect.lambdas[k]
    return float((2.0 / lam) * (1.0 + (spec.t_tilde - 1.0)
                                * np.exp(-2.0 * lam * t)))


def ode_rhs(spect: ModeSpectrum, state) -> np.ndarray:
    """Mode velocities da_k/dt = -2 lambda_k (a_k - a*_k)."""
    return -2.0 * spect.lambdas * (_avec(state) - spect.a_star)


class ChainTrajectory:
    """Closed-form relaxation a(t) = a* + (x0 - a*) e^{-2 lambda t}.

    The exact solution of :func:`ode_rhs` from any positive start ``x0``,
    i.e. the Fisher gradient flow of F, with position, velocity and
    acceleration read off the formula.  Like
    :class:`~geoflow.manifold.Trajectory`, each takes a scalar t, giving
    shape ``(n_modes,)``, or a 1-D array of n times, giving
    ``(n, n_modes)``; the rates broadcast against t through
    ``np.multiply.outer``.  A time outside ``span`` raises
    :class:`~geoflow.errors.OutOfSpanError`.

    The span ends at the first time the Fisher |grad F| (the speed, which
    falls monotonically) reaches the comparison's STOP_GRAD_NORM, found by
    brentq and capped at ``t_end``; ``converged`` is True when the cap
    does not bind.  ``ts``, ``xs`` and ``vs`` hold the two ends of the
    span, and ``exited_domain`` is always False: the variances stay
    positive.
    """

    def __init__(self, spect: ModeSpectrum, x0, t_end: float):
        self._rate = 2.0 * spect.lambdas
        self._a_star = spect.a_star
        self._d0 = _avec(x0) - spect.a_star

        def excess(t):
            return self._speed(t) - STOP_GRAD_NORM

        # the stop time is searched for on [0, t_end]
        self.ts = np.array([0.0, float(t_end)])
        self.converged = excess(t_end) <= 0.0
        if excess(0.0) <= 0.0:
            t_stop = 0.0
        elif not self.converged:
            t_stop = float(t_end)
        else:
            t_stop = brentq(excess, 0.0, t_end, xtol=1e-12)
        self.ts = np.array([0.0, t_stop])
        self.xs = self.position(self.ts)
        self.vs = self.velocity(self.ts)
        self.exited_domain = False

    @property
    def span(self) -> tuple[float, float]:
        return 0.0, float(self.ts[-1])

    def _speed(self, t: float) -> float:
        a = self.position(t)
        return float(np.sqrt(np.sum(self.velocity(t) ** 2 / (2.0 * a ** 2))))

    def _decay(self, t) -> np.ndarray:
        return np.exp(-np.multiply.outer(span_times(t, self.span),
                                         self._rate))

    def position(self, t) -> np.ndarray:
        return self._a_star + self._d0 * self._decay(t)

    def velocity(self, t) -> np.ndarray:
        return -self._rate * self._d0 * self._decay(t)

    def acceleration(self, t) -> np.ndarray:
        return self._rate ** 2 * self._d0 * self._decay(t)


def potential_F(spect: ModeSpectrum, state) -> float | np.ndarray:
    """F = sum_k lambda_k (a*/a - ln(a*/a) - 1); zero only at equilibrium.

    One state gives a float; a stack of states ``(n, n_modes)`` gives
    their n values.
    """
    r = spect.a_star / _avec(state)
    value = np.sum(spect.lambdas * (r - np.log(r) - 1.0), axis=-1)
    return float(value) if value.ndim == 0 else value


def fisher_block(state, k: int) -> float:
    """Variance-block Fisher metric component 1/(2 a_k^2)."""
    a = _avec(state)
    return float(1.0 / (2.0 * a[k] ** 2))


def cubic_closed_form(spect: ModeSpectrum, state, k: int) -> float:
    """F-acceleration of mode k: 2 lambda_k (a*/a)(adot/a)^2, adot on-flow.

    Equal to minus the straightening-connection cubic C(xd, xd, xd) of the
    single-mode model at lam=0.
    """
    a = _avec(state)[k]
    adot = ode_rhs(spect, state)[k]
    lam = spect.lambdas[k]
    return float(2.0 * lam * (spect.a_star[k] / a) * (adot / a) ** 2)


def scalar_curvature_mode(spect: ModeSpectrum, k: int, a: float) -> float:
    """Closed-form scalar curvature a (a - 5 a*) / (a - a*)^2 of mode k.

    Raises
    ------
    SingularCurvatureError
        Within |a - a*| < 1e-6 a*: the straightened geometry degenerates on
        the equilibrium set.
    """
    astar = spect.a_star[k]
    if abs(a - astar) < 1e-6 * astar:
        raise SingularCurvatureError(
            f"curvature of mode {k} diverges at a = a* = {astar}")
    return float(a * (a - 5.0 * astar) / (a - astar) ** 2)


#: bound on |u - ln u - target| / target in equidistant_temperatures; the
#: F-levels of the two starts then differ by at most
#: EQUIDISTANT_RTOL * target * sum_k lambda_k
EQUIDISTANT_RTOL = 1e-14


def equidistant_temperatures(t_plus: float) -> float:
    """The cold ratio T_minus < 1 that is F-equidistant with T_plus > 1.

    Solves u - ln u = 1/T_plus + ln T_plus for u = 1/T_minus > 1.
    Substituting u = (1 + v)/T_plus turns it into v / ln(1 + v) = T_plus,
    which brentq solves to a few ulp of v on the bracket
    [2 (T_plus - 1), 2 T_plus ln(2 T_plus)].  Unlike u - ln u, whose
    two sides agree to O((T_plus - 1)^2) near T_plus = 1, this form keeps
    T_minus accurate there.  Equidistance is mode-uniform because F
    depends on the start only through the common ratio a*/a = 1/T_tilde.

    Raises
    ------
    ValueError
        Unless 1 < t_plus < inf.
    NonConvergenceError
        If u misses u - ln u = target by more than EQUIDISTANT_RTOL
        relative to the target.
    """
    if not 1.0 < t_plus < np.inf:
        raise ValueError(f"t_plus must exceed 1 and be finite, got {t_plus}")
    v = brentq(lambda v: v / np.log1p(v) - t_plus, 2.0 * (t_plus - 1.0),
               2.0 * t_plus * np.log(2.0 * t_plus), xtol=1e-300,
               disp=False)
    u = (1.0 + v) / t_plus
    target = 1.0 / t_plus + np.log(t_plus)
    residual = abs(u - np.log(u) - target)
    if not residual <= EQUIDISTANT_RTOL * target:
        raise NonConvergenceError(
            f"equidistant temperature for t_plus={t_plus}: residual "
            f"{residual:.3e} exceeds {EQUIDISTANT_RTOL} x {target:.6g}")
    return float(1.0 / u)


def _chain_chart(n: int) -> Chart:
    return Chart(n, domain_check=lambda a: bool((a > 0.0).all()),
                 name="mode-variances")


def chain_manifold(spect: ModeSpectrum) -> tuple[MetricField, ScalarPotential]:
    """Variance chart with the diagonal Fisher metric and potential F."""
    n = spect.n_modes
    chart = _chain_chart(n)
    eye = np.eye(n)

    def matrix(a):
        return (1.0 / (2.0 * a ** 2))[..., None] * eye

    def partials(a):
        d = np.zeros((n, n, n))
        idx = np.arange(n)
        d[idx, idx, idx] = -1.0 / a ** 3
        return d

    g = MetricField(chart, matrix, partials=partials, name="fisher-variance")

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
    return ModeSpectrum(lambdas=spect.lambdas[k:k + 1],
                        a_star=spect.a_star[k:k + 1])


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
    chart = Chart(2, domain_check=lambda x: x[1] > 0.0, name="mode-plane")

    def matrix(x):
        a = x[..., 1]
        m = np.zeros(x.shape[:-1] + (2, 2))
        m[..., 0, 0] = 2.0 / a
        m[..., 1, 1] = 1.0 / (2.0 * a ** 2)
        return m

    def partials(x):
        a = x[1]
        d = np.zeros((2, 2, 2))
        d[1, 0, 0] = -2.0 / a ** 2
        d[1, 1, 1] = -1.0 / a ** 3
        return d

    g = MetricField(chart, matrix, partials=partials, name="fisher-mode-plane")

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

    @property
    def warming_faster(self) -> bool:
        return self.full.verdict == "Curve1Faster"


def universal_asymmetry_experiment(spec: ChainSpec, t_plus: float,
                                   t_end: float,
                                   per_mode: bool = True) -> ExperimentResult:
    """Warming/cooling race from F-equidistant temperature quenches.

    Curve 1 is the cold (warming) start a- = T_minus a*, curve 2 the hot
    (cooling) start a+ = T_plus a*.  Both relax along closed-form
    :class:`ChainTrajectory` curves, so nothing is integrated and there
    is no tolerance to set; the generic comparison races them for the
    full chain and (optionally) each mode.  ``t_plus = 1`` degenerates to
    the chain paired with itself, delta_F identically zero.
    """
    if t_plus < 1.0:
        raise ValueError(f"t_plus must be >= 1, got {t_plus}")
    spect = spectrum(spec)
    t_minus = 1.0 if t_plus == 1.0 else equidistant_temperatures(t_plus)
    a_minus = t_minus * spect.a_star
    a_plus = t_plus * spect.a_star
    subs = ([_mode_spectrum(spect, k) for k in range(spect.n_modes)]
            if per_mode else [])

    if t_plus == 1.0:
        full = _degenerate_report(spect, a_plus, t_end)
        modes = [_degenerate_report(sub, a_plus[k:k + 1], t_end)
                 for k, sub in enumerate(subs)]
    else:
        def race(sp, x_minus, x_plus):
            g, f = chain_manifold(sp)
            # the temperature solve pins the two levels together to within
            # EQUIDISTANT_RTOL; quote their midpoint so seed validation
            # sees both gaps half-sized
            level = 0.5 * (f(x_plus) + f(x_minus))
            return compare(g, f, 0.0, EquidistantPair(x_minus, x_plus, level),
                           t_end, flow=partial(ChainTrajectory, sp,
                                               t_end=t_end))

        full = race(spect, a_minus, a_plus)
        modes = [race(sub, a_minus[k:k + 1], a_plus[k:k + 1])
                 for k, sub in enumerate(subs)]

    return ExperimentResult(spec=spec, spect=spect, t_plus=t_plus,
                            t_minus=t_minus,
                            pair=EquidistantPair(a_minus, a_plus, full.level),
                            full=full, modes=modes)


def _degenerate_report(spect: ModeSpectrum, x0: np.ndarray,
                       t_end: float) -> AsymmetryReport:
    """Self-paired comparison: one trajectory serves as both curves."""
    traj = ChainTrajectory(spect, x0, t_end)
    ts = np.linspace(0.0, traj.span[1], _GRID)
    fv = potential_F(spect, traj.position(ts))
    return AsymmetryReport(
        ts=ts, delta_f=np.zeros_like(ts), f1=fv, f2=fv,
        coincidence_times=[], cubic_gaps=[], verdict=INCONCLUSIVE,
        notes=["degenerate self-pair: both curves share one seed, "
               "delta_f is identically zero"],
        traj1=traj, traj2=traj, level=float(fv[0]))
