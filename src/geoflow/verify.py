"""The invariant battery: one source of truth for every shipped guarantee.

Each suite checks the mathematical contracts of one module and reports
the worst measured discrepancy next to the tolerance it was held to.
``geoflow verify`` runs the battery so an installed copy can certify
itself from the command line, and ``tests/test_acceptance.py`` asserts
that every check passes; no invariant is computed anywhere else.

Each suite draws from its own generator, seeded by ``[seed, index]``
with the suite's index in :data:`SUITE_NAMES`, so a suite run alone
samples exactly what it samples inside the full battery.

``flip_nonmetricity_sign=True`` negates the closed-form non-metricity
route before comparison.  That is a negative control: the definition
route is untouched, so the agreement check must fail, proving the
battery can actually catch a wrong sign.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numdiff
from .comparison import (
    CURVE1_FASTER,
    DELTA_TOL,
    TIE_NOTE,
    compare,
    equidistant_seed,
)
from .dually_flat import (
    HessianModel,
    canonical_divergence,
    exponential_model,
    fujiwara_amari_residual,
    gaussian_natural_model,
    quadratic_model,
)
from .fixtures import (
    COMPARE_MODELS,
    distance_squared_potential,
    euclidean_quadratic,
    gaussian_mode,
    hessian_exp,
    sphere_height,
    two_mode_chain,
)
from .gaussian_chain import (
    ChainSpec,
    analytic_variance,
    chain_manifold,
    cubic_closed_form,
    equidistant_temperatures,
    mode_manifold,
    mode_plane_manifold,
    ode_rhs,
    scalar_curvature_mode,
    spectrum,
    universal_asymmetry_experiment,
)
from .manifold import (
    covariant_acceleration,
    grad_norm_sq,
    gradient,
    integrate_flow,
    integrate_geodesic,
    levi_civita_connection,
)
from .straightening import (
    EPS_GRAD,
    Submanifold,
    nonmetricity_closed_tensor,
    nonmetricity_cubic,
    nonmetricity_tensor,
    pregeodesic_residual,
    projection_orthogonality,
    scalar_curvature,
    straightening_connection,
)

__all__ = ["CheckResult", "SUITE_NAMES", "run_suites"]

#: the gaussian-mode race's level, F at T = 2, as ``geoflow compare`` seeds it
MODE_LEVEL = COMPARE_MODELS["gaussian-mode"].level


@dataclass(frozen=True)
class CheckResult:
    """One invariant check: worst measured value against its tolerance.

    ``passed`` is stored as a ``bool`` and ``measured``/``tolerance`` as
    ``float``, whatever numpy scalar types a check computed them in.
    """

    suite: str
    name: str
    passed: bool
    measured: float
    tolerance: float
    detail: str = ""

    def __post_init__(self):
        for name, cast in (("passed", bool), ("measured", float),
                           ("tolerance", float)):
            object.__setattr__(self, name, cast(getattr(self, name)))


def _fixture_points(rng, name, n):
    """``n`` random in-domain sample points for each named fixture."""
    if name == "euclidean-quadratic":
        pts = rng.uniform(-2.0, 2.0, size=(n, 2))
        while (near := np.linalg.norm(pts, axis=1) <= 0.05).any():
            pts[near] = rng.uniform(-2.0, 2.0, size=(near.sum(), 2))
        return pts
    if name == "gaussian-mode":
        # both sides of the equilibrium a* = 1
        hot = rng.uniform(1.2, 5.0, size=n)
        cold = rng.uniform(0.25, 0.8, size=n)
        return np.where(rng.random(n) < 0.5, hot, cold)[:, None]
    if name == "two-mode":
        return rng.uniform(0.3, 4.0, size=(n, 2))
    if name == "sphere":
        th = rng.uniform(0.3, np.pi - 0.3, size=n)
        ph = rng.uniform(0.0, 6.0, size=n)
        return np.column_stack([th, ph])
    if name == "hessian-exp":
        return rng.uniform(-1.5, 1.5, size=(n, 1))
    raise ValueError(f"unknown fixture {name!r}")


def _worst_rel(got, want) -> float:
    """max |got - want| / max(1, |want|) over paired values; 0 for none."""
    return float(np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want)),
                        initial=0.0))


def _segment_midpoints(traj, n):
    ts = traj.ts
    if len(ts) < 2:
        return np.array([ts[0]])
    mids = 0.5 * (ts[:-1] + ts[1:])
    idx = np.linspace(0, len(mids) - 1, min(n, len(mids))).astype(int)
    return mids[idx]


def _lambda_defect(g, f, x0) -> float:
    """Largest |nabla~_xd xd - lam grad f| component along a descent flow.

    The flow starts at x0; the worst is over 8 step midpoints and lam in
    {0, 1}.  Gamma~(xd, xd) = Gamma^g(xd, xd) - |xd|^2 Z, and Z comes
    from 1/2 grad |grad f|^2, so this compares the curve's acceleration
    plus Gamma^g(xd, xd) with that finite difference along the curve.  On
    the bowl, grad f is linear and |grad f|^2 quadratic, so the stencil is
    exact there and only hessian-exp shows the step.
    """
    traj = integrate_flow(g, f, x0, 1.0, tol=1e-10)
    ts = _segment_midpoints(traj, 8)
    worst = 0.0
    for lam in (0.0, 1.0):
        acc = covariant_acceleration(straightening_connection(g, f, lam),
                                     traj, ts)
        want = lam * gradient(g, f, traj.position(ts))
        worst = max(worst, float(np.abs(acc - want).max()))
    return worst


# ------------------------------------------------------------ manifold-core


def _suite_manifold(rng) -> list[CheckResult]:
    out = []
    fixtures = [("sphere", *sphere_height()),
                ("gaussian-mode", *gaussian_mode()),
                ("euclidean-quadratic", *euclidean_quadratic())]

    # directional derivative of g(V, W) along random curves equals the
    # covariant product rule for the metric connection
    worst = 0.0
    h = 1e-5
    for name, g, _ in fixtures:
        x = _fixture_points(rng, name, 20)
        # per point: the direction v, then V = v0 + t v1 and W = w0 + t w1
        v, v0, v1, w0, w1 = np.moveaxis(
            rng.standard_normal((len(x), 5, g.chart.dim)), 1, 0)
        keep = [g.chart.contains(p + 2 * h * d)
                and g.chart.contains(p - 2 * h * d) for p, d in zip(x, v)]
        x, v, v0, v1, w0, w1 = (a[keep] for a in (x, v, v0, v1, w0, w1))

        def gvw(t):
            return g.inner(x + t * v, v0 + t * v1, w0 + t * w1)

        lhs = (-gvw(2 * h) + 8 * gvw(h) - 8 * gvw(-h) + gvw(-2 * h)) / (12 * h)
        gam = levi_civita_connection(g)(x)
        dv = v1 + np.einsum("...kij,...i,...j->...k", gam, v, v0)
        dw = w1 + np.einsum("...kij,...i,...j->...k", gam, v, w0)
        worst = max(worst, _worst_rel(lhs, g.inner(x, dv, w0)
                                      + g.inner(x, v0, dw)))
    out.append(CheckResult("manifold-core", "metric-compatibility",
                           worst < 1e-6, worst, 1e-6,
                           "product rule for g(V,W) along random curves"))

    # g(grad f, w) against df(w), closing the loop through the inverse
    worst = 0.0
    for name, g, f in fixtures:
        x = _fixture_points(rng, name, 100)
        w = rng.standard_normal(x.shape)
        lhs = g.inner(x, gradient(g, f, x), w)
        rhs = np.einsum("...i,...i->...", f.gradient_covector(x), w)
        worst = max(worst, _worst_rel(lhs, rhs))
    out.append(CheckResult("manifold-core", "gradient-duality",
                           worst < 1e-8, worst, 1e-8,
                           "g(grad f, w) = df(w), 100 points per fixture"))

    # df/dt = -|xdot|^2 along flows
    worst = 0.0
    for g, f, x0 in [(*gaussian_mode(), np.array([2.5])),
                     (*euclidean_quadratic(), np.array([1.2, -0.7]))]:
        traj = integrate_flow(g, f, x0, 2.0, tol=1e-10)
        ts = _segment_midpoints(traj, 12)
        fdot = numdiff.curve_derivative(lambda s: f(traj.position(s)), ts,
                                        traj.span)
        x, v = traj.position_velocity(ts)
        worst = max(worst, _worst_rel(-fdot, g.inner(x, v, v)))
    out.append(CheckResult("manifold-core", "energy-identity",
                           worst < 1e-6, worst, 1e-6,
                           "df/dt = -|velocity|^2_g on dense samples"))

    # geodesics carry vanishing covariant acceleration.  Pointwise values
    # from the dense interpolant float at ~tol^{4/5} (its derivative error),
    # so the check integrates the residual over each accepted step, which
    # is the defect the integrator actually bounds.
    g, _ = sphere_height()
    tol = 1e-10
    lc = levi_civita_connection(g)
    traj = integrate_geodesic(lc, [np.pi / 3, 0.2], [0.3, 0.8], 1.5, tol=tol)
    t0, t1 = traj.ts[:-1], traj.ts[1:]
    # five Simpson nodes per accepted step, all steps in one stack
    nodes = np.linspace(t0, t1, 5).ravel()
    x, v = traj.position_velocity(nodes)
    vals = np.einsum("...kij,...i,...j->...k", lc(x), v, v).reshape(
        5, len(t0), -1)
    h = ((t1 - t0) / 4.0)[:, None]
    integral = h / 3.0 * (vals[0] + 4 * vals[1] + 2 * vals[2]
                          + 4 * vals[3] + vals[4])
    worst = float(np.max(np.linalg.norm(traj.vs[1:] - traj.vs[:-1] + integral,
                                        axis=-1)))
    out.append(CheckResult("manifold-core", "geodesic-residual",
                           worst <= 10 * tol, worst, 10 * tol,
                           "step-integrated covariant acceleration on a "
                           "sphere geodesic"))

    # finite-difference metric partials converge to the analytic ones; in
    # the unit box the scaled step is h itself
    x = np.array([np.pi / 4, 0.3])
    ref = np.moveaxis(g.partials(x), 0, -1)
    e1, e2 = (np.abs(numdiff.jacobian_fd(g, x, scale=h) - ref).max()
              for h in (1e-2, 5e-3))
    ratio = e1 / max(e2, 1e-300)
    out.append(CheckResult("manifold-core", "fd-consistency",
                           ratio >= 3.5, ratio, 3.5,
                           "halving h shrinks the metric partials' error"))
    return out


# ------------------------------------------------------------ straightening


def _suite_straightening(rng, flip_sign=False) -> list[CheckResult]:
    from scipy.optimize import minimize_scalar

    out = []
    fixtures = [("euclidean-quadratic", *euclidean_quadratic()),
                ("gaussian-mode", *gaussian_mode()),
                ("two-mode", *two_mode_chain()),
                ("sphere", *sphere_height()),
                ("hessian-exp", *hessian_exp())]

    # gradient lines are pregeodesics of the straightened connection
    worst = 0.0
    for name, g, f in fixtures:
        for lam in (0.0, 1.0):
            x = _fixture_points(rng, name, 100)
            # the residual is undefined on the critical set
            x = x[grad_norm_sq(g, f, x) > EPS_GRAD ** 2]
            worst = max(worst, float(np.max(pregeodesic_residual(g, f, lam, x),
                                            initial=0.0)))
    out.append(CheckResult("straightening", "pregeodesic",
                           worst < 1e-8, worst, 1e-8,
                           "relative pregeodesic residual, lam in {0, 1}; "
                           "Jacobian + Christoffel route to nabla_v v "
                           "against the 1/2 grad |v|^2 that built Z"))

    # definition-based non-metricity against the closed form
    worst = 0.0
    sign = -1.0 if flip_sign else 1.0
    for name, g, f in fixtures[:4]:
        for lam in (0.0, 1.0):
            conn = straightening_connection(g, f, lam)
            x = _fixture_points(rng, name, 25)
            x = x[np.linalg.norm(f.gradient_covector(x), axis=-1) >= 1e-6]
            c_def = nonmetricity_tensor(conn, g, x)
            c_closed = sign * nonmetricity_closed_tensor(g, f, lam, x)
            # per point: the arguments W, X, Y of C(W, X, Y)
            w, xv, yv = np.moveaxis(
                rng.standard_normal((len(x), 3, g.chart.dim)), 1, 0)
            lhs, rhs = (np.einsum("...kij,...k,...i,...j->...", c, w, xv, yv)
                        for c in (c_def, c_closed))
            worst = max(worst, _worst_rel(lhs, rhs))
    out.append(CheckResult("straightening", "closed-form-nonmetricity",
                           worst < 1e-8, worst, 1e-8,
                           "definition route = product closed form, "
                           "lam in {0, 1}"
                           + (" [sign flipped: negative control]"
                              if flip_sign else "")))

    # the tensor is not totally symmetric: C(e2, e2, e1) != C(e1, e2, e2)
    g, f = two_mode_chain()
    c = nonmetricity_tensor(straightening_connection(g, f, 0.0), g,
                            np.array([3.0, 1.0]))
    witness = abs(c[1, 1, 0] - c[0, 1, 1])
    out.append(CheckResult("straightening", "asymmetric-nonmetricity",
                           witness > 1e-3, witness, 1e-3,
                           "argument-order asymmetry exceeds the floor"))

    # lam moves the covariant acceleration from 0 to grad f
    worst = max(_lambda_defect(*euclidean_quadratic(), [1.3, -0.7]),
                _lambda_defect(*hessian_exp(), [0.8]))
    out.append(CheckResult("straightening", "lambda-consistency",
                           worst < 1e-7, worst, 1e-7,
                           "flow acceleration is lam * grad f: bowl, "
                           "hessian-exp; it sees the gradient field's "
                           "derivatives and the metric partials"))

    # second-derivative identity along descent curves
    worst = 0.0
    for g, f, x0 in [(*gaussian_mode(), np.array([2.0])),
                     (*euclidean_quadratic(), np.array([1.3, -0.7])),
                     (*two_mode_chain(), np.array([3.0, 1.0]))]:
        traj = integrate_flow(g, f, x0, 1.0, tol=1e-10)
        ts = _segment_midpoints(traj, 10)
        fdot, fddot = (numdiff.curve_derivative(lambda s: f(traj.position(s)),
                                                ts, traj.span, order=order)
                       for order in (1, 2))
        for lam in (0.0, 1.0):
            c = nonmetricity_cubic(g, lam, traj, ts)
            worst = max(worst, _worst_rel(-c - 2.0 * lam * fdot, fddot))
    out.append(CheckResult("straightening", "identity-chain",
                           worst < 1e-5, worst, 1e-5,
                           "f'' + cubic + 2 lam f' = 0 on flows"))

    # the gradient meets a submanifold orthogonally at the constrained
    # minimizer of f, and visibly not half a radian away from it
    g, _ = euclidean_quadratic()
    f = distance_squared_potential(g, np.array([2.0, 0.0]))
    circle = Submanifold(
        lambda u: np.stack([np.cos(u[..., 0]), np.sin(u[..., 0])], axis=-1))
    foot = minimize_scalar(lambda u: f(circle.embed(np.array([u]))),
                           bounds=(-1.0, 1.0), method="bounded",
                           options={"xatol": 1e-12}).x
    g2, f2 = two_mode_chain()
    slice_sub = Submanifold(
        lambda u: np.stack([np.full(u.shape[:-1], 3.0), u[..., 0]], axis=-1))
    at_foot = max(projection_orthogonality(g, f, circle, [foot]),
                  projection_orthogonality(g2, f2, slice_sub, [2.0 / 3.0]))
    off_foot = min(projection_orthogonality(g, f, circle, [foot + 0.5]),
                   projection_orthogonality(g2, f2, slice_sub, [1.5]))
    out.append(CheckResult("straightening", "projection-orthogonality",
                           at_foot < 1e-6, at_foot, 1e-6,
                           "|cos| between grad f and the tangent at the "
                           "foot point: circle, two-mode slice"))
    out.append(CheckResult("straightening", "projection-off-foot",
                           off_foot > 0.1, off_foot, 0.1,
                           "the same |cos| away from the foot point"))
    return out


# ------------------------------------------------------------ gradient-flow


def _suite_gradient_flow(rng) -> list[CheckResult]:
    out = []
    g, f = gaussian_mode()
    pair = equidistant_seed(g, f, MODE_LEVEL, [-1.0], [1.0])
    tol = 1e-10
    rep = compare(g, f, pair, 10.0, tol=tol)

    pin0 = abs(rep.delta_f[0])
    pin1 = abs(rep.delta_f[-1])
    converged = rep.traj1.converged and rep.traj2.converged
    pinned = pin0 <= DELTA_TOL and (not converged or pin1 < 10 * tol)
    out.append(CheckResult("gradient-flow", "endpoint-pinning",
                           pinned, max(pin0, pin1), DELTA_TOL,
                           "delta_f vanishes at both ends"))

    sound = (rep.verdict != CURVE1_FASTER) or rep.delta_f.min() >= -DELTA_TOL
    out.append(CheckResult("gradient-flow", "verdict-soundness",
                           sound, float(rep.delta_f.min()), -DELTA_TOL,
                           "faster verdict never contradicts sampled delta_f"))

    # at coincidence times the loss rates df(xdot) agree and the curvature
    # of delta_f opposes the cubic gap
    t_stars = np.asarray(rep.coincidence_times, dtype=float)

    def loss_rate(traj):
        x, v = traj.position_velocity(t_stars)
        return np.sum(f.gradient_covector(x) * v, axis=-1)

    worst = float(np.max(np.abs(loss_rate(rep.traj1) - loss_rate(rep.traj2)),
                         initial=0.0))
    h = min(1e-2, 0.05 * (rep.ts[-1] - rep.ts[0]))
    inside = (t_stars - h >= rep.ts[0]) & (t_stars + h <= rep.ts[-1])
    t_in, gaps = t_stars[inside], np.asarray(rep.cubic_gaps)[inside]

    def delta_at(t):
        return f(rep.traj2.position(t)) - f(rep.traj1.position(t))

    curv = delta_at(t_in + h) - 2 * delta_at(t_in) + delta_at(t_in - h)
    sure = (np.abs(curv) > 1e-14) & (np.abs(gaps) > 1e-10)
    ok = bool((np.sign(curv[sure]) == -np.sign(gaps[sure])).all())
    out.append(CheckResult("gradient-flow", "critical-point-characterization",
                           ok and worst < 1e-8, worst, 1e-8,
                           "matched loss rates; delta curvature opposes gap"))

    rep_half = compare(g, f, pair, 10.0, tol=tol / 2)
    out.append(CheckResult("gradient-flow", "reparametrization-neutrality",
                           rep_half.verdict == rep.verdict, 0.0, 0.0,
                           f"verdict stable under tol halving: {rep.verdict}"))

    # on the isotropic bowl every equidistant pair relaxes identically:
    # each race reads the tie rung, with no coincidence
    g, _ = euclidean_quadratic()
    f = distance_squared_potential(g, np.zeros(2))
    level = 0.5
    worst = 0.0
    tied = True
    for d1, d2 in rng.standard_normal((20, 2, 2)):
        sym = compare(g, f, equidistant_seed(g, f, level, d1, d2), 12.0)
        worst = max(worst, float(np.abs(sym.delta_f).max()))
        tied &= sym.notes == [TIE_NOTE] and not sym.coincidence_times
    out.append(CheckResult("gradient-flow", "distance-squared-symmetry",
                           tied and worst < 1e-7 * level, worst, 1e-7 * level,
                           "max |delta_f| on the flat bowl, 20 random "
                           "direction pairs, each a tie"))
    return out


# ----------------------------------------------------------- fujiwara-amari


def _models() -> list[tuple[str, HessianModel, np.ndarray, float]]:
    # name, model, reference point, sampling half-width
    return [("quadratic", quadratic_model(2), np.zeros(2), 2.0),
            ("exponential", exponential_model(), np.zeros(1), 1.5),
            ("gaussian-natural", gaussian_natural_model(),
             np.array([0.0, -0.5]), 0.3)]


def _suite_dually_flat(rng) -> list[CheckResult]:
    out = []
    models = _models()

    worst = 0.0
    for name, model, center, width in models:
        pts = center + rng.uniform(-width, width, size=(100, center.size))
        h = model.hessian(pts)
        h_fd = numdiff.jacobian_fd(model.gradient_covector, pts)
        worst = max(worst, float(np.max(
            np.abs(h - h_fd).max(axis=(-2, -1))
            / np.maximum(1.0, np.abs(h).max(axis=(-2, -1))))))
    out.append(CheckResult("fujiwara-amari", "metric-consistency",
                           worst < 1e-8, worst, 1e-8,
                           "Hessian closure is d(eta), against finite "
                           "differences of eta"))

    min_off = np.inf
    worst_diag = 0.0
    for name, model, center, width in models:
        pts = center + rng.uniform(-width, width, size=(12, center.size))
        # d[i, j] = D(p_i, p_j)
        d = canonical_divergence(model, pts[:, None], pts[None, :])
        apart = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1) >= 1e-8
        worst_diag = max(worst_diag, float(np.abs(np.diagonal(d)).max()))
        min_off = min(min_off, float(d[apart].min()))
    out.append(CheckResult("fujiwara-amari", "divergence-positivity",
                           min_off > 0.0 and worst_diag < 1e-12,
                           float(min_off), 0.0,
                           "D > 0 off the diagonal, D = 0 on it"))

    worst = 0.0
    for name, model, center, width in models:
        q, x = np.moveaxis(center + rng.uniform(
            -width, width, size=(100, 2, center.size)), 1, 0)
        while (near := np.linalg.norm(x - q, axis=-1) < 1e-3).any():
            x[near] = center + rng.uniform(-width, width,
                                           size=(near.sum(), center.size))
        worst = max(worst, float(fujiwara_amari_residual(model, q, x).max()))
    out.append(CheckResult("fujiwara-amari", "fujiwara-amari",
                           worst < 1e-6, worst, 1e-6,
                           "divergence gradient flows are autoparallel, "
                           "100 pairs per model"))
    return out


# ----------------------------------------------------------- gaussian-chain


def _suite_gaussian_chain(rng) -> list[CheckResult]:
    out = []

    # integrated flow against the closed-form relaxation
    worst = 0.0
    for n_beads in (2, 5):
        sp = spectrum(ChainSpec(n_beads))
        g, f = chain_manifold(sp)
        t_end = 5.0 / sp.lambdas[0]
        for t_tilde in (0.25, 0.5, 2.0, 4.0):
            spec_t = ChainSpec(n_beads, t_tilde=t_tilde)
            traj = integrate_flow(g, f, t_tilde * sp.a_star, t_end, tol=1e-11)
            ts = np.linspace(0.0, t_end, 9)
            want = analytic_variance(spec_t, sp, np.arange(sp.n_modes),
                                     ts[:, None])
            worst = max(worst, float(np.max(
                np.abs(traj.position(ts) - want).max(axis=-1)
                / np.abs(want).max(axis=-1))))
    out.append(CheckResult("gaussian-chain", "ode-closed-form",
                           worst < 1e-8, worst, 1e-8,
                           "integrated relaxation matches the exponential law"))

    # the mode ODE is exactly the Fisher gradient flow
    sp = spectrum(ChainSpec(6))
    g, f = chain_manifold(sp)
    a = sp.a_star * rng.uniform(0.2, 4.0, size=(1000, sp.n_modes))
    rhs = ode_rhs(sp, a)
    grad_flow = -np.linalg.solve(g(a),
                                 f.gradient_covector(a)[..., None])[..., 0]
    worst = float(np.max(np.abs(rhs - grad_flow).max(axis=-1)
                         / np.maximum(1.0, np.abs(rhs).max(axis=-1))))
    out.append(CheckResult("gaussian-chain", "gradient-identity",
                           worst < 1e-10, worst, 1e-10,
                           "-grad F equals the mode ODE at 1000 states"))

    # three routes to the cubic: the closed form, the speed identity and
    # the covariant acceleration of the metric connection
    sp1 = spectrum(ChainSpec(2))
    g1, f1 = mode_manifold(sp1, 0)
    lc1 = levi_civita_connection(g1)
    worst = 0.0
    for t_tilde in (2.0, 0.5):
        traj = integrate_flow(g1, f1, [t_tilde * sp1.a_star[0]], 3.0,
                              tol=1e-11)
        ts = rng.uniform(0.0, 2.0, size=10)
        a_t, v_t = traj.position_velocity(ts)
        closed = cubic_closed_form(sp1, a_t, 0)
        covariant = 2.0 * g1.inner(a_t, v_t,
                                   covariant_acceleration(lc1, traj, ts))
        for cubic in (nonmetricity_cubic(g1, 0.0, traj, ts), covariant):
            worst = max(worst, _worst_rel(-cubic, closed))
    out.append(CheckResult("gaussian-chain", "cubic-cross-validation",
                           worst < 1e-6, worst, 1e-6,
                           "closed-form cubic = speed identity = covariant "
                           "acceleration"))

    # closed-form curvature against the numeric pipeline; nonzero values
    # certify the model is not dually flat
    g2, f2 = mode_plane_manifold(sp1, 0)
    conn = straightening_connection(g2, f2, 0.0)
    a = np.array([0.2, 0.5, 0.8, 1.2, 2.0, 3.5, 5.0]) * sp1.a_star[0]
    closed = scalar_curvature_mode(sp1, 0, a)
    num = scalar_curvature(conn, np.stack([np.zeros_like(a), a], axis=-1))
    worst = _worst_rel(num, closed)
    # the last ratio, 5, is the curvature's zero
    smallest = float(np.abs(closed[:-1]).min())
    out.append(CheckResult("gaussian-chain", "curvature-cross-validation",
                           worst < 1e-7 and smallest > 0.1, worst, 1e-7,
                           "closed-form s = numeric s; s not identically 0"))
    point = abs(scalar_curvature_mode(sp1, 0, 2.0 * sp1.a_star[0]) + 6.0)
    out.append(CheckResult("gaussian-chain", "curvature-point-value",
                           point < 1e-12, point, 1e-12,
                           "closed-form s(2 a*) = -6"))

    # the warming/cooling asymmetry holds across the whole grid, and the
    # integrated route reproduces each closed-form race
    def sweep_cell(n_beads, t_plus):
        res = universal_asymmetry_experiment(ChainSpec(n_beads), t_plus,
                                             per_mode=False)
        d = res.full.delta_f
        gaps = res.full.cubic_gaps
        # the integrated reference runs to twelve relaxation times of the
        # slowest mode, past both curves' stops at every T+ of the grid
        ref = compare(*chain_manifold(res.spect), res.pair,
                      12.0 / res.spect.lambdas[0])
        agree = (ref.verdict == res.full.verdict
                 and len(ref.coincidence_times)
                 == len(res.full.coincidence_times))
        return (res.full.verdict == CURVE1_FASTER, float(d.min()),
                float(d[len(d) // 2]) > 0.0, min(gaps, default=np.inf) > 0.0,
                len(gaps) > 0, agree, _route_gap(res.full, ref))

    cells = [sweep_cell(n + 1, t_plus) for n in (1, 2, 5, 10, 32)
             for t_plus in (1.1, 1.5, 2.0, 4.0, 8.0)]
    faster, d_min, mid_positive, gaps_positive, coincide, agree, route_gap = (
        zip(*cells))
    worst_min = min(d_min)
    out.append(CheckResult("gaussian-chain", "universality-sweep",
                           all(faster) and worst_min >= -DELTA_TOL
                           and all(mid_positive) and all(gaps_positive)
                           and any(coincide),
                           worst_min, -DELTA_TOL,
                           "warming faster on the full (N, T+) grid; every "
                           "cubic gap positive; some cell has coincidences"))
    worst = max(route_gap)
    out.append(CheckResult("gaussian-chain", "route-agreement",
                           all(agree) and worst < 1e-8, worst, 1e-8,
                           "integrated race = closed-form race: verdict, "
                           "coincidence count, variances"))

    # a one-mode race's speeds cross exactly once, at
    # e^{-2 lambda t*} = -(c1 + c2) / (2 c1 c2) with c = T - 1 per start;
    # at (512, 1.01) mode 1 starts at a Fisher speed of only 5.3e-7
    worst, once = 0.0, True
    races = {cell: universal_asymmetry_experiment(ChainSpec(cell[0]), cell[1])
             for cell in ((64, 1.05), (12, 2.0), (33, 8.0), (6, 1.1),
                          (512, 1.01))}
    for (_, t_plus), res in races.items():
        c1, c2 = res.t_minus - 1.0, t_plus - 1.0
        t_star = np.log(-2.0 * c1 * c2 / (c1 + c2)) / (2.0 * res.spect.lambdas)
        for rep, want in zip(res.modes, t_star):
            got = np.array(rep.coincidence_times)
            once = once and got.size == 1
            worst = max(worst, float(np.max(np.abs(got / want - 1.0),
                                            initial=0.0)))
    out.append(CheckResult("gaussian-chain", "crossing-closed-form",
                           once and worst < 1e-9, worst, 1e-9,
                           "each mode's speeds cross once, at the "
                           "closed-form time"))

    # every mode's race is the unit race rescaled by t -> lambda_k t and
    # F -> lambda_k F, so gap_k / lambda_k^3 and lambda_k t*_k do not
    # depend on k; the spread is their range over min |value|
    worst = 0.0
    for res in (races[64, 1.05], races[33, 8.0], races[512, 1.01]):
        if any(len(rep.coincidence_times) != 1 for rep in res.modes):
            worst = np.inf
            break
        lam = res.spect.lambdas
        gap = np.array([rep.cubic_gaps[0] for rep in res.modes]) / lam ** 3
        cross = np.array([rep.coincidence_times[0] for rep in res.modes]) * lam
        worst = max(worst, *(float(np.ptp(x) / np.abs(x).min())
                             for x in (gap, cross)))
    out.append(CheckResult("gaussian-chain", "mode-scaling-covariance",
                           worst < 1e-10, worst, 1e-10,
                           "gap_k / lambda_k^3 and lambda_k t*_k are the "
                           "same for every mode"))

    # both trajectories stay on their own side of equilibrium.  Strict
    # inequality is checked per mode out to 10/lambda_k; past that the gap
    # a*(T-1)e^{-2 lambda t} drops under one ulp of a*, so only the
    # non-strict ordering is representable.
    sp = spectrum(ChainSpec(4))
    t_plus = 2.0
    t_minus = equidistant_temperatures(t_plus)
    spec_hot = ChainSpec(4, t_tilde=t_plus)
    spec_cold = ChainSpec(4, t_tilde=t_minus)
    k = np.arange(sp.n_modes)
    # row j holds the j-th of 60 times per mode, out to 10/lambda_k
    ts = np.linspace(0.0, 10.0 / sp.lambdas, 60)
    margin = min((analytic_variance(spec_hot, sp, k, ts) - sp.a_star).min(),
                 (sp.a_star - analytic_variance(spec_cold, sp, k, ts)).min())
    ts = np.linspace(0.0, 200.0 / sp.lambdas, 60)
    ordered = bool(((analytic_variance(spec_cold, sp, k, ts) <= sp.a_star)
                    & (sp.a_star <= analytic_variance(spec_hot, sp, k, ts)))
                   .all())
    out.append(CheckResult("gaussian-chain", "order-relation",
                           ordered and margin > 0.0, float(margin), 0.0,
                           "cold < equilibrium < hot, strictly until one ulp"))
    return out


def _route_gap(closed, integrated) -> float:
    """Worst relative variance gap between two reports' curves.

    Sampled over the shorter of the two spans, curve 1 against curve 1
    and curve 2 against curve 2.
    """
    ts = np.linspace(0.0, min(closed.ts[-1], integrated.ts[-1]),
                     len(closed.ts))
    worst = 0.0
    for exact, approx in ((closed.traj1, integrated.traj1),
                          (closed.traj2, integrated.traj2)):
        a = exact.position(ts)
        worst = max(worst, float(np.max(np.abs(approx.position(ts) - a) / a)))
    return worst


# ------------------------------------------------------------------ driver

#: each suite's runner; its position fixes the suite's [seed, index] draws
_SUITES = {
    "manifold-core": _suite_manifold,
    "straightening": _suite_straightening,
    "gradient-flow": _suite_gradient_flow,
    "fujiwara-amari": _suite_dually_flat,
    "gaussian-chain": _suite_gaussian_chain,
}
SUITE_NAMES = tuple(_SUITES)


def run_suites(seed: int = 0, suites=None,
               flip_nonmetricity_sign: bool = False) -> list[CheckResult]:
    """Run the named suites (all by default) and return their check results.

    Suite ``SUITE_NAMES[i]`` draws from ``default_rng([seed, i])``, so its
    results do not depend on which other suites run.
    """
    chosen = tuple(suites) if suites else SUITE_NAMES
    unknown = [s for s in chosen if s not in SUITE_NAMES]
    if unknown:
        raise ValueError(f"unknown suite(s): {', '.join(unknown)}; "
                         f"expected a subset of {', '.join(SUITE_NAMES)}")
    results: list[CheckResult] = []
    for index, (name, suite) in enumerate(_SUITES.items()):
        if name in chosen:
            rng = np.random.default_rng([seed, index])
            results.extend(suite(rng, flip_nonmetricity_sign)
                           if suite is _suite_straightening else suite(rng))
    return results
