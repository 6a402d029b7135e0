"""Acceptance battery: every shipped guarantee exercised at its tolerance.

One test per guarantee, each printing a single pass/fail line with the
measured extreme (``pytest -s`` shows them; ``pytest -v`` gives the same
one-line-per-check record through the test names).
"""

import csv
import filecmp
import subprocess
import sys
import time

import numpy as np
from scipy.optimize import minimize_scalar

from geoflow.comparison import (CURVE1_FASTER, EquidistantPair, compare,
                                equidistant_seed)
from geoflow.dually_flat import (exponential_model, fujiwara_amari_residual,
                                 quadratic_model)
from geoflow.errors import CriticalPointError
from geoflow.fixtures import (distance_squared_potential, euclidean_quadratic,
                              gaussian_mode, sphere_height, two_mode_chain)
from geoflow.gaussian_chain import (ChainSpec, analytic_variance,
                                    cubic_closed_form, chain_manifold,
                                    mode_manifold, mode_plane_manifold,
                                    scalar_curvature_mode, spectrum,
                                    universal_asymmetry_experiment)
from geoflow.manifold import integrate_flow
from geoflow.numdiff import curve_derivative
from geoflow.parallel import parallel_map
from geoflow.straightening import (Submanifold, nonmetricity,
                                   nonmetricity_closed_form,
                                   nonmetricity_cubic, nonmetricity_tensor,
                                   pregeodesic_residual, projection_orthogonality,
                                   scalar_curvature, straightening_connection)

SWEEP_MODES = (1, 2, 5, 10, 32)
SWEEP_RATIOS = (1.1, 1.5, 2.0, 4.0, 8.0)


def _report(name, measured, bound, *, passed=None, sense="<"):
    ok = (measured < bound if sense == "<" else measured > bound) \
        if passed is None else passed
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: "
          f"measured {measured:.3e}, required {sense} {bound:.0e}")
    assert ok, f"{name}: measured {measured:.6e}, required {sense} {bound:.0e}"


def _sample(rng, name):
    while True:
        if name == "euclidean":
            x = rng.uniform(-2.0, 2.0, 2)
            if np.linalg.norm(x) < 0.2:
                continue
        elif name == "mode":
            x = np.array([rng.uniform(1.2, 5.0) if rng.random() < 0.5
                          else rng.uniform(0.25, 0.8)])
        elif name == "two-mode":
            x = rng.uniform(0.3, 4.0, 2)
            if abs(x[0] - 2.0) < 0.1 and abs(x[1] - 2.0 / 3.0) < 0.1:
                continue
        elif name == "sphere":
            x = np.array([rng.uniform(0.3, np.pi - 0.3),
                          rng.uniform(0.0, 6.0)])
        else:
            raise ValueError(name)
        return x


def _midtimes(traj, n):
    ts = traj.ts
    mids = 0.5 * (ts[:-1] + ts[1:])
    idx = np.linspace(0, len(mids) - 1, min(n, len(mids))).astype(int)
    return mids[idx]


FIXTURES = [("euclidean", *euclidean_quadratic()),
            ("mode", *gaussian_mode()),
            ("two-mode", *two_mode_chain()),
            ("sphere", *sphere_height())]


def test_gradient_curves_are_pregeodesics():
    # 100 random non-critical points per fixture, both lam values
    rng = np.random.default_rng(11)
    worst = 0.0
    for name, g, f in FIXTURES:
        for _ in range(100):
            x = _sample(rng, name)
            for lam in (0.0, 1.0):
                try:
                    worst = max(worst, pregeodesic_residual(g, f, lam, x))
                except CriticalPointError:
                    continue
    _report("pregeodesic-residual", worst, 1e-8)


def test_nonmetricity_matches_product_closed_form():
    rng = np.random.default_rng(12)
    worst = 0.0
    for name, g, f in FIXTURES:
        for lam in (0.0, 1.0):
            conn = straightening_connection(g, f, lam)
            for _ in range(25):
                x = _sample(rng, name)
                c_def = nonmetricity_tensor(conn, g, x)
                w, xv, yv = rng.standard_normal((3, g.chart.dim))
                lhs = float(np.einsum("kij,k,i,j->", c_def, w, xv, yv))
                rhs = nonmetricity_closed_form(g, f, lam, x, w, xv, yv)
                worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    _report("nonmetricity-closed-form", worst, 1e-8)

    g, f = two_mode_chain()
    conn = straightening_connection(g, f, 0.0)
    e1, e2 = np.eye(2)
    x = np.array([3.0, 1.0])
    gap = abs(nonmetricity(conn, g, x, e2, e2, e1)
              - nonmetricity(conn, g, x, e1, e2, e2))
    _report("nonmetricity-asymmetry-witness", gap, 1e-3, sense=">")


def test_potential_second_derivative_identity():
    # f'' + C(xd,xd,xd) + 2 lam f' = 0 along integrated descent curves
    worst = 0.0
    starts = [(*euclidean_quadratic(), np.array([1.3, -0.7])),
              (*gaussian_mode(), np.array([2.0])),
              (*two_mode_chain(), np.array([3.0, 1.0]))]
    for g, f, x0 in starts:
        for lam in (0.0, 1.0):
            traj = integrate_flow(g, f, x0, 1.0, tol=1e-10)
            for t in _midtimes(traj, 10):
                fdot = curve_derivative(lambda s: f(traj.position(s)), t,
                                        traj.span)
                fddot = curve_derivative(lambda s: f(traj.position(s)), t,
                                         traj.span, order=2)
                c = nonmetricity_cubic(g, f, lam, traj, t)
                worst = max(worst, abs(fddot + c + 2.0 * lam * fdot)
                            / max(1.0, abs(fddot)))
    _report("second-derivative-identity", worst, 1e-5)


def test_divergence_gradient_is_affinely_self_parallel():
    rng = np.random.default_rng(13)
    worst = 0.0
    for model, lo, hi in [(quadratic_model(2), -2.0, 2.0),
                          (exponential_model(), -1.5, 1.5)]:
        dim = model.chart.dim
        for _ in range(100):
            q = rng.uniform(lo, hi, dim)
            x = rng.uniform(lo, hi, dim)
            while np.linalg.norm(x - q) < 1e-3:
                x = rng.uniform(lo, hi, dim)
            worst = max(worst, fujiwara_amari_residual(model, q, x))
    _report("divergence-gradient-residual", worst, 1e-6)


def test_mode_relaxation_closed_forms():
    # integrated flow against the closed-form variance curve
    worst_ode = 0.0
    for n_beads in (2, 5):
        sp = spectrum(ChainSpec(n_beads))
        g, f = chain_manifold(sp)
        t_end = 5.0 / sp.lambdas[0]
        for t_tilde in (0.25, 0.5, 2.0, 4.0):
            spec_t = ChainSpec(n_beads, t_tilde=t_tilde)
            traj = integrate_flow(g, f, t_tilde * sp.a_star, t_end, tol=1e-11)
            for t in np.linspace(0.0, t_end, 9):
                want = np.array([analytic_variance(spec_t, sp, k, t)
                                 for k in range(sp.n_modes)])
                err = np.abs(traj.position(t) - want).max()
                worst_ode = max(worst_ode, float(err / np.abs(want).max()))
    _report("variance-ode-vs-closed-form", worst_ode, 1e-8)

    # closed-form cubic against the generic connection route
    sp = spectrum(ChainSpec(2))
    g, f = mode_manifold(sp, 0)
    traj = integrate_flow(g, f, [2.0], 1.0, tol=1e-11)
    worst_cubic = 0.0
    for t in _midtimes(traj, 10):
        closed = cubic_closed_form(sp, traj.position(t), 0)
        generic = -nonmetricity_cubic(g, f, 0.0, traj, t)
        worst_cubic = max(worst_cubic,
                          abs(closed - generic) / max(1.0, abs(closed)))
    _report("cubic-closed-form-vs-pipeline", worst_cubic, 1e-6)

    # closed-form scalar curvature against the numeric route
    g2, f2 = mode_plane_manifold(sp, 0)
    conn = straightening_connection(g2, f2, 0.0)
    worst_curv = 0.0
    for ratio in (0.2, 0.5, 0.8, 1.2, 2.0, 3.5, 5.0):
        a = ratio * sp.a_star[0]
        closed = scalar_curvature_mode(sp, 0, a)
        num = scalar_curvature(conn, np.array([0.0, a]))
        worst_curv = max(worst_curv,
                         abs(num - closed) / max(1.0, abs(closed)))
    _report("mode-curvature-vs-numeric", worst_curv, 1e-4)

    point_err = abs(scalar_curvature_mode(sp, 0, 2.0 * sp.a_star[0]) + 6.0)
    _report("curvature-point-value-at-2astar", point_err, 1e-12)


def test_warming_beats_cooling_across_the_grid():
    t0 = time.perf_counter()

    def cell(args):
        n_modes, t_plus = args
        sp = spectrum(ChainSpec(n_modes + 1))
        t_end = 12.0 / sp.lambdas[0]
        res = universal_asymmetry_experiment(ChainSpec(n_modes + 1), t_plus,
                                             t_end, per_mode=False)
        d = res.full.delta_f
        gaps = res.full.cubic_gaps
        # the integrated route must reproduce the closed-form race
        ref = compare(*chain_manifold(sp), 0.0, res.pair, t_end)
        t_hi = min(res.full.ts[-1], ref.ts[-1])
        route_err = max(
            float(np.max(np.abs(integrated.position(t) - exact.position(t))
                         / exact.position(t)))
            for t in np.linspace(0.0, t_hi, len(d))
            for exact, integrated in ((res.full.traj1, ref.traj1),
                                      (res.full.traj2, ref.traj2)))
        routes_agree = (ref.verdict == res.full.verdict
                        and len(ref.cubic_gaps) == len(gaps))
        return (res.full.verdict == CURVE1_FASTER, float(d.min()),
                float(d[len(d) // 2]), min(gaps) if gaps else np.inf,
                len(gaps), routes_agree, route_err)

    cells = parallel_map(cell, [(n, r) for n in SWEEP_MODES
                                for r in SWEEP_RATIOS])
    elapsed = time.perf_counter() - t0
    all_faster = all(c[0] for c in cells)
    worst_min = min(c[1] for c in cells)
    mid_positive = all(c[2] > 0.0 for c in cells)
    gaps_positive = all(c[3] > 0.0 for c in cells)
    has_coincidences = any(c[4] > 0 for c in cells)
    ok = (all_faster and worst_min >= -1e-9 and mid_positive
          and gaps_positive and has_coincidences and elapsed < 300.0)
    _report(f"universal-asymmetry-sweep ({len(cells)} cells, {elapsed:.1f}s)",
            worst_min, -1e-9, passed=ok, sense=">")
    route_err = max(c[6] for c in cells)
    _report("integrated-vs-closed-form-routes", route_err, 1e-8,
            passed=all(c[5] for c in cells) and route_err < 1e-8)


def test_distance_squared_relaxation_is_symmetric():
    g, _ = euclidean_quadratic(2)
    f = distance_squared_potential(g, np.zeros(2))
    level = 0.5
    rng = np.random.default_rng(14)
    dirs = rng.standard_normal((20, 2, 2))

    def one(pair_dirs):
        d1, d2 = pair_dirs
        pair = equidistant_seed(g, f, level, d1, d2)
        rep = compare(g, f, 0.0, pair, 12.0)
        return float(np.abs(rep.delta_f).max())

    worst = max(parallel_map(one, list(dirs)))
    _report("distance-squared-max-delta-f", worst, 1e-7 * level)


def test_geodesic_projection_is_orthogonal():
    g, _ = euclidean_quadratic(2)
    f = distance_squared_potential(g, np.array([2.0, 0.0]))
    circle = Submanifold(lambda u: np.array([np.cos(u[0]), np.sin(u[0])]),
                         dim_param=1)
    opt = minimize_scalar(lambda u: f(circle.embed(np.array([u]))),
                          bounds=(-1.0, 1.0), method="bounded",
                          options={"xatol": 1e-12})
    res_a = projection_orthogonality(g, f, circle, [opt.x])
    ctl_a = projection_orthogonality(g, f, circle, [opt.x + 0.5])

    g2, f2 = two_mode_chain()
    slice_sub = Submanifold(lambda u: np.array([3.0, u[0]]), dim_param=1)
    res_b = projection_orthogonality(g2, f2, slice_sub, [2.0 / 3.0])
    ctl_b = projection_orthogonality(g2, f2, slice_sub, [1.5])

    _report("projection-orthogonality-residual", max(res_a, res_b), 1e-6)
    _report("projection-negative-control", min(ctl_a, ctl_b), 0.1, sense=">")


def test_cli_chain_end_to_end(tmp_path):
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "geoflow.cli", "chain",
             "--n-beads", "11", "--t-plus", "2", "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "warming-faster"
        outs.append(out)

    with open(outs[0] / "trajectory.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    header, data = rows[0], rows[1:]
    assert header[0] == "t" and len(data) > 100
    values = np.array([[float(c) for c in row] for row in data])
    delta_min = float(values[:, header.index("delta_F")].min())

    identical = all(
        filecmp.cmp(outs[0] / f"{t}.csv", outs[1] / f"{t}.csv",
                    shallow=False)
        for t in ("trajectory", "coincidences", "modes"))
    _report("cli-chain-end-to-end", delta_min, -1e-9,
            passed=identical and delta_min >= -1e-9, sense=">")
