"""Command-line front end: run experiments from config files or flags.

Four subcommands share one artifact layout (see :mod:`geoflow.bundle`):

* ``chain``      -- warming/cooling relaxation race for a bead chain
* ``compare``    -- two-seed race on a registered example manifold
* ``verify``     -- the invariant battery, optionally filtered by suite
* ``curvature``  -- closed-form vs numeric scalar curvature over a grid

Exit codes: 0 success or verdict-positive, 1 config error, 2 numerical
failure, 3 inconclusive verdict.
"""

from __future__ import annotations

import argparse
import configparser
import sys
import time

import numpy as np

from . import verify as verify_mod
from .bundle import ResultBundle
from .comparison import CURVE1_FASTER, CURVE2_FASTER, INCONCLUSIVE, compare, equidistant_seed
from .errors import GeoflowError, SingularCurvatureError
from .fixtures import COMPARE_MODELS
from .gaussian_chain import (
    ChainSpec,
    mode_plane_manifold,
    scalar_curvature_mode,
    spectrum,
    universal_asymmetry_experiment,
)
from .straightening import scalar_curvature, straightening_connection

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_INCONCLUSIVE = 3


class ConfigError(Exception):
    """Bad invocation: unparseable config, unknown name, out-of-range value."""


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage problems; route them to the config exit code
    def error(self, message):
        raise ConfigError(message)


def _load_config(path: str) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}")
    except configparser.Error as exc:
        # configparser diagnostics carry file and line anchors
        raise ConfigError(str(exc))
    return parser


def _vector(text: str) -> tuple[float, ...]:
    try:
        parts = tuple(float(p) for p in str(text).split(","))
    except ValueError:
        raise ConfigError(f"expected comma-separated numbers, got {text!r}")
    if not parts:
        raise ConfigError("empty direction vector")
    return parts


#: flags taking a comma-separated vector; argparse reads a value such as
#: "-0.3,0.5" as an option, since it is not a plain negative number
_VECTOR_FLAGS = ("--direction1", "--direction2")


def _attach_vector_values(argv: list[str]) -> list[str]:
    """Rewrite ``--direction1 VALUE`` as ``--direction1=VALUE``."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in _VECTOR_FLAGS:
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def _resolve(args, cfg, section: str, key: str, default, cast):
    """Flag > config (command section, then [run]) > default."""
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    if cfg is not None:
        for sec in (section, "run"):
            if cfg.has_option(sec, key):
                raw = cfg.get(sec, key)
                try:
                    return cast(raw)
                except (ValueError, TypeError):
                    raise ConfigError(
                        f"[{sec}] {key}: cannot parse {raw!r}")
    return default


def _common(args, cfg, section: str):
    out = _resolve(args, cfg, section, "out", "geoflow-out", str)
    seed = _resolve(args, cfg, section, "seed", 0, int)
    tol = _resolve(args, cfg, section, "tol", 1e-10, float)
    if not tol > 0.0:
        raise ConfigError("tol must be positive")
    return out, seed, tol


# ----------------------------------------------------------------- chain


def cmd_chain(args, cfg) -> int:
    out, seed, tol = _common(args, cfg, "chain")
    n_beads = _resolve(args, cfg, "chain", "n_beads", 11, int)
    t_plus = _resolve(args, cfg, "chain", "t_plus", 2.0, float)
    t_end = _resolve(args, cfg, "chain", "t_end", None, float)
    if n_beads < 2:
        raise ConfigError("n-beads must be at least 2")
    if not t_plus >= 1.0:
        raise ConfigError("t-plus must be at least 1 (a hot start)")

    spec = ChainSpec(n_beads)
    spect = spectrum(spec)
    if t_end is None:
        t_end = 12.0 / spect.lambdas[0]
    start = time.perf_counter()
    res = universal_asymmetry_experiment(spec, t_plus, t_end)
    wall = time.perf_counter() - start

    bundle = ResultBundle(
        command="chain",
        config={"n_beads": n_beads, "t_plus": t_plus, "t_end": t_end,
                "tol": tol, "derived": {"t_minus": res.t_minus,
                                        "rates": list(spect.lambdas)}},
        seed=seed)
    full = res.full
    header = ["t", "F_plus", "F_minus", "delta_F"]
    for k in range(spect.n_modes):
        header += [f"a{k + 1}_plus", f"a{k + 1}_minus"]
    # per mode k the columns a{k}_plus, a{k}_minus, side by side
    variances = np.stack([full.traj2.position(full.ts),
                          full.traj1.position(full.ts)], axis=-1)
    rows = np.column_stack([full.ts, full.f2, full.f1, full.delta_f,
                            variances.reshape(len(full.ts), -1)])
    # one row list at a time: the table keeps its own quantized copy
    bundle.add_table("trajectory", header, (row.tolist() for row in rows))
    bundle.add_table("coincidences", ["t_star", "cubic_gap"],
                     [[float(t), float(gap)] for t, gap
                      in zip(full.coincidence_times, full.cubic_gaps)])
    bundle.add_table("modes",
                     ["mode", "rate", "a_star", "verdict", "min_delta_F"],
                     [[k + 1, float(spect.lambdas[k]),
                       float(spect.a_star[k]), rep.verdict,
                       float(np.min(rep.delta_f))]
                      for k, rep in enumerate(res.modes)])

    verdict = {CURVE1_FASTER: "warming-faster",
               CURVE2_FASTER: "cooling-faster",
               INCONCLUSIVE: "inconclusive"}[full.verdict]
    bundle.verdicts = [verdict] + [f"mode-{k + 1}: {rep.verdict}"
                                   for k, rep in enumerate(res.modes)]
    bundle.wall_time_s = wall
    bundle.write(out)
    print(verdict)
    for note in full.notes:
        print(f"note: {note}", file=sys.stderr)
    return EXIT_INCONCLUSIVE if full.verdict == INCONCLUSIVE else EXIT_OK


# ---------------------------------------------------------------- compare


def cmd_compare(args, cfg) -> int:
    out, seed, tol = _common(args, cfg, "compare")
    model_name = _resolve(args, cfg, "compare", "model", "gaussian-mode", str)
    if model_name not in COMPARE_MODELS:
        raise ConfigError(f"unknown model {model_name!r}; registered: "
                          + ", ".join(sorted(COMPARE_MODELS)))
    entry = COMPARE_MODELS[model_name]
    dir1 = _resolve(args, cfg, "compare", "direction1", entry.direction1,
                    _vector)
    dir2 = _resolve(args, cfg, "compare", "direction2", entry.direction2,
                    _vector)
    level = _resolve(args, cfg, "compare", "level", entry.level, float)
    lam = _resolve(args, cfg, "compare", "lam", 0.0, float)
    t_end = _resolve(args, cfg, "compare", "t_end", 10.0, float)

    g, f = entry.build()
    dim = g.chart.dim
    if len(dir1) != dim or len(dir2) != dim:
        raise ConfigError(f"directions must have {dim} component(s) "
                          f"for {model_name}")
    if not (any(dir1) and any(dir2)):
        raise ConfigError("seed directions must be nonzero")
    if not level > 0.0:
        raise ConfigError("level must be positive")

    start = time.perf_counter()
    pair = equidistant_seed(g, f, level, np.asarray(dir1), np.asarray(dir2))
    rep = compare(g, f, lam, pair, t_end, tol=tol)
    wall = time.perf_counter() - start

    bundle = ResultBundle(
        command="compare",
        config={"model": model_name, "direction1": list(dir1),
                "direction2": list(dir2), "level": level, "lam": lam,
                "t_end": t_end, "tol": tol},
        seed=seed)
    bundle.add_table("report", ["t", "f1", "f2", "delta_f"],
                     [[float(t), float(rep.f1[i]), float(rep.f2[i]),
                       float(rep.delta_f[i])]
                      for i, t in enumerate(rep.ts)])
    bundle.add_table("coincidences", ["t_star", "cubic_gap"],
                     [[float(t), float(gap)] for t, gap
                      in zip(rep.coincidence_times, rep.cubic_gaps)])
    bundle.verdicts = [rep.verdict] + list(rep.notes)
    bundle.wall_time_s = wall
    bundle.write(out)
    print(rep.verdict)
    for note in rep.notes:
        print(f"note: {note}", file=sys.stderr)
    return EXIT_INCONCLUSIVE if rep.verdict == INCONCLUSIVE else EXIT_OK


# ----------------------------------------------------------------- verify


def cmd_verify(args, cfg) -> int:
    out, seed, _ = _common(args, cfg, "verify")
    suite = _resolve(args, cfg, "verify", "suite", None, str)
    flip = _resolve(args, cfg, "verify", "negative_control", False,
                    lambda s: str(s).lower() in ("1", "true", "yes"))
    suites = [suite] if suite else None
    if suites and any(s not in verify_mod.SUITE_NAMES for s in suites):
        raise ConfigError(f"unknown suite {suite!r}; available: "
                          + ", ".join(verify_mod.SUITE_NAMES))

    start = time.perf_counter()
    results = verify_mod.run_suites(seed=seed, suites=suites,
                                    flip_nonmetricity_sign=flip)
    wall = time.perf_counter() - start

    bundle = ResultBundle(
        command="verify",
        config={"suite": suite or "all", "seed": seed,
                "negative_control": flip},
        seed=seed)
    bundle.add_table(
        "checks",
        ["suite", "check", "passed", "measured", "tolerance", "detail"],
        [[r.suite, r.name, bool(r.passed), float(r.measured),
          float(r.tolerance), r.detail] for r in results])
    all_passed = all(r.passed for r in results)
    verdict = "all-checks-passed" if all_passed else "checks-failed"
    bundle.verdicts = [verdict]
    bundle.wall_time_s = wall
    bundle.write(out)
    for r in results:
        mark = "pass" if r.passed else "FAIL"
        print(f"{mark} {r.suite}/{r.name}: {r.measured:.3e} "
              f"(tol {r.tolerance:.1e})", file=sys.stderr)
    print(verdict)
    return EXIT_OK if all_passed else EXIT_NUMERICAL


# -------------------------------------------------------------- curvature


def cmd_curvature(args, cfg) -> int:
    out, seed, _ = _common(args, cfg, "curvature")
    model_name = _resolve(args, cfg, "curvature", "model", "gaussian-mode",
                          str)
    if model_name != "gaussian-mode":
        raise ConfigError("curvature scan supports only the gaussian-mode "
                          "model")
    grid_start = _resolve(args, cfg, "curvature", "grid_start", 0.2, float)
    grid_stop = _resolve(args, cfg, "curvature", "grid_stop", 5.0, float)
    grid_points = _resolve(args, cfg, "curvature", "grid_points", 25, int)
    if not 0.0 < grid_start <= grid_stop:
        raise ConfigError("need 0 < grid-start <= grid-stop")
    if grid_points < 1:
        raise ConfigError("grid-points must be at least 1")

    spect = spectrum(ChainSpec(2))
    astar = spect.a_star[0]
    g, f = mode_plane_manifold(spect, 0)
    conn = straightening_connection(g, f, 0.0)

    start = time.perf_counter()
    rows = []
    for ratio in np.linspace(grid_start, grid_stop, grid_points):
        try:
            closed = scalar_curvature_mode(spect, 0, float(ratio) * astar)
        except SingularCurvatureError:
            rows.append([float(ratio), float("nan"), float("nan"),
                         float("nan"), "singular"])
            continue
        num = scalar_curvature(conn, np.array([0.0, float(ratio) * astar]))
        rel = abs(num - closed) / max(1.0, abs(closed))
        rows.append([float(ratio), float(closed), float(num), float(rel),
                     "ok"])
    wall = time.perf_counter() - start

    bundle = ResultBundle(
        command="curvature",
        config={"model": model_name, "grid_start": grid_start,
                "grid_stop": grid_stop, "grid_points": grid_points},
        seed=seed)
    bundle.add_table(
        "curvature",
        ["a_ratio", "s_closed_form", "s_numeric", "rel_error", "status"],
        rows)
    bundle.wall_time_s = wall
    bundle.write(out)
    n_sing = sum(1 for r in rows if r[4] == "singular")
    print(f"{len(rows)} grid points, {n_sing} singular", file=sys.stderr)
    return EXIT_OK


# ------------------------------------------------------------------ main


def _build_parser() -> _Parser:
    parser = _Parser(prog="geoflow",
                     description="Gradient-flow geometry experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="INI config file")
        p.add_argument("--out", help="output directory (default geoflow-out)")
        p.add_argument("--seed", type=int,
                       help="seed for randomized checks (default 0)")
        p.add_argument("--tol", type=float,
                       help="integrator tolerance (default 1e-10)")

    p_chain = sub.add_parser("chain",
                             help="race warming against cooling for a chain")
    add_common(p_chain)
    p_chain.add_argument("--n-beads", dest="n_beads", type=int,
                         help="bead count, at least 2 (default 11)")
    p_chain.add_argument("--t-plus", dest="t_plus", type=float,
                         help="hot start temperature ratio (default 2)")
    p_chain.add_argument("--t-end", dest="t_end", type=float,
                         help="time horizon (default 12 / slowest rate)")
    p_chain.set_defaults(func=cmd_chain)

    p_cmp = sub.add_parser("compare",
                           help="race two equidistant seeds on a model")
    add_common(p_cmp)
    p_cmp.add_argument("--model",
                       help="registered model name (default gaussian-mode): "
                            + ", ".join(sorted(COMPARE_MODELS)))
    p_cmp.add_argument("--direction1", type=_vector,
                       help="comma-separated seed direction for curve 1")
    p_cmp.add_argument("--direction2", type=_vector,
                       help="comma-separated seed direction for curve 2")
    p_cmp.add_argument("--level", type=float,
                       help="shared potential level of the two seeds")
    p_cmp.add_argument("--lam", type=float,
                       help="connection parameter (default 0)")
    p_cmp.add_argument("--t-end", dest="t_end", type=float,
                       help="time horizon (default 10)")
    p_cmp.set_defaults(func=cmd_compare)

    p_ver = sub.add_parser("verify", help="run the invariant battery")
    add_common(p_ver)
    p_ver.add_argument("--suite", choices=verify_mod.SUITE_NAMES,
                       help="run only this suite")
    p_ver.add_argument("--negative-control", dest="negative_control",
                       action="store_true", default=None,
                       help="flip the closed-form non-metricity sign; the "
                            "battery must then fail")
    p_ver.set_defaults(func=cmd_verify)

    p_curv = sub.add_parser("curvature",
                            help="scan scalar curvature over a/a*")
    add_common(p_curv)
    p_curv.add_argument("--model", help="model name (gaussian-mode only)")
    p_curv.add_argument("--grid-start", dest="grid_start", type=float,
                        help="smallest a/a* ratio (default 0.2)")
    p_curv.add_argument("--grid-stop", dest="grid_stop", type=float,
                        help="largest a/a* ratio (default 5.0)")
    p_curv.add_argument("--grid-points", dest="grid_points", type=int,
                        help="grid size (default 25)")
    p_curv.set_defaults(func=cmd_curvature)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_attach_vector_values(
            sys.argv[1:] if argv is None else list(argv)))
        cfg = _load_config(args.config) if args.config else None
        return args.func(args, cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except GeoflowError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
