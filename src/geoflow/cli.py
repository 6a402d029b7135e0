"""Command-line front end: run experiments from config files or flags.

Four subcommands share one artifact layout (see :mod:`geoflow.bundle`):

* ``chain``      -- warming/cooling relaxation race for a bead chain
* ``compare``    -- two-seed race on a registered example manifold
* ``verify``     -- the invariant battery, optionally filtered by suite
* ``curvature``  -- closed-form vs numeric scalar curvature over a grid

Each flag's type and default are declared once, in :func:`_build_parser`;
a config file's values are cast by those types and become the
subcommand's defaults, so a flag beats the config, which beats a default.
:func:`main` builds the parser once per process and may be called again
in-process: only a ``--config`` call builds a parser of its own.

A process loads only what its command runs: ``verify`` imports the
battery and checks ``--suite`` against its suite names, ``--config``
imports ``configparser``, and ``chain`` and ``curvature`` load numpy
alone, never scipy.

Each ``cmd_*`` returns its bundle, its stdout line (or None), its stderr
lines and its exit code; :func:`main` alone times the command, writes
the bundle and prints.  ``wall_time_s`` thus covers a command's work and
its tables, but not the write.

Exit codes: 0 success or verdict-positive, 1 config error (an ``--out``
that cannot be written included), 2 numerical
failure (a :class:`~geoflow.errors.GeoflowError`, or a ``MemoryError``
from an array too large for the machine, reported in one stderr line), 3
inconclusive verdict.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys
import time

import numpy as np

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


def finite(text) -> float:
    """The float value of a flag or config entry, refusing nan and inf."""
    value = float(text)
    if not np.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


def _vector(text: str) -> tuple[float, ...]:
    try:
        return tuple(finite(p) for p in str(text).split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {text!r}")


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


def _config_values(path: str, commands: dict, command: str) -> dict:
    """``command``'s values in the INI file at ``path``, by flag dest.

    A subcommand's section accepts only the keys of its own flags and
    beats ``[run]``, which every subcommand falls back to and which
    accepts the keys of any subcommand.  ``[DEFAULT]`` has no special
    meaning: it is an unknown section like any other.  Each value is cast
    by its flag's own ``type`` (a ``store_true`` flag reads
    ``1``/``true``/``yes`` as set) and checked against its ``choices``.
    Values are literal: no ``%`` interpolation.  An unknown section or
    key, or a value that does not cast, raises ConfigError naming the
    section and the key.
    """
    import configparser

    # no section header can be empty, so configparser folds no section
    # into the others, and [DEFAULT] reads as an ordinary section
    cfg = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                    interpolation=None, default_section="")
    try:
        with open(path) as fh:
            cfg.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}")
    except configparser.Error as exc:
        # configparser diagnostics carry file and line anchors
        raise ConfigError(str(exc))
    flags = {name: {a.dest: a for a in p._actions
                    if a.dest not in ("help", "config")}
             for name, p in commands.items()}
    shared = set().union(*flags.values())
    owned = {**{name: set(f) for name, f in flags.items()}, "run": shared}
    for sec in cfg.sections():
        if sec not in owned:
            raise ConfigError(f"[{sec}]: unknown section; expected one of "
                              + ", ".join(f"[{s}]" for s in owned))
        unread = sorted(set(cfg.options(sec)) - owned[sec])
        if unread:
            raise ConfigError(f"[{sec}] {unread[0]}: unknown key; [{sec}] "
                              "reads " + ", ".join(sorted(owned[sec])))
    raw = {}
    for sec in ("run", command):
        if cfg.has_section(sec):
            raw.update((key, (sec, text)) for key, text in cfg.items(sec)
                       if key in flags[command])
    values = {}
    for key, (sec, text) in raw.items():
        action = flags[command][key]
        try:
            if action.nargs == 0:  # store_true
                value = text.lower() in ("1", "true", "yes")
            else:
                value = (action.type or str)(text)
            ok = action.choices is None or value in action.choices
        except (ValueError, TypeError, argparse.ArgumentTypeError):
            ok = False
        if not ok:
            raise ConfigError(f"[{sec}] {key}: cannot parse {text!r}")
        values[key] = value
    return values


#: what a ``cmd_*`` hands to :func:`main`: bundle, stdout line or None,
#: stderr lines, exit code
_Outcome = tuple[ResultBundle, str | None, list[str], int]


def _add_coincidences(bundle: ResultBundle, rep) -> None:
    bundle.add_table("coincidences", ["t_star", "cubic_gap"],
                     np.column_stack([rep.coincidence_times, rep.cubic_gaps]))


def _exit_code(verdict: str) -> int:
    return EXIT_INCONCLUSIVE if verdict == INCONCLUSIVE else EXIT_OK


# ----------------------------------------------------------------- chain


def cmd_chain(args) -> _Outcome:
    if args.n_beads < 2:
        raise ConfigError("n-beads must be at least 2")
    if not args.t_plus >= 1.0:
        raise ConfigError("t-plus must be at least 1 (a hot start)")

    try:
        res = universal_asymmetry_experiment(ChainSpec(args.n_beads),
                                             args.t_plus)
    except ValueError as exc:
        # a hot start past the float range of the metric's partials
        raise ConfigError(str(exc)) from exc
    spect = res.spect
    bundle = ResultBundle(
        command="chain",
        config={"n_beads": args.n_beads, "t_plus": args.t_plus,
                "derived": {"t_minus": res.t_minus}})
    full = res.full
    header = ["t", "F_plus", "F_minus", "delta_F"]
    for k in range(spect.n_modes):
        header += [f"a{k + 1}_plus", f"a{k + 1}_minus"]
    # per mode k the columns a{k}_plus, a{k}_minus, side by side
    variances = np.stack([full.traj2.position(full.ts),
                          full.traj1.position(full.ts)], axis=-1)
    bundle.add_table("trajectory", header,
                     np.column_stack([full.ts, full.f2, full.f1, full.delta_f,
                                      variances.reshape(len(full.ts), -1)]))
    _add_coincidences(bundle, full)
    bundle.add_table("modes",
                     ["mode", "rate", "a_star", "verdict", "min_delta_F"],
                     [[k + 1, float(spect.lambdas[k]),
                       float(spect.a_star[k]), rep.verdict,
                       float(np.min(rep.delta_f))]
                      for k, rep in enumerate(res.modes)])

    verdict = {CURVE1_FASTER: "warming-faster",
               CURVE2_FASTER: "cooling-faster",
               INCONCLUSIVE: "inconclusive"}[full.verdict]
    bundle.verdicts = [verdict]
    return (bundle, verdict, [f"note: {note}" for note in full.notes],
            _exit_code(full.verdict))


# ---------------------------------------------------------------- compare


#: scipy's RK45 raises any tolerance below 100 eps to that floor, so a
#: smaller one would be recorded but never used
_TOL_FLOOR = 100.0 * float(np.finfo(float).eps)


def cmd_compare(args) -> _Outcome:
    if not _TOL_FLOOR <= args.tol < 1.0:
        raise ConfigError(f"tol must be at least 100 eps ({_TOL_FLOOR!r}) "
                          "and below 1")
    entry = COMPARE_MODELS[args.model]
    # unset seed directions and level fall back to the model's own
    dir1 = entry.direction1 if args.direction1 is None else args.direction1
    dir2 = entry.direction2 if args.direction2 is None else args.direction2
    level = entry.level if args.level is None else args.level

    g, f = entry.build()
    dim = g.chart.dim
    if len(dir1) != dim or len(dir2) != dim:
        raise ConfigError(f"directions must have {dim} component(s) "
                          f"for {args.model}")
    if not (any(dir1) and any(dir2)):
        raise ConfigError("seed directions must be nonzero")
    if not level > 0.0:
        raise ConfigError("level must be positive")
    if not args.t_end > 0.0:
        raise ConfigError("t-end must be positive")

    pair = equidistant_seed(g, f, level, np.asarray(dir1), np.asarray(dir2))
    rep = compare(g, f, pair, args.t_end, tol=args.tol)
    bundle = ResultBundle(
        command="compare",
        config={"model": args.model, "direction1": list(dir1),
                "direction2": list(dir2), "level": level,
                "t_end": args.t_end, "tol": args.tol})
    bundle.add_table("report", ["t", "f1", "f2", "delta_f"],
                     np.column_stack([rep.ts, rep.f1, rep.f2, rep.delta_f]))
    _add_coincidences(bundle, rep)
    bundle.verdicts = [rep.verdict] + list(rep.notes)
    return (bundle, rep.verdict, [f"note: {note}" for note in rep.notes],
            _exit_code(rep.verdict))


# ----------------------------------------------------------------- verify


def cmd_verify(args) -> _Outcome:
    from . import verify

    if args.suite is not None and args.suite not in verify.SUITE_NAMES:
        raise ConfigError(f"suite {args.suite!r}: expected one of "
                          + ", ".join(verify.SUITE_NAMES))
    if args.seed < 0:
        raise ConfigError("seed must be non-negative")
    results = verify.run_suites(
        seed=args.seed, suites=[args.suite] if args.suite else None,
        flip_nonmetricity_sign=args.negative_control)
    bundle = ResultBundle(
        command="verify",
        config={"suite": args.suite or "all", "seed": args.seed,
                "negative_control": args.negative_control},
        seed=args.seed)
    bundle.add_table(
        "checks",
        ["suite", "check", "passed", "measured", "tolerance", "detail"],
        [[r.suite, r.name, r.passed, r.measured, r.tolerance, r.detail]
         for r in results])
    all_passed = all(r.passed for r in results)
    verdict = "all-checks-passed" if all_passed else "checks-failed"
    bundle.verdicts = [verdict]
    lines = [f"{'pass' if r.passed else 'FAIL'} {r.suite}/{r.name}: "
             f"{r.measured:.3e} (tol {r.tolerance:.1e})" for r in results]
    return bundle, verdict, lines, EXIT_OK if all_passed else EXIT_NUMERICAL


# -------------------------------------------------------------- curvature


def cmd_curvature(args) -> _Outcome:
    if not 0.0 < args.grid_start <= args.grid_stop:
        raise ConfigError("need 0 < grid-start <= grid-stop")
    if args.grid_points < 1:
        raise ConfigError("grid-points must be at least 1")

    spect = spectrum(ChainSpec(2))
    astar = spect.a_star[0]
    g, f = mode_plane_manifold(spect, 0)
    conn = straightening_connection(g, f, 0.0)
    ratios = np.linspace(args.grid_start, args.grid_stop, args.grid_points)
    closed = np.full(args.grid_points, np.nan)
    for i, ratio in enumerate(ratios):
        with contextlib.suppress(SingularCurvatureError):
            closed[i] = scalar_curvature_mode(spect, 0, ratio * astar)
    ok = ~np.isnan(closed)
    num = np.full(args.grid_points, np.nan)
    num[ok] = scalar_curvature(
        conn, np.column_stack([np.zeros(ok.sum()), ratios[ok] * astar]))
    rel = np.abs(num - closed) / np.maximum(1.0, np.abs(closed))

    bundle = ResultBundle(
        command="curvature",
        config={"model": "gaussian-mode", "grid_start": args.grid_start,
                "grid_stop": args.grid_stop, "grid_points": args.grid_points})
    bundle.add_table(
        "curvature",
        ["a_ratio", "s_closed_form", "s_numeric", "rel_error", "status"],
        [[float(r), float(c), float(s), float(e), "ok" if k else "singular"]
         for r, c, s, e, k in zip(ratios, closed, num, rel, ok)])
    return (bundle, None, [f"{args.grid_points} grid points, "
                           f"{int((~ok).sum())} singular"], EXIT_OK)


# ------------------------------------------------------------------ main


def _build_parser() -> _Parser:
    parser = _Parser(prog="geoflow",
                     description="Gradient-flow geometry experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="INI config file")
        p.add_argument("--out", default="geoflow-out",
                       help="output directory (default %(default)s)")

    p_chain = sub.add_parser("chain",
                             help="race warming against cooling for a chain")
    add_common(p_chain)
    p_chain.add_argument("--n-beads", dest="n_beads", type=int, default=11,
                         help="bead count, at least 2 (default %(default)s)")
    p_chain.add_argument("--t-plus", dest="t_plus", type=finite, default=2.0,
                         help="hot start temperature ratio "
                              "(default %(default)s)")
    p_chain.set_defaults(func=cmd_chain)

    p_cmp = sub.add_parser("compare",
                           help="race two equidistant seeds on a model")
    add_common(p_cmp)
    p_cmp.add_argument("--model", choices=sorted(COMPARE_MODELS),
                       default="gaussian-mode",
                       help="registered model (default %(default)s)")
    p_cmp.add_argument("--direction1", type=_vector,
                       help="comma-separated seed direction for curve 1 "
                            "(default the model's)")
    p_cmp.add_argument("--direction2", type=_vector,
                       help="comma-separated seed direction for curve 2 "
                            "(default the model's)")
    p_cmp.add_argument("--level", type=finite,
                       help="shared potential level of the two seeds "
                            "(default the model's)")
    p_cmp.add_argument("--t-end", dest="t_end", type=finite, default=10.0,
                       help="time horizon (default %(default)s)")
    p_cmp.add_argument("--tol", type=finite, default=1e-10,
                       help="integrator tolerance, at least 100 eps and "
                            "below 1 (default %(default)s)")
    p_cmp.set_defaults(func=cmd_compare)

    p_ver = sub.add_parser("verify", help="run the invariant battery")
    add_common(p_ver)
    p_ver.add_argument("--seed", type=int, default=0,
                       help="random checks' seed, >= 0 (default %(default)s)")
    # checked by cmd_verify, so that no other command loads the battery
    p_ver.add_argument("--suite",
                       help="run only this suite (default all); an unknown "
                            "name is refused with the list of suites")
    p_ver.add_argument("--negative-control", dest="negative_control",
                       action="store_true",
                       help="flip the closed-form non-metricity sign; the "
                            "battery must then fail")
    p_ver.set_defaults(func=cmd_verify)

    p_curv = sub.add_parser("curvature",
                            help="scan the gaussian-mode scalar curvature "
                                 "over a/a*")
    add_common(p_curv)
    p_curv.add_argument("--grid-start", dest="grid_start", type=finite,
                        default=0.2,
                        help="smallest a/a* ratio (default %(default)s)")
    p_curv.add_argument("--grid-stop", dest="grid_stop", type=finite,
                        default=5.0,
                        help="largest a/a* ratio (default %(default)s)")
    p_curv.add_argument("--grid-points", dest="grid_points", type=int,
                        default=25, help="grid size (default %(default)s)")
    p_curv.set_defaults(func=cmd_curvature)
    parser.commands = sub.choices
    return parser


@functools.lru_cache(maxsize=1)
def _parser(models: tuple[str, ...]) -> _Parser:
    """The process's parser for the registry's model names ``models``.

    Parsing leaves a parser as it was, so :func:`main` reuses it; a
    registry that gains or loses a model is a new key, hence a new parser.
    """
    return _build_parser()


def main(argv=None) -> int:
    parser = _parser(tuple(COMPARE_MODELS))
    argv = _attach_vector_values(sys.argv[1:] if argv is None else list(argv))
    try:
        args = parser.parse_args(argv)
        if args.config:
            # config values become the subcommand's defaults, and argv is
            # parsed again: a flag beats the config, which beats a default.
            # A parser of this call's own keeps them from later calls
            parser = _build_parser()
            parser.commands[args.command].set_defaults(**_config_values(
                args.config, parser.commands, args.command))
            args = parser.parse_args(argv)
        if os.path.exists(args.out) and not os.path.isdir(args.out):
            raise ConfigError(f"--out {args.out}: not a directory")
        start = time.perf_counter()
        bundle, stdout, stderr, code = args.func(args)
        bundle.wall_time_s = time.perf_counter() - start
        bundle.write(args.out)
        for line in stderr:
            print(line, file=sys.stderr)
        if stdout is not None:
            print(stdout)
        return code
    except SystemExit as exc:
        # --help printed the usage and asked argparse to exit
        return exc.code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        # the bundle could not be written
        print(f"config error: cannot write --out: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (GeoflowError, MemoryError) as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
