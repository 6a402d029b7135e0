"""geoflow benchmark: certificate time on chain-race, flat-bowl and geometry.

    python3 bench/run.py --workload chain-race --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; nothing needs installing.  Each
workload runs in a fresh single-threaded process (``worker.py``) that
imports geoflow from ``src/``.  With ``--trace 0`` the last line of stdout
is a JSON object carrying the end-to-end metrics, with times scaled to
nominal machine speed by a reference kernel timed in the same processes;
with ``--trace 1`` it carries the per-layer metrics of a traced pass.
The lines before it are the same numbers for people: the machine block,
every metric with its unit, ``fail_ratio`` and, where a run yields at
least 100 certificates, ``cert_s.p90``.  A fuller record goes to
``.bench_out/``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("chain-race", "flat-bowl", "geometry")

#: extra fresh processes that only set up, for the median of set-up time
SETUP_PROBES = 4

#: the run must end well within the 180 s a run is allowed
DEADLINE_S = 170.0

#: every pool one thread: see README.md, "Why one thread"
SINGLE_THREAD = {
    "GEOFLOW_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

#: (metric, unit) reported by an untraced run
END_TO_END = (("wall_s", "s"), ("cert_s.p50", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))


def _worker(argv: list[str], deadline: float) -> dict:
    """Run worker.py in a fresh process and parse its JSON line."""
    env = dict(os.environ, **SINGLE_THREAD,
               PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *argv,
         "--scratch", str(ROOT / ".bench_out")],
        cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "geoflow" / "__init__.py").is_file():
        print(f"no geoflow source under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    (ROOT / ".bench_out").mkdir(exist_ok=True)

    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        probes = [] if args.trace else [
            _worker(common + ["--setup-only"], deadline)
            for _ in range(SETUP_PROBES)]
        res = _worker(common, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    setups = [(p["setup_s"], p["speed"]) for p in probes]
    setups.append((res["setup_s"], res["setup_speed"]))

    passes = [res["untraced"]] + ([res["traced"]] if args.trace else [])
    attempted = sum(p["certificates"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    plain = res["untraced"]
    measured = {"wall_s": plain["wall_s"], "cert_s.p50": plain["cert_s.p50"],
                "setup_s": statistics.median(t for t, _ in setups)}
    e2e = {"wall_s": plain["wall_s"] * plain["speed"],
           "cert_s.p50": plain["cert_s.p50"] * plain["speed"],
           "setup_s": statistics.median(t * v for t, v in setups),
           "peak_rss_mb": res["peak_rss_mb"]}
    if args.trace:
        from tracer import PER_LAYER
        metrics = {name: {"value": res["per_layer"][name], "unit": unit}
                   for name, unit in PER_LAYER}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END}

    lines = [f"machine: {json.dumps(res['machine'])}",
             f"workload {args.workload}, seed {args.seed}, "
             f"{plain['rounds']} round(s), {plain['certificates']} "
             f"certificates (cert_s.p50 over all of them)"]
    lines.append(f"machine speed {plain['speed']:.4g} of nominal; times "
                 "below are at nominal speed, measured seconds in brackets")
    lines += [f"{name} = {e2e[name]:.6g} {unit}"
              + (f" ({measured[name]:.6g} {unit})" if name in measured
                 else "")
              for name, unit in END_TO_END]
    if plain["cert_s.p90"] is not None:
        lines.append(f"cert_s.p90 = {plain['cert_s.p90'] * plain['speed']:.6g}"
                     f" s ({plain['cert_s.p90']:.6g} s)")
    lines.append(f"fail_ratio = {failed / attempted:.6g} 1 "
                 f"({failed} of {attempted})")
    if args.workload == "flat-bowl":
        lines.append(f"zero-gap note on {plain['zero_gap']} of "
                     f"{plain['certificates']} certificates (known defect)")
    if args.trace:
        lines.append(f"traced pass: wall_s = {res['traced']['wall_s']:.6g} s"
                     f", overhead {res['per_layer']['trace.overhead_s']:.6g}"
                     " s")
        lines += [f"{name} = {m['value']:.6g} {m['unit']}"
                  for name, m in metrics.items()]
    for p in passes:
        lines += [f"FAILED: {detail}" for detail in p["failures"]]
    print("\n".join(lines))

    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace,
                  machine=res["machine"], setup_samples=setups,
                  passes=passes)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (ROOT / ".bench_out" / name).write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
