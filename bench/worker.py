"""One workload in a fresh process: set up, certify, print one JSON line.

Run by ``run.py``; usable on its own as

    PYTHONPATH=src python3 bench/worker.py --workload geometry --seed 1 \
        --seconds 5 --trace 0

Set-up time runs from before ``import geoflow`` to the end of building the
workload's inputs.  ``--setup-only`` stops there.  An untraced pass
repeats rounds while the next one is expected to end within
``--seconds``.  With ``--trace 1`` the pass instead runs a fixed number of
rounds, then runs the same rounds again with the tracer installed, so span
counts repeat exactly and the difference of the two passes is the tracing
overhead.  Every pass, and every set-up, also times a reference kernel,
from which ``run.py`` scales measured times to nominal machine speed.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

#: rounds of a traced pass, fixed so that its counts repeat exactly
TRACE_ROUNDS = {"chain-race": 1, "flat-bowl": 2, "geometry": 40}

#: p90 is reported only with at least ten certificates beyond it
P90_MIN_CERTS = 100

#: seconds the reference kernel takes at nominal machine speed
REF_NOMINAL_S = 0.03

#: a pass times the reference kernel at least this often
REF_EVERY_S = 1.0


def reference_s() -> float:
    """Time a fixed kernel of the work geoflow's hot paths are made of.

    An interpreter loop, small-matrix numpy and LAPACK calls, and scipy's
    RK45 stepping a Python right-hand side.  On a shared machine it slows
    down and speeds up with geoflow's own code; it runs no geoflow code,
    so a change to geoflow cannot move it.
    """
    import numpy as np
    from scipy.integrate import RK45

    mats = [np.diag(np.arange(1.0, n + 1.0)) + 0.01 for n in (1, 2, 5, 11)]
    rates = np.array([0.5, 1.0, 2.0])

    def rhs(_t, a):
        g = np.diag(1.0 / (2.0 * a ** 2))
        np.linalg.cond(g)
        return -np.linalg.inv(g) @ (rates * (a - 2.0 / rates) / a ** 2)

    t = time.perf_counter()
    total = 0
    for i in range(150_000):
        total += i * i
    for _ in range(60):
        for m in mats:
            np.linalg.cond(m)
            np.einsum("ij,j->i", np.linalg.inv(m), m[0])
    solver = RK45(rhs, 0.0, 4.0 / rates, t_bound=100.0, rtol=1e-10,
                  atol=1e-10)
    for _ in range(40):
        solver.step()
        solver.dense_output()(solver.t)
    return time.perf_counter() - t


def speed(samples: list[float]) -> float:
    """Machine speed relative to nominal, from reference kernel times."""
    return REF_NOMINAL_S / statistics.median(samples)


def run_pass(wl, seed: int, scratch: Path, *, seconds: float | None = None,
             rounds: int | None = None, tracer=None) -> dict:
    """Certify rounds of ``wl``; time each certificate and each round."""
    import numpy as np

    from workloads import Outcome

    latencies, round_s, outcomes = [], [], []
    refs = [reference_s()]
    begin = last_ref = time.perf_counter()
    for r in itertools.count():
        certs = wl.round(np.random.default_rng([seed, r]))
        n_before = len(latencies)
        for cert in certs:
            out = scratch / "cert"
            if tracer is not None:
                tracer.cert_id = len(outcomes)
            t = time.perf_counter()
            try:
                outcome = wl.certify(cert, out)
            except Exception as exc:  # a raising certificate is a failure
                outcome = Outcome(False, f"{type(exc).__name__}: {exc}")
            latencies.append(time.perf_counter() - t)
            outcomes.append(outcome)
            shutil.rmtree(out, ignore_errors=True)
            if time.perf_counter() - last_ref >= REF_EVERY_S:
                refs.append(reference_s())
                last_ref = time.perf_counter()
        round_s.append(sum(latencies[n_before:]))
        if rounds is not None:
            if r + 1 == rounds:
                break
        elif (time.perf_counter() - begin + statistics.median(round_s)
              > seconds):
            break
    failures = [o.detail for o in outcomes if not o.ok]
    return {
        "rounds": len(round_s),
        "wall_s": statistics.median(round_s),
        "cert_s.p50": statistics.median(latencies),
        "cert_s.p90": (statistics.quantiles(latencies, n=10)[8]
                       if len(latencies) >= P90_MIN_CERTS else None),
        "certificates": len(outcomes),
        "failed": len(failures),
        "failures": failures[:5],
        "variance_err": max(o.variance_err for o in outcomes),
        "zero_gap": sum(o.zero_gap for o in outcomes),
        "speed": speed(refs),
    }


def machine() -> dict:
    import numpy
    import scipy

    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "GEOFLOW_THREADS": os.environ.get("GEOFLOW_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "MKL_NUM_THREADS": os.environ.get("MKL_NUM_THREADS"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scratch", type=Path, default=Path(".bench_out"))
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import numpy as np

    import workloads

    wl = workloads.WORKLOADS[args.workload]()
    wl.round(np.random.default_rng([args.seed, 0]))
    setup_s = time.perf_counter() - _T0
    if args.setup_only:
        refs = [reference_s() for _ in range(5)]
        print(json.dumps({"setup_s": setup_s, "speed": speed(refs)}))
        return 0

    scratch = args.scratch / f"tmp-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        result = {"setup_s": setup_s, "machine": machine(),
                  "setup_speed": speed([reference_s() for _ in range(5)])}
        if args.trace:
            from tracer import Tracer

            n = TRACE_ROUNDS[wl.name]
            plain = run_pass(wl, args.seed, scratch, rounds=n)
            with Tracer() as tracer:
                traced = run_pass(wl, args.seed, scratch, rounds=n,
                                  tracer=tracer)
            layers = tracer.per_layer()
            layers["gaussian_chain.oracle_err"] = traced["variance_err"]
            layers["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
            tracer.write(args.scratch
                         / f"trace-{wl.name}-seed{args.seed}.npz")
            result.update(untraced=plain, traced=traced, per_layer=layers)
        else:
            result["untraced"] = run_pass(wl, args.seed, scratch,
                                          seconds=args.seconds)
        result["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                                 .ru_maxrss / 1024.0)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
