"""In-memory span tracer installed around geoflow's public functions.

The wrappers live here, outside the package: :meth:`Tracer.install`
replaces every module-level binding in a ``geoflow`` module that refers to
a traced function, so a caller that imported the name
(``from .manifold import gradient``) is traced exactly like one that looks
it up on its module.  Methods are wrapped on their class.  Nothing in the
package is edited.

Each span records its name, start, end, parent span, thread id and
certificate id.  Spans stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from array import array
from pathlib import Path

import numpy as np

#: (span name, module, attribute); ``Class.method`` wraps a method
TARGETS = (
    ("cli.main", "geoflow.cli", "main"),
    ("bundle.write", "geoflow.bundle", "ResultBundle.write"),
    ("gaussian_chain.experiment", "geoflow.gaussian_chain",
     "universal_asymmetry_experiment"),
    ("comparison.compare", "geoflow.comparison", "compare"),
    ("comparison.seed", "geoflow.comparison", "equidistant_seed"),
    ("comparison.brentq", "geoflow.comparison", "brentq"),
    ("parallel.parallel_map", "geoflow.parallel", "parallel_map"),
    ("straightening.nonmetricity_cubic", "geoflow.straightening",
     "nonmetricity_cubic"),
    ("straightening.z_field", "geoflow.straightening", "z_field"),
    ("straightening.straightening_coeffs", "geoflow.straightening",
     "straightening_coeffs"),
    ("straightening.pregeodesic_residual", "geoflow.straightening",
     "pregeodesic_residual"),
    ("straightening.nonmetricity_tensor", "geoflow.straightening",
     "nonmetricity_tensor"),
    ("straightening.scalar_curvature", "geoflow.straightening",
     "scalar_curvature"),
    ("manifold.integrate_flow", "geoflow.manifold", "integrate_flow"),
    ("manifold.trajectory.position", "geoflow.manifold",
     "Trajectory.position"),
    ("manifold.trajectory.velocity", "geoflow.manifold",
     "Trajectory.velocity"),
    ("manifold.metric_inverse", "geoflow.manifold", "metric_inverse"),
    ("manifold.gradient", "geoflow.manifold", "gradient"),
    ("manifold.christoffel_levi_civita", "geoflow.manifold",
     "christoffel_levi_civita"),
    ("numdiff.jacobian_fd", "geoflow.numdiff", "jacobian_fd"),
    ("numdiff.curve_derivative", "geoflow.numdiff", "curve_derivative"),
)

#: a cubic gap at least this large counts as a useful coincidence root;
#: the same threshold separates zero from nonzero gaps in ``compare``
GAP_ZERO = 1e-10


def _bundle_bytes(out_dir) -> int:
    return sum(p.stat().st_size for p in Path(out_dir).iterdir())


def _report_summary(rep):
    gaps = np.abs(np.asarray(rep.cubic_gaps, dtype=float))
    return {
        "dim": int(rep.traj1.xs.shape[1]),
        "roots": len(rep.coincidence_times),
        "useful": int((gaps >= GAP_ZERO).sum()),
        "gap_min_abs": float(gaps.min()) if gaps.size else None,
        "delta_f_min": float(np.min(rep.delta_f)),
        "zero_gap": any(n.startswith("zero-gap") for n in rep.notes),
    }


#: what a span keeps from its function's result, by span name
_ANNOTATE = {
    "bundle.write": _bundle_bytes,
    "comparison.compare": _report_summary,
    "manifold.integrate_flow": lambda traj: len(traj.ts) - 1,
    "parallel.parallel_map": len,
}

#: spans that open a stage of a ``compare`` call, by stage metric
_STAGES = {
    "manifold.integrate_flow": "integrate_s",
    "manifold.trajectory.position": "sample_s",
    "manifold.trajectory.velocity": "sample_s",
    "comparison.brentq": "roots_s",
    "straightening.nonmetricity_cubic": "cubic_s",
}

#: (metric, unit) in the order they are reported
PER_LAYER = (
    [(f"manifold.integrate_flow.{m}", u)
     for m, u in (("calls", "count"), ("self_s", "s"), ("steps", "count"),
                  ("rhs_evals", "count"))]
    + [("manifold.trajectory.queries", "count"),
       ("manifold.trajectory.self_s", "s")]
    + [(f"manifold.{f}.{m}", u)
       for f in ("metric_inverse", "gradient", "christoffel_levi_civita")
       for m, u in (("calls", "count"), ("self_s", "s"))]
    + [("comparison.compare.calls", "count"),
       ("comparison.compare.self_s", "s"),
       ("comparison.seed.self_s", "s")]
    + [(f"comparison.stage.{s}", "s")
       for s in ("integrate_s", "sample_s", "roots_s", "cubic_s")]
    + [("comparison.brentq.calls", "count"),
       ("comparison.roots", "count"),
       ("comparison.useful_root_ratio", "1"),
       ("comparison.delta_f_min", "1"),
       ("comparison.gap_min_abs", "1"),
       ("comparison.zero_gap_verdicts", "count"),
       ("gaussian_chain.experiment.self_s", "s"),
       ("gaussian_chain.per_mode_share", "1"),
       ("gaussian_chain.oracle_err", "1")]
    + [(f"straightening.{f}.{m}", u)
       for f in ("nonmetricity_cubic", "z_field", "straightening_coeffs",
                 "pregeodesic_residual", "nonmetricity_tensor",
                 "scalar_curvature")
       for m, u in (("calls", "count"), ("self_s", "s"))]
    + [(f"numdiff.{f}.{m}", u)
       for f in ("jacobian_fd", "curve_derivative")
       for m, u in (("calls", "count"), ("self_s", "s"))]
    + [("cli.main.self_s", "s"),
       ("bundle.write.self_s", "s"),
       ("bundle.write.bytes", "B"),
       ("parallel.parallel_map.calls", "count"),
       ("parallel.parallel_map.items", "count"),
       ("trace.spans", "count"),
       ("trace.overhead_s", "s")]
)


class Tracer:
    """Span recorder; one per traced pass."""

    def __init__(self):
        self.names = [t[0] for t in TARGETS]
        self.name_id = array("q")
        self.parent = array("q")
        self.tid = array("q")
        self.cert = array("q")
        self.start = array("d")
        self.end = array("d")
        self.notes: dict[int, object] = {}
        #: certificate the next spans belong to; set by the caller
        self.cert_id = -1
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording

    def _wrap(self, name: str, fn):
        nid = self.names.index(name)
        annotate = _ANNOTATE.get(name)
        clock = time.perf_counter
        local = self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            with self._lock:
                idx = len(self.start)
                self.name_id.append(nid)
                self.parent.append(stack[-1] if stack else -1)
                self.tid.append(threading.get_ident())
                self.cert.append(self.cert_id)
                self.end.append(0.0)
                self.start.append(clock())
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if annotate is not None:
                self.notes[idx] = annotate(result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target at every geoflow binding that refers to it."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "geoflow" or n.startswith("geoflow.")]
        for name, module, attr in TARGETS:
            owner = importlib.import_module(module)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._undo.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(name, orig))
                continue
            orig = getattr(owner, attr)
            wrapped = self._wrap(name, orig)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._undo.append((mod, key, orig))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # ------------------------------------------------------------ reporting

    def write(self, path) -> None:
        """Write every span to a compressed ``.npz`` file."""
        np.savez_compressed(
            path, names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            tid=np.frombuffer(self.tid, dtype=np.int64),
            cert=np.frombuffer(self.cert, dtype=np.int64),
            start=np.frombuffer(self.start), end=np.frombuffer(self.end))

    def per_layer(self) -> dict[str, float]:
        """Counts and self times by layer, from the recorded spans.

        Every span name yields ``<name>.calls`` and ``<name>.self_s``;
        ``PER_LAYER`` lists the metrics that are reported.

        Self time is a span's duration minus its child spans' durations.
        With one worker thread the children of a span are disjoint, so
        their sum is the part of the span they cover.
        """
        n = len(self.start)
        nid = np.frombuffer(self.name_id, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                              minlength=n)
        own = dur - covered
        k = len(self.names)
        calls = np.bincount(nid, minlength=k)
        self_s = np.bincount(nid, weights=own, minlength=k)
        inclusive = np.bincount(nid, weights=dur, minlength=k)

        # one pass in span order: parents are recorded before children
        ids = {name: self.names.index(name) for name in
               ("manifold.integrate_flow", "manifold.gradient",
                "comparison.compare", "gaussian_chain.experiment")}
        stage_of = {self.names.index(nm): st for nm, st in _STAGES.items()}
        stage = dict.fromkeys(("integrate_s", "sample_s", "roots_s",
                               "cubic_s"), 0.0)
        in_flow = [False] * n      # span is or lies inside integrate_flow
        in_exp = [False] * n       # span is or lies inside the experiment
        marker = [None] * n        # nearest stage or compare span, inclusive
        rhs_evals = 0
        per_mode_s = 0.0
        nid_l, parent_l, dur_l = nid.tolist(), parent.tolist(), dur.tolist()
        for i in range(n):
            p = parent_l[i]
            name = nid_l[i]
            outer = marker[p] if p >= 0 else None
            if name == ids["manifold.gradient"] and p >= 0 and in_flow[p]:
                rhs_evals += 1
            st = stage_of.get(name)
            if st is not None and outer == "compare":
                stage[st] += dur_l[i]
            if name == ids["comparison.compare"]:
                marker[i] = "compare"
                if (p >= 0 and in_exp[p]
                        and self.notes.get(i, {}).get("dim") == 1):
                    per_mode_s += dur_l[i]
            else:
                marker[i] = st or outer
            in_flow[i] = (name == ids["manifold.integrate_flow"]
                          or (p >= 0 and in_flow[p]))
            in_exp[i] = (name == ids["gaussian_chain.experiment"]
                         or (p >= 0 and in_exp[p]))

        notes: dict[int, list] = {}
        for i, note in self.notes.items():
            notes.setdefault(nid_l[i], []).append(note)

        def notes_of(name):
            return notes.get(self.names.index(name), [])

        reports = notes_of("comparison.compare")
        roots = sum(r["roots"] for r in reports)
        gaps = [r["gap_min_abs"] for r in reports
                if r["gap_min_abs"] is not None]
        exp_s = float(inclusive[ids["gaussian_chain.experiment"]])
        out = {}
        for j, name in enumerate(self.names):
            out[f"{name}.calls"] = int(calls[j])
            out[f"{name}.self_s"] = float(self_s[j])
        query = ("manifold.trajectory.position",
                 "manifold.trajectory.velocity")
        out.update({
            "manifold.integrate_flow.steps":
                int(sum(notes_of("manifold.integrate_flow"))),
            "manifold.integrate_flow.rhs_evals": rhs_evals,
            "manifold.trajectory.queries":
                sum(out[f"{q}.calls"] for q in query),
            "manifold.trajectory.self_s":
                sum(out[f"{q}.self_s"] for q in query),
            **{f"comparison.stage.{k}": v for k, v in stage.items()},
            "comparison.roots": roots,
            "comparison.useful_root_ratio":
                sum(r["useful"] for r in reports) / roots if roots else 0.0,
            "comparison.delta_f_min":
                min((r["delta_f_min"] for r in reports), default=0.0),
            "comparison.gap_min_abs": min(gaps, default=0.0),
            "comparison.zero_gap_verdicts":
                sum(r["zero_gap"] for r in reports),
            "gaussian_chain.per_mode_share":
                per_mode_s / exp_s if exp_s else 0.0,
            "bundle.write.bytes": int(sum(notes_of("bundle.write"))),
            "parallel.parallel_map.items":
                int(sum(notes_of("parallel.parallel_map"))),
            "trace.spans": n,
        })
        return out
