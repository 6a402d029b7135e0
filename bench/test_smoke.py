"""Smoke test of the benchmark at its smallest size.

    python3 -m pytest bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload",
         workload, "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_every_named_metric_is_emitted():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = _run("geometry", trace)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert [m["name"] for m in spec[key]] == list(result["metrics"])
        for m in spec[key]:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]
        if not trace:
            text = "\n".join(lines)
            assert "fail_ratio = 0 " in text and "cert_s.p90 = " in text


def test_failing_oracle_raises_fail_ratio(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    import worker
    import workloads

    scratch = ROOT / ".bench_out" / "smoke"
    scratch.mkdir(parents=True, exist_ok=True)
    monkeypatch.setattr(workloads.ChainRace, "N_BEADS", (3,))
    monkeypatch.setattr(workloads.FlatBowl, "PER_ROUND", 1)
    try:
        for wl in (workloads.ChainRace(), workloads.FlatBowl()):
            ok = worker.run_pass(wl, 0, scratch, rounds=1)
            assert (ok["certificates"], ok["failed"]) == (1, 0), ok
        # the integrated variances sit ~1e-10 from the closed form, so a
        # zero tolerance must fail the certificate
        monkeypatch.setattr(workloads, "VARIANCE_RTOL", 0.0)
        bad = worker.run_pass(workloads.ChainRace(), 0, scratch, rounds=1)
        assert bad["failed"] / bad["certificates"] == 1.0
        assert bad["failures"][0].startswith("variance error")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def test_refuses_to_run_without_the_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("geometry", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
