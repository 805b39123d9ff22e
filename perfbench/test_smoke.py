"""Smoke test of the benchmark at reduced size.

Every end-to-end and per-layer metric must be emitted with its unit, and no
operation may fail.  Not part of the tier-1 suite (``testpaths`` names only
``tests/``); run it with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from metrics import END_TO_END, GATED, PER_LAYER, WORKLOADS, layer_better, layer_unit

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEED = 11

# End-to-end metrics that exist only on some workloads.
ONLY_ON = {
    "startup_s": {"demo_cli"},
    "simulate_s": {"demo_cli", "cohort_mem"},
    "export_s": {"cohort_mem", "cohort_files"},
}


def _run(workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--smoke",
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    record_path = BENCH / "out" / f"{workload}-seed{SEED}-trace{trace}.json"
    return line, json.loads(record_path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_and_nothing_fails(workload, trace):
    line, record = _run(workload, trace)
    assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
    assert line["correct"] is True
    assert line["failed"] == 0 and line["attempted"] >= 1

    names = PER_LAYER if trace else GATED
    assert list(line["metrics"]) == list(names)
    for name, metric in line["metrics"].items():
        unit = layer_unit(name) if trace else END_TO_END[name][0]
        assert metric["unit"] == unit, name
        assert isinstance(metric["value"], (int, float)), name

    e2e = record["end_to_end"]
    assert e2e["failed_frac"] == 0
    for name in END_TO_END:
        if workload in ONLY_ON.get(name, WORKLOADS):
            assert name in e2e, name


def test_benchmark_json_matches_the_metrics_emitted():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == [
        (name, *END_TO_END[name]) for name in GATED]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, layer_unit(name), layer_better(name)) for name in PER_LAYER]
