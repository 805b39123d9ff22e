"""One benchmark run of one workload, in a fresh process.

Started by run.py, never by hand: it receives the parent's monotonic clock
reading taken just before the process was spawned, so that its set-up time
includes interpreter start and imports.  It writes its measurements as JSON
to ``--report``.
"""

from __future__ import annotations

import argparse
import json
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import tracing
import workloads
from metrics import CATEGORIES, PER_LAYER

_perf = time.perf_counter


def _pass_summary(kind: str, rec: workloads.PassRecorder, expected_ops: int) -> dict:
    summary = {"kind": kind, "pass_s": sum(op.seconds for op in rec.ops)}
    for category in CATEGORIES:
        ops = [op for op in rec.ops if op.category == category]
        if ops:
            summary[f"{category}_s"] = sum(op.seconds for op in ops)
    failures = [f"{op.name}: {op.problem}" for op in rec.ops if op.problem is not None]
    not_run = expected_ops - len(rec.ops)
    summary.update(attempted=expected_ops, failed=len(failures) + not_run)
    if not_run:
        failures.append(f"{not_run} operations not run after the pass aborted")
    summary["failures"] = failures
    return summary


def _one_pass(wl, kind: str, in_process: bool) -> dict:
    rec = workloads.PassRecorder()
    try:
        wl.run_pass(rec, in_process)
    except workloads.PassAborted:
        pass
    rec.finalize()
    return _pass_summary(kind, rec, wl.ops_per_pass())


def _measure(wl, seconds: float, smoke: bool) -> list[dict]:
    passes: list[dict] = []
    start = _perf()
    walls: list[float] = []
    while True:
        t = _perf()
        passes.append(_one_pass(wl, "plain", in_process=False))
        walls.append(_perf() - t)
        if smoke or _perf() - start + statistics.median(walls) > seconds:
            return passes


def _measure_traced(wl, seconds: float, smoke: bool, spans_path: str) -> list[dict]:
    """Untraced and traced passes in alternation, both in this process.

    An untimed in-process pass comes first, so that neither kind pays the
    first in-process call of anything; the order within each pair of passes
    alternates, so that drift does not bias the tracing overhead.
    """
    tracer = tracing.Tracer()
    instrumentation = tracing.Instrumentation(tracer)
    start = _perf()
    _one_pass(wl, "warmup", in_process=True)
    passes: list[dict] = []
    walls: list[float] = []
    pass_id = 0
    while True:
        t = _perf()
        for traced in (pass_id % 2 == 1, pass_id % 2 == 0):
            if traced:
                tracer.begin_pass(pass_id)
                passes.append(_traced_pass(wl, tracer, instrumentation))
            else:
                passes.append(_one_pass(wl, "untraced", in_process=True))
        pass_id += 1
        walls.append(_perf() - t)
        if smoke or _perf() - start + statistics.median(walls) > seconds:
            break
    tracer.write_spans(spans_path)
    return passes


def _traced_pass(wl, tracer, instrumentation) -> dict:
    rec = workloads.PassRecorder(tracer)
    instrumentation.install()
    try:
        wl.run_pass(rec, True)
    except workloads.PassAborted:
        pass
    finally:
        instrumentation.uninstall()
    layers = tracing.layer_metrics(*tracer.end_pass())
    rec.finalize()
    summary = _pass_summary("traced", rec, wl.ops_per_pass())
    summary["layers"] = layers
    return summary


_IMPORTTIME = re.compile(r"import time:\s*\d+ \|\s*(\d+) \|\s*(\S+)\s*$")


def import_times(repeats: int) -> dict[str, float]:
    """Cumulative import times (ms) of semimarkov.cli and scipy.optimize, as
    ``python -X importtime`` reports them in a fresh process; median of repeats."""
    found: dict[str, list[float]] = {"semimarkov.cli": [], "scipy.optimize": []}
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import semimarkov.cli"],
            capture_output=True, text=True, timeout=120, check=True,
        )
        seen = set()
        for line in proc.stderr.splitlines():
            m = _IMPORTTIME.match(line)
            if m and m.group(2) in found and m.group(2) not in seen:
                seen.add(m.group(2))
                found[m.group(2)].append(int(m.group(1)) / 1000.0)
    return {
        "import.cli_ms": statistics.median(found["semimarkov.cli"]),
        "import.scipy_optimize_ms": statistics.median(found["scipy.optimize"]),
    }


def _median(values: list):
    """Median; of counts, which repeat exactly, the count itself."""
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def _traced_layers(passes: list[dict], import_ms: dict) -> dict[str, float]:
    traced = [p for p in passes if p["kind"] == "traced"]
    untraced = [p for p in passes if p["kind"] == "untraced"]
    layers = {name: _median([p["layers"][name] for p in traced])
              for name in traced[0]["layers"]}
    layers.update(import_ms)
    # the two passes of a pair ran back to back, so they share machine state
    layers["trace.overhead_s"] = statistics.median(
        t["pass_s"] - u["pass_s"] for t, u in zip(traced, untraced))
    missing = set(PER_LAYER) - set(layers)
    if missing:
        raise RuntimeError(f"per-layer metrics not measured: {sorted(missing)}")
    return {name: layers[name] for name in PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() in the parent just before spawning")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--spans", required=True)
    args = parser.parse_args(argv)

    wl = workloads.WORKLOADS[args.workload](args.seed, args.smoke, Path(args.workdir))
    wl.setup()
    report: dict = {"setup_s": time.monotonic() - args.t0}
    if not args.setup_only:
        if args.trace:
            passes = _measure_traced(wl, args.seconds, args.smoke, args.spans)
            report["layers"] = _traced_layers(passes, import_times(1 if args.smoke else 3))
        else:
            passes = _measure(wl, args.seconds, args.smoke)
        wl.describe()
        who = (resource.RUSAGE_CHILDREN if wl.name == "demo_cli" and not args.trace
               else resource.RUSAGE_SELF)
        report.update(
            passes=passes,
            peak_rss_mb=resource.getrusage(who).ru_maxrss / 1024.0,
            quality=wl.quality,
            sizes=wl.sizes,
            versions={"python": platform.python_version(), "numpy": np.__version__,
                      "scipy": scipy.__version__},
        )
    Path(args.report).write_text(json.dumps(report, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
