#!/usr/bin/env python3
"""Benchmark of the semimarkov package: fit, compare and simulate workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cohort_mem --seed 7 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table
    python3 perfbench/run.py --workload all --smoke    # reduced sizes, one pass

Workloads (closed loop, one client, one operation at a time):

* ``demo_cli``: the 12 steps of scripts/run_demo_pipeline.py plus
  ``semimarkov --help``, each a fresh CLI process, on the bundled cohorts.
* ``cohort_mem``: in-process library calls on 10 patients x 10 h at 50 Hz.
* ``cohort_files``: 10 patients x 30 min at 50 Hz simulated, written as CSV
  files and analysed by four in-process CLI commands that re-read them.

Each workload runs in its own fresh worker process, with BLAS and OpenMP
pinned to one thread; set-up is repeated in further fresh processes and its
median reported.  ``--trace 0`` measures the end-to-end metrics; ``--trace 1``
alternates untraced and traced passes and reports per-layer metrics, the
tracing overhead, and writes the spans to ``perfbench/out``.  The program
under test is imported from ``src/``; nothing is installed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A human-readable
table of every metric comes before it, and the full record (environment,
input sizes, every pass) is written to ``perfbench/out``.
"""

from __future__ import annotations

import os

# Pinned before anything can load a BLAS; every child inherits these.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from metrics import END_TO_END, GATED, PER_LAYER, WORKLOADS, layer_unit  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKER = BENCH / "worker.py"

DEFAULT_SEED = 20180823
DEFAULT_SECONDS = 36
SETUP_REPEATS = 3
# The worker may overrun --seconds by one pass; beyond this it is stuck.
WORKER_GRACE_S = 140.0


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def _spawn_worker(args, workload: str, setup_only: bool, tag: str) -> dict:
    report = OUT / f"{workload}-{tag}.report.json"
    workdir = OUT / f"work-{workload}-{os.getpid()}-{tag}"
    spans = OUT / f"{workload}-seed{args.seed}.spans.jsonl"
    cmd = [sys.executable, str(WORKER), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir),
           "--report", str(report), "--spans", str(spans)]
    if args.smoke:
        cmd.append("--smoke")
    if setup_only:
        cmd.append("--setup-only")
    try:
        t0 = time.monotonic()
        # its own session, so that a stuck worker is stopped with its CLI children
        proc = subprocess.Popen([*cmd, "--t0", repr(t0)], env=_child_env(),
                                stdout=subprocess.DEVNULL, start_new_session=True)
        try:
            returncode = proc.wait(timeout=args.seconds + WORKER_GRACE_S)
        except BaseException:  # timed out or interrupted: stop it, then re-raise
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        if returncode != 0:
            raise RuntimeError(f"{workload} worker exited with code {returncode}")
        return json.loads(report.read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        report.unlink(missing_ok=True)


def _environment() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "platform": platform.platform(),
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "threads_pinned": {var: os.environ[var] for var in THREAD_VARS},
    }


def run_workload(args, workload: str) -> dict:
    repeats = 1 if args.smoke or args.trace else SETUP_REPEATS
    setups = [_spawn_worker(args, workload, True, f"setup{k}")["setup_s"]
              for k in range(repeats - 1)]
    report = _spawn_worker(args, workload, False, "run")
    setups.append(report["setup_s"])
    passes = report["passes"]
    timed = [p for p in passes if p["kind"] in ("plain", "untraced")]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)

    e2e = {"setup_s": statistics.median(setups),
           "pass_s": statistics.median(p["pass_s"] for p in timed)}
    for name in ("fit_s", "analyze_s", "simulate_s", "export_s", "startup_s"):
        if name in timed[0]:
            e2e[name] = statistics.median(p[name] for p in timed)
    e2e["peak_rss_mb"] = report["peak_rss_mb"]
    e2e["failed_frac"] = failed / attempted
    e2e.update(report["quality"])

    return {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "environment": {**_environment(), **report["versions"]},
        "sizes": report["sizes"],
        "passes": len(timed),
        "setup_runs_s": setups,
        "attempted": attempted,
        "failed": failed,
        "failures": sorted({f for p in passes for f in p["failures"]}),
        "end_to_end": e2e,
        "per_layer": report.get("layers"),
        "pass_records": passes,
    }


def _print_table(result: dict) -> None:
    w = result["workload"]
    print(f"== {w}  seed={result['seed']}  passes={result['passes']}  "
          f"attempted={result['attempted']}  failed={result['failed']}")
    print(f"   sizes: {json.dumps(result['sizes'], sort_keys=True)}")
    if result["trace"]:
        print("   (traced run: end-to-end figures below come from its untraced "
              "passes, which run in one process)")
    for name, value in result["end_to_end"].items():
        unit = END_TO_END[name][0]
        print(f"   {w}.{name:<20} {value:>14.6g} {unit}")
    if result["per_layer"]:
        for name, value in result["per_layer"].items():
            print(f"   {w}.{name:<38} {value:>14.6g} {layer_unit(name)}")
    for failure in result["failures"]:
        print(f"   FAILED {failure}")


def _result_line(results: list[dict], trace: int) -> dict:
    metrics = {}
    for r in results:
        prefix = "" if len(results) == 1 else f"{r['workload']}."
        if trace:
            for name in PER_LAYER:
                metrics[prefix + name] = {"value": r["per_layer"][name],
                                          "unit": layer_unit(name)}
        else:
            for name in GATED:
                metrics[prefix + name] = {"value": r["end_to_end"][name],
                                          "unit": END_TO_END[name][0]}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced input sizes and a single pass")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "semimarkov" / "__init__.py").is_file():
        print(f"error: no semimarkov sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        result = run_workload(args, name)
        path = OUT / f"{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(result, indent=1), encoding="utf-8")
        _print_table(result)
        results.append(result)
    print(json.dumps(_result_line(results, args.trace)))
    return 0


if __name__ == "__main__":
    try:
        raise SystemExit(main())
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(1) from None
