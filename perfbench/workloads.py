"""The benchmark's workloads: set-up, one timed pass, and output checks.

Every workload is a closed loop with one client: an operation starts when
the previous one has returned, and no two operations ever run at once.  The
benchmark generates every input from its seed; the program sees only those
inputs and the bundled demo cohorts.

Checks are deferred to the end of a pass (``PassRecorder.finalize``), after
the span wrappers are removed, so that reading outputs back is neither timed
nor traced.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io as stdio
import json
import math
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from semimarkov import cli, compare, fitting, io, presets, sequences, simulate

_perf = time.perf_counter

REPO = Path(__file__).resolve().parent.parent
DEMO_DATA = REPO / "data" / "synthetic"

RATE_HZ = 50.0
REPLICATES = 1000
# A semi-Markov refit of a cohort drawn from the success preset must land
# within this aggregate symmetric KL (nats) of the preset's transition matrix.
# Sampling error at the sizes below is an order of magnitude smaller.
REFIT_KL_LIMIT = 0.05

# Bound the code under test can take for one CLI step in its own process.
STEP_TIMEOUT_S = 120.0

# Captured before any span wrapper is installed: checks and quality figures
# must not be counted as work of the layers they read back through.
_compare_matrices = compare.compare_transition_matrices
_read_model_json = io.read_model_json
_read_manifest = io.read_manifest
_load_sequences = io.load_sequences


@dataclass
class Op:
    """One timed operation; ``problem`` is None when it and its checks passed."""

    name: str
    category: str | None
    seconds: float
    problem: str | None = None


class PassAborted(Exception):
    """An operation raised, so the rest of the pass cannot run."""


class PassRecorder:
    """Times the operations of one pass and runs their checks afterwards."""

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.ops: list[Op] = []
        self._checks: list[tuple[Op, object]] = []

    def run(self, name: str, category: str | None, fn):
        # Each operation starts from a collected heap, as a fresh CLI process
        # does; otherwise when the collector's full passes fall depends on
        # what earlier operations left, and their cost moves between passes.
        gc.collect()
        start = _perf()
        try:
            result = fn()
        except Exception as exc:  # the op failed; record it and stop the pass
            self.ops.append(Op(name, category, _perf() - start,
                               f"{type(exc).__name__}: {exc}"))
            raise PassAborted(name) from exc
        self.ops.append(Op(name, category, _perf() - start))
        return result

    def defer(self, check) -> None:
        """Attach a check to the last operation; it returns a problem or None."""
        self._checks.append((self.ops[-1], check))

    def finalize(self) -> None:
        for op, check in self._checks:
            if op.problem is not None:
                continue
            try:
                op.problem = check()
            except Exception as exc:  # a check that cannot run is a failed check
                op.problem = f"check raised {type(exc).__name__}: {exc}"
        self._checks.clear()

    def call_cli(self, argv: list[str]) -> tuple[int, str]:
        """cli.main in this process, output captured, inside a span when traced."""
        out = stdio.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            if self.tracer is None:
                rc = cli.main(argv)
            else:
                rc = self.tracer.call("cli.main", cli.main, argv)
                if rc != 0:
                    self.tracer.counts["cli.nonzero_exits"] += 1
        return rc, out.getvalue()


class ByteLedger:
    """Artifacts must be byte-identical to the ones the first pass wrote."""

    def __init__(self) -> None:
        self._first: dict[str, str] = {}

    def check(self, paths) -> str | None:
        for path in paths:
            digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
            key = Path(path).name
            if self._first.setdefault(key, digest) != digest:
                return f"{key} differs from the first pass"
        return None


# --- output checks -----------------------------------------------------------


def check_semi_markov(model, observed: set[str] | None = None) -> str | None:
    """Exactly-zero diagonal, and a dwell fit for every observed state."""
    tm = model.transitions
    if tm.kind != fitting.SEMI_MARKOV:
        return f"kind {tm.kind!r}, expected semi_markov"
    if np.any(np.diag(tm.probs) != 0.0):
        return "semi-Markov diagonal is not exactly zero"
    if observed is None:
        observed = set(model.metadata["sample_counts"])
    if set(model.dwell) != observed:
        return f"dwell fits for {sorted(model.dwell)}, observed {sorted(observed)}"
    unfitted = [name for i, name in enumerate(tm.alphabet.states)
                if tm.row_fitted[i] and name not in model.dwell]
    if unfitted:
        return f"fitted rows without a dwell fit: {unfitted}"
    return None


def check_model_file(path, kind: str) -> str | None:
    doc = _read_model_json(path)
    if doc.transitions.kind != kind:
        return f"{Path(path).name}: kind {doc.transitions.kind!r}, expected {kind!r}"
    return check_semi_markov(doc) if kind == fitting.SEMI_MARKOV else None


def check_fractions(means) -> str | None:
    total = math.fsum(means)
    if abs(total - 1.0) > 1e-9:
        return f"time fractions sum to {total!r}"
    return None


def check_report_file(path) -> str | None:
    doc = json.loads(Path(path).read_text(encoding="ascii"))
    return check_fractions(v["mean"] for v in doc["time_fractions"].values())


def check_comparison(aggregate: float) -> str | None:
    if not (math.isfinite(aggregate) and aggregate >= 0.0):
        return f"aggregate symmetric KL {aggregate!r}"
    return None


def check_refit(aggregate: float, full_size: bool) -> str | None:
    """A finite KL, and at full cohort size a refit close to the preset.

    Reduced (smoke) cohorts leave rare transitions unobserved, and the
    epsilon-smoothed KL of such a row is large by construction.
    """
    problem = check_comparison(aggregate)
    if problem is None and full_size and aggregate > REFIT_KL_LIMIT:
        problem = f"refit is {aggregate:.4g} nats from its generating model"
    return problem


def observed_states(runs_list, alphabet) -> set[str]:
    seen = np.unique(np.concatenate([r.states for r in runs_list]))
    return {alphabet.name(int(s)) for s in seen}


# --- quality figures ---------------------------------------------------------


def dwell_nll_per_obs(model) -> float:
    """Pooled negative log-likelihood per observation of the chosen dwell fits."""
    fits = model.dwell.values()
    return -math.fsum(f.log_likelihood for f in fits) / sum(f.n_obs for f in fits)


def refit_kl_nats(transitions) -> float:
    """Aggregate symmetric KL (epsilon 1e-9) from the success preset."""
    return _compare_matrices(presets.success_model().transitions, transitions).aggregate


def _clear(directory: Path) -> None:
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)


# --- workloads -----------------------------------------------------------------


class Workload:
    name = ""

    def __init__(self, seed: int, smoke: bool, workdir: Path) -> None:
        self.seed = seed
        self.smoke = smoke
        self.work = workdir
        self.ledger = ByteLedger()
        self.quality: dict[str, float] = {}
        self.sizes: dict = {}

    def ops_per_pass(self) -> int:
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self, rec: PassRecorder, in_process: bool) -> None:
        raise NotImplementedError

    def describe(self) -> None:
        """Fill ``sizes`` after the timed passes."""


class DemoCli(Workload):
    """The 12 steps of scripts/run_demo_pipeline.py plus ``semimarkov --help``.

    Untraced, each step is a fresh ``python -m semimarkov.cli`` process, as a
    user runs it; traced, the same argument lists go through ``cli.main`` in
    this process so that the span wrappers see them.
    """

    name = "demo_cli"

    def steps(self, out: Path) -> list[tuple[str, str, list[str]]]:
        steps = [("help", "startup", ["--help"])]
        for label in ("success", "failure"):
            manifest = str(DEMO_DATA / f"{label}_manifest.json")
            steps += [
                (f"fit dtmc {label}", "fit",
                 ["fit", "--manifest", manifest, "--model", "dtmc",
                  "--out", str(out / f"{label}_dtmc.json")]),
                (f"fit semi-markov {label}", "fit",
                 ["fit", "--manifest", manifest, "--model", "semi-markov",
                  "--out", str(out / f"{label}_semimarkov.json")]),
                (f"split-fit {label}", "fit",
                 ["split-fit", "--manifest", manifest, "--segments", "2",
                  "--out-prefix", str(out / f"{label}_half")]),
                (f"report {label}", "analyze",
                 ["report", "--manifest", manifest, "--seed", str(self.seed),
                  "--replicates", str(REPLICATES), "--bin-width", "1.0",
                  "--out-prefix", str(out / f"{label}_report")]),
            ]
        steps += [
            ("compare semi-markov", "analyze",
             ["compare", "--a", str(out / "success_semimarkov.json"),
              "--b", str(out / "failure_semimarkov.json"),
              "--out", str(out / "cohort_comparison.json")]),
            ("compare dtmc", "analyze",
             ["compare", "--a", str(out / "success_dtmc.json"),
              "--b", str(out / "failure_dtmc.json"),
              "--out", str(out / "cohort_comparison_dtmc.json")]),
            ("simulate", "simulate",
             ["simulate", "--model", str(out / "success_semimarkov.json"),
              "--patients", "5", "--duration-s", "300", "--rate-hz", "2",
              "--seed", str(self.seed), "--out-prefix", str(out / "resim")]),
            ("fit semi-markov resim", "fit",
             ["fit", "--manifest", str(out / "resim_manifest.json"),
              "--model", "semi-markov", "--out", str(out / "resim_refit.json")]),
        ]
        return steps

    def ops_per_pass(self) -> int:
        return len(self.steps(self.work))

    def _spawn(self, argv: list[str]) -> tuple[int, str]:
        proc = subprocess.run(
            [sys.executable, "-m", "semimarkov.cli", *argv],
            capture_output=True, text=True, timeout=STEP_TIMEOUT_S,
        )
        return proc.returncode, proc.stdout + proc.stderr

    def setup(self) -> None:
        # One untimed start compiles bytecode in a fresh checkout and warms
        # the page cache, so every timed pass starts from the same state.
        rc, text = self._spawn(["--help"])
        if rc != 0:
            raise RuntimeError(f"semimarkov --help exited {rc}: {text[-500:]}")

    def run_pass(self, rec: PassRecorder, in_process: bool) -> None:
        out = self.work / "out"
        _clear(out)
        run = rec.call_cli if in_process else self._spawn
        for name, category, argv in self.steps(out):
            before = set(os.listdir(out))
            rc, text = rec.run(name, category, lambda argv=argv: run(argv))
            produced = [out / f for f in sorted(set(os.listdir(out)) - before)]
            rec.defer(lambda name=name, rc=rc, text=text, produced=produced:
                      self._check_step(name, rc, text, produced))

    def _check_step(self, name, rc, text, produced) -> str | None:
        if rc != 0:
            return f"exit code {rc}: {text[-300:]}"
        if name == "help":
            return None if "usage: semimarkov" in text else "no usage text"
        if not produced:
            return "wrote no files"
        for path in produced:
            problem = self._check_artifact(path)
            if problem is not None:
                return f"{path.name}: {problem}"
        return self.ledger.check(produced)

    def _check_artifact(self, path: Path) -> str | None:
        stem = path.stem
        if "comparison" in stem:
            doc = json.loads(path.read_text(encoding="ascii"))
            for report in doc.get("comparisons", [doc]):
                problem = check_comparison(report["aggregate_symmetric_kl_nats"])
                if problem is not None:
                    return problem
            return None
        if stem.endswith("_dtmc"):
            return check_model_file(path, fitting.DTMC)
        if stem.endswith(("_semimarkov", "_refit")) or "_seg" in stem:
            problem = check_model_file(path, fitting.SEMI_MARKOV)
            if problem is None and stem == "success_semimarkov":
                model = _read_model_json(path)
                self.quality = {"dwell_nll_per_obs": dwell_nll_per_obs(model),
                                "refit_kl_nats": refit_kl_nats(model.transitions)}
            return problem
        if stem.endswith("_fractions"):
            return check_report_file(path)
        if stem.endswith("_manifest"):
            manifest = _read_manifest(path)
            missing = [p.name for p in manifest.resolved_paths() if not p.exists()]
            return f"manifest lists missing files {missing}" if missing else None
        return None

    def describe(self) -> None:
        cohorts = {}
        for label in ("success", "failure"):
            seqs = _load_sequences(_read_manifest(DEMO_DATA / f"{label}_manifest.json"))
            model = _read_model_json(self.work / "out" / f"{label}_semimarkov.json")
            cohorts[label] = {
                "patients": len(seqs),
                "samples": sum(len(s) for s in seqs),
                "runs": sum(model.metadata["sample_counts"].values()),
                "obs_per_state": model.metadata["sample_counts"],
            }
        resim = _read_model_json(self.work / "out" / "resim_refit.json")
        cohorts["resim"] = {"obs_per_state": resim.metadata["sample_counts"]}
        self.sizes = {"cohorts": cohorts, "steps": self.ops_per_pass()}


class CohortMem(Workload):
    """In-process library calls on a large cohort drawn from the success preset."""

    name = "cohort_mem"

    def __init__(self, seed, smoke, workdir) -> None:
        super().__init__(seed, smoke, workdir)
        self.patients, self.duration_s = (2, 600.0) if smoke else (10, 36000.0)
        self.model = presets.success_model()

    def ops_per_pass(self) -> int:
        return 8

    def setup(self) -> None:
        self.work.mkdir(parents=True, exist_ok=True)
        # a small untimed pass pays every first-call cost before timing starts
        self._pass(PassRecorder(), 2, 300.0, self.work / "warmup.json")

    def run_pass(self, rec: PassRecorder, in_process: bool) -> None:
        self._pass(rec, self.patients, self.duration_s, self.work / "model.json")

    def _pass(self, rec, patients, duration_s, path) -> None:
        alphabet = self.model.alphabet
        samples = round(duration_s * RATE_HZ)
        config = simulate.SimulationConfig(
            duration_s=duration_s, seed=self.seed, output_sampling_rate_hz=RATE_HZ)
        runs = rec.run("simulate_cohort", "simulate",
                       lambda: simulate.simulate_cohort(self.model, patients, config))
        rec.defer(lambda: None if len(runs) == patients and all(
            r.total_samples == samples for r in runs) else "cohort has the wrong size")
        seqs = rec.run("decode_runs", None,
                       lambda: [sequences.decode_runs(r) for r in runs])
        rec.defer(lambda: None if all(len(s) == samples for s in seqs)
                  else "decoded sequences have the wrong length")
        tm, counts = rec.run("fit_dtmc", "fit", lambda: fitting.fit_dtmc(seqs, alphabet))
        rec.defer(lambda: None if counts.total == patients * (samples - 1)
                  else f"DTMC counted {counts.total} transitions")
        sm = rec.run("fit_semi_markov", "fit",
                     lambda: fitting.fit_semi_markov(seqs, alphabet))
        rec.defer(lambda: check_semi_markov(sm, observed_states(runs, alphabet)))
        mc = rec.run("fit_multi_chain", "fit",
                     lambda: fitting.fit_multi_chain(seqs, 2, alphabet))
        rec.defer(lambda: next(filter(None, map(check_semi_markov, mc.segments)), None)
                  if len(mc.segments) == 2 else "expected 2 segments")
        report = rec.run("compare_transition_matrices", "analyze",
                         lambda: compare.compare_transition_matrices(
                             self.model.transitions, sm.transitions))
        rec.defer(lambda: check_refit(report.aggregate, not self.smoke))
        fractions = rec.run("bootstrap_group_fractions", "analyze",
                            lambda: compare.bootstrap_group_fractions(
                                seqs, REPLICATES, self.seed, alphabet))
        rec.defer(lambda: check_fractions(m for m, _ in fractions.values()))
        rec.run("write_model_json", "export", lambda: io.write_model_json(sm, path))
        rec.defer(lambda: check_model_file(path, fitting.SEMI_MARKOV)
                  or self.ledger.check([path]))
        self.quality = {"dwell_nll_per_obs": dwell_nll_per_obs(sm),
                        "refit_kl_nats": report.aggregate}
        self.sizes = {
            "patients": patients,
            "duration_s": duration_s,
            "rate_hz": RATE_HZ,
            "samples": patients * samples,
            "runs": sum(len(r) for r in runs),
            "obs_per_state": {
                "fit_semi_markov": sm.metadata["sample_counts"],
                **{f"fit_multi_chain segment {k}": seg.metadata["sample_counts"]
                   for k, seg in enumerate(mc.segments, start=1)},
            },
            "bootstrap_replicates": REPLICATES,
        }


class CohortFiles(Workload):
    """A cohort written as CSV files and analysed by the CLI in-process.

    The cohort is simulated once, during set-up.  Half the patients are
    written as per-sample label CSVs and half as run-length CSVs, so both
    parsers and both writers run.
    """

    name = "cohort_files"

    def __init__(self, seed, smoke, workdir) -> None:
        super().__init__(seed, smoke, workdir)
        self.patients, self.duration_s = (2, 120.0) if smoke else (10, 1800.0)
        self.model = presets.success_model()
        self.runs: list = []

    def ops_per_pass(self) -> int:
        return self.patients + 1 + 4

    def _simulate(self, patients: int, duration_s: float) -> list:
        config = simulate.SimulationConfig(
            duration_s=duration_s, seed=self.seed, output_sampling_rate_hz=RATE_HZ)
        return simulate.simulate_cohort(self.model, patients, config)

    def setup(self) -> None:
        self.work.mkdir(parents=True, exist_ok=True)
        # a small untimed pass pays every first-call cost before timing starts
        self._pass(PassRecorder(), self._simulate(2, 60.0), self.work / "warmup")
        self.runs = self._simulate(self.patients, self.duration_s)

    def run_pass(self, rec: PassRecorder, in_process: bool) -> None:
        self._pass(rec, self.runs, self.work / "cohort")

    def _pass(self, rec, runs, d: Path) -> None:
        _clear(d)
        alphabet = self.model.alphabet
        patients = len(runs)
        files = []
        for i, r in enumerate(runs):
            path = d / f"patient_{i:02d}.csv"
            if i < patients // 2:
                rec.run(f"write_label_csv {path.name}", "export",
                        lambda r=r, path=path: io.write_label_csv(
                            sequences.decode_runs(r), alphabet, path))
            else:
                rec.run(f"write_runlength_csv {path.name}", "export",
                        lambda r=r, path=path: io.write_runlength_csv(r, alphabet, path))
            rec.defer(lambda path=path: self.ledger.check([path]))
            files.append(path.name)
        manifest_path = d / "cohort_manifest.json"
        manifest = io.CohortManifest(
            group_label="success", sampling_rate_hz=RATE_HZ, alphabet=alphabet,
            patient_files=tuple(files), base_dir=d)
        rec.run("write_manifest", "export",
                lambda: io.write_manifest(manifest, manifest_path))
        rec.defer(lambda: self.ledger.check([manifest_path]))

        m = str(manifest_path)
        commands = (
            ("fit dtmc", "fit", ["fit", "--manifest", m, "--model", "dtmc",
                                 "--out", str(d / "dtmc.json")],
             [d / "dtmc.json"]),
            ("fit semi-markov", "fit", ["fit", "--manifest", m, "--model", "semi-markov",
                                        "--out", str(d / "semimarkov.json")],
             [d / "semimarkov.json"]),
            ("split-fit", "fit", ["split-fit", "--manifest", m, "--segments", "2",
                                  "--out-prefix", str(d / "half")],
             [d / "half_seg1.json", d / "half_seg2.json", d / "half_comparison.json"]),
            ("report", "analyze", ["report", "--manifest", m, "--seed", str(self.seed),
                                   "--replicates", str(REPLICATES),
                                   "--out-prefix", str(d / "report")],
             [d / "report_fractions.json"]),
        )
        for name, category, argv, outputs in commands:
            rc, text = rec.run(name, category, lambda argv=argv: rec.call_cli(argv))
            rec.defer(lambda rc=rc, text=text, outputs=outputs:
                      self._check_command(rc, text, outputs))
        self.sizes = {
            "patients": patients,
            "duration_s": runs[0].total_samples / RATE_HZ,
            "rate_hz": RATE_HZ,
            "samples": sum(r.total_samples for r in runs),
            "runs": sum(len(r) for r in runs),
            "label_csvs": patients // 2,
            "runlength_csvs": patients - patients // 2,
        }
        rec.defer(lambda: self._measure_outputs(d, files))

    def _check_command(self, rc, text, outputs) -> str | None:
        if rc != 0:
            return f"exit code {rc}: {text[-300:]}"
        for path in outputs:
            if path.stem in ("semimarkov", "half_seg1", "half_seg2"):
                problem = check_model_file(path, fitting.SEMI_MARKOV)
            elif path.stem == "dtmc":
                problem = check_model_file(path, fitting.DTMC)
            elif path.stem == "report_fractions":
                problem = check_report_file(path)
            else:
                doc = json.loads(path.read_text(encoding="ascii"))
                problem = next(filter(None, (
                    check_comparison(c["aggregate_symmetric_kl_nats"])
                    for c in doc["comparisons"])), None)
            if problem is not None:
                return f"{path.name}: {problem}"
        return self.ledger.check(outputs)

    def _measure_outputs(self, d: Path, files) -> str | None:
        model = _read_model_json(d / "semimarkov.json")
        self.sizes["csv_bytes"] = sum((d / f).stat().st_size for f in files)
        self.sizes["obs_per_state"] = model.metadata["sample_counts"]
        kl = refit_kl_nats(model.transitions)
        self.quality = {"dwell_nll_per_obs": dwell_nll_per_obs(model),
                        "refit_kl_nats": kl}
        return check_refit(kl, not self.smoke)


WORKLOADS = {w.name: w for w in (DemoCli, CohortMem, CohortFiles)}
