"""Spans recorded at semimarkov's module boundaries, from outside the program.

Each wrapper replaces one name that a semimarkov module looks up at call
time -- a public function, or a name one module imported from another
(``cli.fit_semi_markov``, ``fitting.select_family``, the ``minimize`` that
``dwell`` calls) -- with a function that opens a span, calls the original and
closes the span.  Nothing under ``src/`` is modified, and ``uninstall``
restores every original binding.

A span holds its name, start, end, parent span and pass id.  Self time is a
span's duration minus the time its child spans cover; it is accumulated as
spans close.  Spans are kept in memory and written out by ``write_spans``
at the end of a run.  The per-run hot path of the simulator (``sample_dwell``
and the ``quantile`` it calls) is entered about 10^5 times a pass, so those
spans are only aggregated per pass (calls, total, self), not stored one by one.
"""

from __future__ import annotations

import json
import math
import os
import time
from collections import defaultdict

from metrics import DWELL_FAMILIES, MODULES
from semimarkov import cli, compare, dwell, errors, fitting, io, sequences, simulate

_perf = time.perf_counter


class Tracer:
    """In-memory span recorder with per-pass aggregates and counters."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.aggregates: list[dict] = []
        self._stack: list[list] = []
        self._next_id = 0
        self.pass_id = -1
        self.stats: dict[str, list] = {}
        self.counts: dict[str, int] = {}

    def begin_pass(self, pass_id: int) -> None:
        self.pass_id = pass_id
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total, self
        self.counts = defaultdict(int)

    def end_pass(self) -> tuple[dict, dict]:
        for name, (calls, total, self_s) in self.stats.items():
            if name in HOT_SPANS:
                self.aggregates.append({"pass": self.pass_id, "name": name,
                                        "calls": calls, "total_s": total,
                                        "self_s": self_s})
        return dict(self.stats), dict(self.counts)

    def open(self, name: str) -> list:
        frame = [self._next_id, name, 0.0, 0.0]  # id, name, start, child time
        self._next_id += 1
        self._stack.append(frame)
        frame[2] = _perf()
        return frame

    def close(self, frame: list, store: bool = True) -> None:
        end = _perf()
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {frame[1]!r} closed out of order")
        span_id, name, start, child = frame
        duration = end - start
        st = self.stats[name]
        st[0] += 1
        st[1] += duration
        st[2] += duration - child
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        if store:
            self.spans.append((span_id, parent[0] if parent else None, name,
                               start, end, self.pass_id))

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span named ``name``."""
        frame = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(frame)

    def write_spans(self, path) -> None:
        """Write stored spans and the per-pass hot-path aggregates as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, name, start, end, pass_id in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                     "start": start, "end": end, "pass": pass_id}))
                fh.write("\n")
            for agg in self.aggregates:
                fh.write(json.dumps(agg) + "\n")


HOT_SPANS = frozenset({"dwell.sample", "dwell.quantile"})


# --- counters taken from a wrapped call's arguments and result ----------------
# Each receives (counts, args, kwargs, result) after the span has closed.

def _arg(args, kwargs, i, key):
    return args[i] if len(args) > i else kwargs[key]


def _count_rows_result(key):
    def count(c, args, kwargs, result):
        c[key] += len(result)
    return count


def _count_len_arg(key, i, name):
    def count(c, args, kwargs, result):
        c[key] += len(_arg(args, kwargs, i, name))
    return count


def _count_json_bytes(c, args, kwargs, result):
    c["io.json.bytes"] += os.path.getsize(_arg(args, kwargs, 1, "path"))


def _count_read_json_bytes(c, args, kwargs, result):
    c["io.json.bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _count_dtmc(c, args, kwargs, result):
    c["fitting.dtmc.samples"] += sum(len(s) for s in _arg(args, kwargs, 0, "seqs"))


def _count_fallbacks(c, args, kwargs, result):
    c["fitting.fallbacks"] += sum(1 for f in result.dwell.values() if f.fallback)


def _count_nfev(c, args, kwargs, result):
    c["dwell.simplex.nfev"] += int(result.nfev)


def _count_replicates(c, args, kwargs, result):
    c["compare.bootstrap.replicates"] += _arg(args, kwargs, 1, "n_replicates")


def _count_sim_runs(c, args, kwargs, result):
    c["simulate.runs"] += sum(len(r) for r in result)


def _dwell_fit_wrapper(tracer: Tracer, family: str, fn):
    """Per-family fit span; a SemiMarkovError is the skip select_family makes."""
    name = f"dwell.fit.{family}"

    def wrapper(*args, **kwargs):
        tracer.counts[name + ".obs"] += len(_arg(args, kwargs, 0, "xs"))
        frame = tracer.open(name)
        try:
            return fn(*args, **kwargs)
        except errors.SemiMarkovError:
            tracer.counts[name + ".skipped"] += 1
            raise
        finally:
            tracer.close(frame)

    return wrapper


def _span_wrapper(tracer: Tracer, name: str, fn, count=None):
    store = name not in HOT_SPANS

    def wrapper(*args, **kwargs):
        frame = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(frame, store)
        if count is not None:
            count(tracer.counts, args, kwargs, result)
        return result

    return wrapper


# (span name, bindings that resolve to the function, counter)
_BOUNDARIES = (
    ("io.load_sequences", ((cli, "load_sequences"), (io, "load_sequences")), None),
    ("io.parse_label", ((io, "parse_label_csv"),),
     _count_rows_result("io.parse_label.rows")),
    ("io.parse_runlength", ((io, "parse_runlength_csv"),),
     _count_rows_result("io.parse_runlength.rows")),
    ("io.write_csv", ((io, "write_label_csv"),),
     _count_len_arg("io.write_csv.rows", 0, "seq")),
    ("io.write_csv", ((io, "write_runlength_csv"), (cli, "write_runlength_csv")),
     _count_len_arg("io.write_csv.rows", 0, "runs")),
    ("io.write_histogram", ((cli, "emit_histogram_csv"),), None),
    ("io.json", ((io, "write_json"), (cli, "write_json")), _count_json_bytes),
    ("io.json", ((io, "read_json"),), _count_read_json_bytes),
    ("sequences.encode", ((fitting, "encode_runs"), (cli, "encode_runs")),
     _count_len_arg("sequences.encode.samples", 0, "seq")),
    ("sequences.decode", ((io, "decode_runs"), (sequences, "decode_runs")),
     _count_rows_result("sequences.decode.samples")),
    ("sequences.split", ((fitting, "split_at_time"),), None),
    ("sequences.durations", ((fitting, "durations_by_state"),
                             (cli, "durations_by_state")),
     _count_len_arg("sequences.durations.runs", 0, "runs")),
    ("fitting.dtmc", ((cli, "fit_dtmc"), (fitting, "fit_dtmc")), _count_dtmc),
    ("fitting.semi_markov", ((cli, "fit_semi_markov"), (fitting, "fit_semi_markov")),
     _count_fallbacks),
    ("fitting.multi_chain", ((cli, "fit_multi_chain"), (fitting, "fit_multi_chain")),
     None),
    ("dwell.select", ((fitting, "select_family"),), None),
    ("dwell.simplex", ((dwell, "minimize"),), _count_nfev),
    ("dwell.sample", ((simulate, "sample_dwell"),), None),
    ("dwell.quantile", ((dwell, "quantile"),), None),
    ("compare.matrices", ((cli, "compare_transition_matrices"),
                          (compare, "compare_transition_matrices")), None),
    ("compare.bootstrap", ((cli, "bootstrap_group_fractions"),
                           (compare, "bootstrap_group_fractions")), _count_replicates),
    ("compare.time_fractions", ((compare, "time_fractions"),),
     _count_len_arg("compare.time_fractions.samples", 0, "seq")),
    ("simulate.cohort", ((cli, "simulate_cohort"), (simulate, "simulate_cohort")),
     _count_sim_runs),
)


class Instrumentation:
    """Installs the span wrappers on the semimarkov modules and removes them."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._saved: list[tuple] = []

    def install(self) -> None:
        for name, bindings, count in _BOUNDARIES:
            for module, attr in bindings:
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, _span_wrapper(self.tracer, name, original, count))
        # fit_all_families reaches the per-family fitters through this table
        for family, fn in list(dwell._FITTERS.items()):
            self._saved.append((dwell._FITTERS, family, fn))
            dwell._FITTERS[family] = _dwell_fit_wrapper(self.tracer, family, fn)
        # the report's tail fits and the fitting fallback call it directly
        for module in (cli, fitting):
            original = module.fit_exponential
            self._saved.append((module, "fit_exponential", original))
            module.fit_exponential = _dwell_fit_wrapper(
                self.tracer, dwell.EXPONENTIAL, original)

    def uninstall(self) -> None:
        while self._saved:
            target, key, original = self._saved.pop()
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)


def layer_metrics(stats: dict, counts: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass, from its span stats and counters."""

    def calls(name):
        return stats[name][0] if name in stats else 0

    def busy(name):
        return stats[name][1] if name in stats else 0.0

    def self_s(name):
        return stats[name][2] if name in stats else 0.0

    m: dict[str, float] = {
        "cli.commands": calls("cli.main"),
        "cli.busy_s": busy("cli.main"),
        "cli.nonzero_exits": counts.get("cli.nonzero_exits", 0),
        "io.parse_label.rows": counts.get("io.parse_label.rows", 0),
        "io.parse_label.busy_s": busy("io.parse_label"),
        "io.parse_runlength.rows": counts.get("io.parse_runlength.rows", 0),
        "io.parse_runlength.busy_s": busy("io.parse_runlength"),
        "io.load_sequences.busy_s": busy("io.load_sequences"),
        "io.write_csv.rows": counts.get("io.write_csv.rows", 0),
        "io.write_csv.busy_s": busy("io.write_csv"),
        "io.json.bytes": counts.get("io.json.bytes", 0),
        "io.json.busy_s": busy("io.json"),
        "sequences.encode.samples": counts.get("sequences.encode.samples", 0),
        "sequences.encode.busy_s": busy("sequences.encode"),
        "sequences.decode.samples": counts.get("sequences.decode.samples", 0),
        "sequences.decode.busy_s": busy("sequences.decode"),
        "sequences.split.busy_s": busy("sequences.split"),
        "sequences.durations.runs": counts.get("sequences.durations.runs", 0),
        "sequences.durations.busy_s": busy("sequences.durations"),
        "fitting.dtmc.samples": counts.get("fitting.dtmc.samples", 0),
        "fitting.dtmc.busy_s": busy("fitting.dtmc"),
        "fitting.semi_markov.self_s": self_s("fitting.semi_markov"),
        "fitting.fallbacks": counts.get("fitting.fallbacks", 0),
    }
    certified = 0
    for family in DWELL_FAMILIES:
        name = f"dwell.fit.{family}"
        skipped = counts.get(name + ".skipped", 0)
        m[name + ".calls"] = calls(name)
        m[name + ".obs"] = counts.get(name + ".obs", 0)
        m[name + ".busy_s"] = busy(name)
        m[name + ".skipped"] = skipped
        if family in (dwell.GEV, dwell.GPD):
            certified += calls(name) - skipped
    simplex = calls("dwell.simplex")
    runs = counts.get("simulate.runs", 0)
    m.update({
        "dwell.select.busy_s": busy("dwell.select"),
        "dwell.simplex.calls": simplex,
        "dwell.simplex.nfev": counts.get("dwell.simplex.nfev", 0),
        "dwell.certified_per_simplex": certified / simplex if simplex else 0.0,
        "dwell.sample.calls": calls("dwell.sample"),
        "dwell.sample.busy_s": busy("dwell.sample"),
        "dwell.quantile.calls": calls("dwell.quantile"),
        "compare.matrices.busy_s": busy("compare.matrices"),
        "compare.bootstrap.replicates": counts.get("compare.bootstrap.replicates", 0),
        "compare.bootstrap.busy_s": busy("compare.bootstrap"),
        "compare.time_fractions.samples": counts.get("compare.time_fractions.samples", 0),
        "compare.time_fractions.busy_s": busy("compare.time_fractions"),
        "simulate.runs": runs,
        "simulate.busy_s": busy("simulate.cohort"),
        "simulate.us_per_run": busy("simulate.cohort") / runs * 1e6 if runs else 0.0,
    })
    for module in MODULES:
        m[f"{module}.self_s"] = math.fsum(
            st[2] for name, st in stats.items() if name.split(".", 1)[0] == module)
    return m
