"""Names and units of every metric the benchmark reports.

Standard library only: ``run.py`` imports this before it knows whether the
program under test can be imported at all.
"""

from __future__ import annotations

WORKLOADS = ("demo_cli", "cohort_mem", "cohort_files")

# End-to-end metrics: name -> (unit, better).  Every one is printed for every
# workload it applies to.  GATED lists the ones the final result line carries:
# defined and never 0 on every workload, and steady enough between runs for a
# bound of at most 25% (the per-category times are not; see README.md).
END_TO_END = {
    "setup_s": ("s", "lower"),
    "pass_s": ("s", "lower"),
    "fit_s": ("s", "lower"),
    "analyze_s": ("s", "lower"),
    "simulate_s": ("s", "lower"),
    "export_s": ("s", "lower"),
    "startup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "failed_frac": ("ratio", "lower"),
    "refit_kl_nats": ("nats", "lower"),
    "dwell_nll_per_obs": ("nats/obs", "lower"),
}

GATED = (
    "setup_s",
    "pass_s",
    "peak_rss_mb",
    "dwell_nll_per_obs",
)

# Time categories of a pass: each operation belongs to at most one.
CATEGORIES = ("fit", "analyze", "simulate", "export", "startup")

DWELL_FAMILIES = (
    "Exponential",
    "GeneralizedExtremeValue",
    "GeneralizedPareto",
    "InverseGaussian",
)
MODULES = ("cli", "io", "sequences", "fitting", "dwell", "compare", "simulate")

PER_LAYER = (
    "import.cli_ms",
    "import.scipy_optimize_ms",
    "cli.commands",
    "cli.busy_s",
    "cli.nonzero_exits",
    "io.parse_label.rows",
    "io.parse_label.busy_s",
    "io.parse_runlength.rows",
    "io.parse_runlength.busy_s",
    "io.load_sequences.busy_s",
    "io.write_csv.rows",
    "io.write_csv.busy_s",
    "io.json.bytes",
    "io.json.busy_s",
    "sequences.encode.samples",
    "sequences.encode.busy_s",
    "sequences.decode.samples",
    "sequences.decode.busy_s",
    "sequences.split.busy_s",
    "sequences.durations.runs",
    "sequences.durations.busy_s",
    "fitting.dtmc.samples",
    "fitting.dtmc.busy_s",
    "fitting.semi_markov.self_s",
    "fitting.fallbacks",
    *(
        f"dwell.fit.{family}.{field}"
        for family in DWELL_FAMILIES
        for field in ("calls", "obs", "busy_s", "skipped")
    ),
    "dwell.select.busy_s",
    "dwell.simplex.calls",
    "dwell.simplex.nfev",
    "dwell.certified_per_simplex",
    "dwell.sample.calls",
    "dwell.sample.busy_s",
    "dwell.quantile.calls",
    "compare.matrices.busy_s",
    "compare.bootstrap.replicates",
    "compare.bootstrap.busy_s",
    "compare.time_fractions.samples",
    "compare.time_fractions.busy_s",
    "simulate.runs",
    "simulate.busy_s",
    "simulate.us_per_run",
    *(f"{module}.self_s" for module in MODULES),
    "trace.overhead_s",
)


def layer_better(name: str) -> str:
    """Direction of improvement of a per-layer metric: less work or time is
    better, except for the useful-work ratio of the simplex searches."""
    return "higher" if name == "dwell.certified_per_simplex" else "lower"


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("us_per_run"):
        return "us"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith("_per_simplex"):
        return "ratio"
    return "count"
