"""Command-line interface.

Subcommands cover the full pipeline: ``fit`` (dtmc or semi-markov),
``split-fit`` (multi-chain over equal-time segments), ``compare`` (row-wise
symmetric KL between two persisted models), ``simulate`` (seeded cohort
generation), and ``report`` (time fractions with bootstrap error bars plus
dwell histograms).

Exit codes: 0 success, 1 data error (bad files, failed preconditions),
2 usage error.  Commands that draw random numbers require an explicit
--seed; outputs carry no timestamps, so rerunning a command with identical
inputs reproduces every output file byte for byte.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .compare import bootstrap_group_fractions, compare_transition_matrices
from .dwell import fit_exponential
from .errors import SemiMarkovError
from .fitting import SemiMarkovModel, fit_dtmc, fit_multi_chain, fit_semi_markov
from .io import (
    CohortManifest,
    comparison_to_dict,
    emit_histogram_csv,
    histogram_bin_count,
    load_sequences,
    read_manifest,
    read_model_json,
    write_json,
    write_manifest,
    write_model_json,
    write_runlength_csv,
)
from .sequences import durations_by_state, encode_runs
from .simulate import SimulationConfig, simulate_cohort

#: Most samples one ``simulate`` command covers, patients x duration x rate,
#: checked before any draw.  A run takes at least one sample, so this also
#: caps the rows the command writes.
MAX_SIMULATED_SAMPLES = 10**9


def _cmd_fit(args) -> int:
    manifest = read_manifest(args.manifest)
    seqs = load_sequences(manifest)
    meta = {
        "cohort": manifest.group_label,
        "n_sequences": len(seqs),
        "sampling_rate_hz": manifest.sampling_rate_hz,
    }
    if args.model == "dtmc":
        tm, counts = fit_dtmc(seqs, manifest.alphabet)
        meta["total_transitions"] = counts.total
        write_model_json(SemiMarkovModel(tm, {}, meta), args.out)
    else:
        model = fit_semi_markov(seqs, manifest.alphabet, metadata=meta)
        write_model_json(model, args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_split_fit(args) -> int:
    manifest = read_manifest(args.manifest)
    seqs = load_sequences(manifest)
    meta = {"cohort": manifest.group_label, "n_sequences": len(seqs)}
    mc = fit_multi_chain(seqs, args.segments, manifest.alphabet, metadata=meta)
    comparisons = []  # before any file is written, so a failed comparison writes none
    for k in range(len(mc.segments) - 1):
        report = compare_transition_matrices(
            mc.segments[k].transitions, mc.segments[k + 1].transitions
        )
        comparisons.append(
            comparison_to_dict(
                report, context={"a": f"segment {k + 1}", "b": f"segment {k + 2}"}
            )
        )
    for k, segment in enumerate(mc.segments, start=1):
        out = f"{args.out_prefix}_seg{k}.json"
        write_model_json(segment, out)
        print(f"wrote {out}")
    out = f"{args.out_prefix}_comparison.json"
    write_json({"cohort": manifest.group_label, "comparisons": comparisons}, out)
    print(f"wrote {out}")
    return 0


def _cmd_compare(args) -> int:
    model_a = read_model_json(args.a)
    model_b = read_model_json(args.b)
    report = compare_transition_matrices(model_a.transitions, model_b.transitions)
    context = {
        "a": Path(args.a).name,
        "b": Path(args.b).name,
        "kind": model_a.transitions.kind,
    }
    write_json(comparison_to_dict(report, context=context), args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_simulate(args) -> int:
    model = read_model_json(args.model)
    config = SimulationConfig(
        duration_s=args.duration_s,
        seed=args.seed,
        output_sampling_rate_hz=args.rate_hz,
        initial_state=args.initial_state,
    )
    samples = args.patients * config.duration_s * config.output_sampling_rate_hz
    if samples > MAX_SIMULATED_SAMPLES:
        raise ValueError(
            f"--patients x --duration-s x --rate-hz must come to at most "
            f"{MAX_SIMULATED_SAMPLES} samples, got {samples:.6g}"
        )
    cohort = simulate_cohort(model, args.patients, config)
    prefix = Path(args.out_prefix)
    files = [f"{prefix.name}{i:03d}.csv" for i in range(len(cohort))]
    manifest = CohortManifest(  # checks the cohort label before any file is written
        group_label=model.metadata.get("cohort", "simulated"),
        sampling_rate_hz=args.rate_hz,
        alphabet=model.alphabet,
        patient_files=files,
        base_dir=prefix.parent,
    )
    for name, runs in zip(files, cohort):
        write_runlength_csv(runs, model.alphabet, prefix.parent / name)
    manifest_path = prefix.parent / f"{prefix.name}_manifest.json"
    write_manifest(manifest, manifest_path)
    print(f"wrote {len(files)} sequences and {manifest_path}")
    return 0


def _cmd_report(args) -> int:
    manifest = read_manifest(args.manifest)
    seqs = load_sequences(manifest)
    table = durations_by_state([encode_runs(seq) for seq in seqs])
    prefix = Path(args.out_prefix)
    hist_paths = {}
    # every state's histogram must fit, in a file of the output directory,
    # before the bootstrap runs or a file is written
    for state, (values, _) in table.items():
        name = manifest.alphabet.name(state)
        file = f"{prefix.name}_hist_{name}.csv"
        if Path(file).name != file or "\0" in file:
            raise ValueError(f"state {name!r}: histogram file name {file!r} is not one "
                             f"file name in the output directory")
        try:
            histogram_bin_count(values.max(), args.bin_width)
        except ValueError as exc:
            raise ValueError(f"state {name}: {exc}; choose another --bin-width") from exc
        hist_paths[state] = prefix.parent / file
    fractions = bootstrap_group_fractions(
        seqs, args.replicates, args.seed, manifest.alphabet
    )
    tail_fits = {}
    for state, (values, counts) in table.items():
        name = manifest.alphabet.name(state)
        overlay = fit_exponential(values, counts)
        tail_fits[name] = {"mu": overlay.params["mu"], "n_obs": overlay.n_obs}
        emit_histogram_csv(values, args.bin_width, hist_paths[state], overlay, counts)
        print(f"wrote {hist_paths[state]}")
    doc = {
        "group_label": manifest.group_label,
        "n_patients": len(seqs),
        "n_replicates": args.replicates,
        "seed": args.seed,
        "time_fractions": {
            name: {"mean": m, "std": s} for name, (m, s) in fractions.items()
        },
        "exponential_tail_fits": tail_fits,
    }
    out = prefix.parent / f"{prefix.name}_fractions.json"
    write_json(doc, out)
    print(f"wrote {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semimarkov",
        description="Fit, compare, and simulate semi-Markov models of "
        "categorical state sequences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit one model to a cohort manifest")
    p_fit.add_argument("--manifest", required=True)
    p_fit.add_argument("--model", required=True, choices=("dtmc", "semi-markov"))
    p_fit.add_argument("--out", required=True)
    p_fit.set_defaults(func=_cmd_fit)

    p_split = sub.add_parser(
        "split-fit", help="fit one model per equal-time segment"
    )
    p_split.add_argument("--manifest", required=True)
    p_split.add_argument("--segments", required=True, type=int)
    p_split.add_argument("--out-prefix", required=True)
    p_split.set_defaults(func=_cmd_split_fit)

    p_cmp = sub.add_parser("compare", help="row-wise symmetric KL of two models")
    p_cmp.add_argument("--a", required=True)
    p_cmp.add_argument("--b", required=True)
    p_cmp.add_argument("--out", required=True)
    p_cmp.set_defaults(func=_cmd_compare)

    p_sim = sub.add_parser("simulate", help="generate a synthetic cohort")
    p_sim.add_argument("--model", required=True)
    p_sim.add_argument("--patients", type=int, default=1)
    p_sim.add_argument("--duration-s", type=float, required=True)
    p_sim.add_argument("--rate-hz", type=float, default=1.0)
    p_sim.add_argument("--seed", type=int, required=True)
    p_sim.add_argument("--initial-state", default=None)
    p_sim.add_argument("--out-prefix", required=True)
    p_sim.set_defaults(func=_cmd_simulate)

    p_rep = sub.add_parser(
        "report", help="time fractions with bootstrap error bars, dwell histograms"
    )
    p_rep.add_argument("--manifest", required=True)
    p_rep.add_argument("--seed", type=int, required=True)
    p_rep.add_argument("--replicates", type=int, default=1000)
    p_rep.add_argument("--bin-width", type=float, default=1.0)
    p_rep.add_argument("--out-prefix", required=True)
    p_rep.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if exc.code is not None else 0
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except (SemiMarkovError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
