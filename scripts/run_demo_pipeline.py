#!/usr/bin/env python3
"""Run the full CLI pipeline on the bundled synthetic cohorts.

Fits DTMC and semi-Markov models per cohort, compares the cohorts, splits
each recording in half and refits per segment, simulates a fresh cohort from
the fitted success model, and emits occupancy/histogram reports.  The
simulated cohort is also written as per-sample label CSVs and refitted from
them; the script fails unless that refit is byte-identical to the refit of
the run-length CSVs.  Everything lands in the output directory (default:
./demo_out); rerunning reproduces identical files.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from semimarkov import io
from semimarkov.cli import main as cli

DATA = Path(__file__).resolve().parent.parent / "data" / "synthetic"


def run(argv: list[str]) -> None:
    print("$ semimarkov " + " ".join(argv))
    rc = cli(argv)
    if rc != 0:
        sys.exit(f"step failed with exit code {rc}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", type=Path, default=Path("demo_out"))
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()
    out = args.out_dir
    out.mkdir(parents=True, exist_ok=True)

    for label in ("success", "failure"):
        manifest = str(DATA / f"{label}_manifest.json")
        run(["fit", "--manifest", manifest, "--model", "dtmc",
             "--out", str(out / f"{label}_dtmc.json")])
        run(["fit", "--manifest", manifest, "--model", "semi-markov",
             "--out", str(out / f"{label}_semimarkov.json")])
        run(["split-fit", "--manifest", manifest, "--segments", "2",
             "--out-prefix", str(out / f"{label}_half")])
        run(["report", "--manifest", manifest, "--seed", str(args.seed),
             "--replicates", "1000", "--bin-width", "1.0",
             "--out-prefix", str(out / f"{label}_report")])

    run(["compare",
         "--a", str(out / "success_semimarkov.json"),
         "--b", str(out / "failure_semimarkov.json"),
         "--out", str(out / "cohort_comparison.json")])
    run(["compare",
         "--a", str(out / "success_dtmc.json"),
         "--b", str(out / "failure_dtmc.json"),
         "--out", str(out / "cohort_comparison_dtmc.json")])
    run(["simulate", "--model", str(out / "success_semimarkov.json"),
         "--patients", "5", "--duration-s", "300", "--rate-hz", "2",
         "--seed", str(args.seed), "--out-prefix", str(out / "resim")])
    run(["fit", "--manifest", str(out / "resim_manifest.json"),
         "--model", "semi-markov", "--out", str(out / "resim_refit.json")])
    # the same cohort as per-sample label CSVs must refit to the same bytes
    resim = io.read_manifest(out / "resim_manifest.json")
    files = [f"resim_label{i:03d}.csv" for i in range(len(resim.patient_files))]
    for name, seq in zip(files, io.load_sequences(resim)):
        io.write_label_csv(seq, resim.alphabet, out / name)
    io.write_manifest(dataclasses.replace(resim, patient_files=files),
                      out / "resim_label_manifest.json")
    run(["fit", "--manifest", str(out / "resim_label_manifest.json"),
         "--model", "semi-markov", "--out", str(out / "resim_label_refit.json")])
    if (out / "resim_label_refit.json").read_bytes() != (out / "resim_refit.json").read_bytes():
        sys.exit("resim_label_refit.json differs from resim_refit.json")
    print(f"pipeline artifacts in {out}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
