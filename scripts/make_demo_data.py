#!/usr/bin/env python3
"""Regenerate the bundled synthetic cohorts under data/synthetic/.

Two cohorts of 10 patients, 300 s at 2 Hz, drawn from the built-in success
and failure reference models.  Per cohort, patients 0-6 are written as
per-sample label CSVs and patients 7-9 as run-length CSVs, so the bundled
data exercises both input formats through one manifest.

Deterministic: fixed seeds, canonical writers.  Rerunning must reproduce
the committed files byte for byte.
"""

from __future__ import annotations

import argparse
from pathlib import Path

from semimarkov.io import CohortManifest, write_label_csv, write_manifest, write_runlength_csv
from semimarkov.presets import failure_model, success_model
from semimarkov.sequences import decode_runs
from semimarkov.simulate import SimulationConfig, simulate_cohort

N_PATIENTS = 10
DURATION_S = 300.0
RATE_HZ = 2.0
N_LABEL_FORMAT = 7  # patients written per-sample; the rest run-length

COHORTS = {
    "success": (success_model, 52_000),
    "failure": (failure_model, 97_000),
}


def build_cohort(out_dir: Path, label: str) -> None:
    model_fn, seed = COHORTS[label]
    model = model_fn()
    config = SimulationConfig(
        duration_s=DURATION_S, seed=seed, output_sampling_rate_hz=RATE_HZ
    )
    cohort = simulate_cohort(model, N_PATIENTS, config)
    files = []
    for i, runs in enumerate(cohort):
        name = f"{label}_{i:02d}.csv"
        if i < N_LABEL_FORMAT:
            write_label_csv(decode_runs(runs), model.alphabet, out_dir / name)
        else:
            write_runlength_csv(runs, model.alphabet, out_dir / name)
        files.append(name)
    manifest = CohortManifest(
        group_label=label,
        sampling_rate_hz=RATE_HZ,
        alphabet=model.alphabet,
        patient_files=tuple(files),
        base_dir=out_dir,
    )
    write_manifest(manifest, out_dir / f"{label}_manifest.json")
    print(f"{label}: {len(files)} patients -> {out_dir}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out-dir",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "data" / "synthetic",
    )
    args = parser.parse_args()
    args.out_dir.mkdir(parents=True, exist_ok=True)
    for label in COHORTS:
        build_cohort(args.out_dir, label)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
