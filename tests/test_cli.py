import json
from pathlib import Path

import numpy as np
import pytest

from semimarkov.cli import main
from semimarkov.io import (
    CohortManifest,
    read_manifest,
    read_model_json,
    write_manifest,
    write_model_json,
)
from semimarkov.presets import PATTERNS, success_model
from semimarkov.sequences import decode_runs
from semimarkov.simulate import SimulationConfig, simulate_cohort

DATA = Path(__file__).resolve().parent.parent / "data" / "synthetic"
SUCCESS = str(DATA / "success_manifest.json")
FAILURE = str(DATA / "failure_manifest.json")


def test_fit_semi_markov_happy_path(tmp_path):
    out = tmp_path / "model.json"
    rc = main(["fit", "--manifest", SUCCESS, "--model", "semi-markov", "--out", str(out)])
    assert rc == 0
    doc = read_model_json(out)
    assert doc.transitions.kind == "semi_markov"
    assert doc.metadata["cohort"] == "success"
    assert set(doc.dwell) == set(PATTERNS.states)


def test_fit_dtmc_happy_path(tmp_path):
    out = tmp_path / "dtmc.json"
    rc = main(["fit", "--manifest", SUCCESS, "--model", "dtmc", "--out", str(out)])
    assert rc == 0
    doc = read_model_json(out)
    assert doc.transitions.kind == "dtmc"
    # 2 Hz sampling of second-scale dwells: diagonals dominate
    diag = np.diag(doc.transitions.probs)
    assert diag[doc.transitions.row_fitted].min() > 0.5
    assert doc.metadata["total_transitions"] == 5990  # 10 patients x 599


def test_fit_is_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["fit", "--manifest", SUCCESS, "--model", "semi-markov", "--out", str(a)]) == 0
    assert main(["fit", "--manifest", SUCCESS, "--model", "semi-markov", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_compare_command(tmp_path):
    ma, mb = tmp_path / "a.json", tmp_path / "b.json"
    main(["fit", "--manifest", SUCCESS, "--model", "semi-markov", "--out", str(ma)])
    main(["fit", "--manifest", FAILURE, "--model", "semi-markov", "--out", str(mb)])
    out = tmp_path / "cmp.json"
    rc = main(["compare", "--a", str(ma), "--b", str(mb), "--epsilon", "1e-9", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["aggregate_symmetric_kl_nats"] > 0
    assert set(doc["per_row_symmetric_kl_nats"]) <= set(PATTERNS.states)


def test_compare_kind_mismatch_is_data_error(tmp_path):
    ma, mb = tmp_path / "a.json", tmp_path / "b.json"
    main(["fit", "--manifest", SUCCESS, "--model", "semi-markov", "--out", str(ma)])
    main(["fit", "--manifest", SUCCESS, "--model", "dtmc", "--out", str(mb)])
    rc = main(["compare", "--a", str(ma), "--b", str(mb), "--out", str(tmp_path / "c.json")])
    assert rc == 1


def test_split_fit_command(tmp_path):
    prefix = tmp_path / "half"
    rc = main(["split-fit", "--manifest", SUCCESS, "--segments", "2",
               "--out-prefix", str(prefix)])
    assert rc == 0
    seg1 = read_model_json(tmp_path / "half_seg1.json")
    seg2 = read_model_json(tmp_path / "half_seg2.json")
    assert seg1.metadata["segment_index"] == 1
    assert seg2.metadata["segment_index"] == 2
    cmp_doc = json.loads((tmp_path / "half_comparison.json").read_text())
    assert len(cmp_doc["comparisons"]) == 1


def test_simulate_then_refit(tmp_path):
    model_path = tmp_path / "m.json"
    main(["fit", "--manifest", SUCCESS, "--model", "semi-markov", "--out", str(model_path)])
    rc = main(["simulate", "--model", str(model_path), "--patients", "3",
               "--duration-s", "120", "--rate-hz", "2", "--seed", "7",
               "--out-prefix", str(tmp_path / "sim")])
    assert rc == 0
    sim_manifest = read_manifest(tmp_path / "sim_manifest.json")
    assert len(sim_manifest.patient_files) == 3
    rc = main(["fit", "--manifest", str(tmp_path / "sim_manifest.json"),
               "--model", "semi-markov", "--out", str(tmp_path / "refit.json")])
    assert rc == 0


def test_simulate_requires_seed(tmp_path):
    model_path = tmp_path / "m.json"
    main(["fit", "--manifest", SUCCESS, "--model", "semi-markov", "--out", str(model_path)])
    rc = main(["simulate", "--model", str(model_path), "--duration-s", "60",
               "--out-prefix", str(tmp_path / "s")])
    assert rc == 2


def test_report_command(tmp_path):
    prefix = tmp_path / "rep"
    rc = main(["report", "--manifest", SUCCESS, "--seed", "11",
               "--replicates", "50", "--bin-width", "1.0",
               "--out-prefix", str(prefix)])
    assert rc == 0
    doc = json.loads((tmp_path / "rep_fractions.json").read_text())
    fr = doc["time_fractions"]
    assert sum(v["mean"] for v in fr.values()) == pytest.approx(1.0, abs=1e-9)
    for state in PATTERNS.states:
        assert (tmp_path / f"rep_hist_{state}.csv").exists()


def test_report_truncation_flag(tmp_path):
    prefix = tmp_path / "rep"
    rc = main(["report", "--manifest", SUCCESS, "--seed", "11",
               "--replicates", "10", "--truncation", "2.0",
               "--out-prefix", str(prefix)])
    assert rc == 0
    doc = json.loads((tmp_path / "rep_fractions.json").read_text())
    for fit in doc["exponential_tail_fits"].values():
        assert fit["truncation_s"] == 2.0


def test_report_requires_seed():
    rc = main(["report", "--manifest", SUCCESS, "--out-prefix", "x"])
    assert rc == 2


def test_usage_errors_exit_2():
    assert main([]) == 2
    assert main(["frobnicate"]) == 2
    assert main(["fit", "--manifest", SUCCESS]) == 2  # missing --model/--out


def test_missing_manifest_is_data_error(tmp_path):
    rc = main(["fit", "--manifest", str(tmp_path / "nope.json"),
               "--model", "dtmc", "--out", str(tmp_path / "o.json")])
    assert rc == 1


def test_malformed_model_file_is_data_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc = main(["simulate", "--model", str(bad), "--duration-s", "10",
               "--seed", "1", "--out-prefix", str(tmp_path / "s")])
    assert rc == 1


@pytest.mark.parametrize(
    "text",
    [
        "state,duration_s\nMVT,2.0\nPAU,inf\n",
        "state,duration_s\nMVT,2.0\nPAU,1e400\n",
        "state,duration_s\nMVT,2.0\nPAU,1e300\n",
        "state,duration_s\nMVT,3e18\nPAU,3e18\n",
        "time_s,state\n0.0,MVT\nnan,PAU\n1.0,MVT\n",
        "state,duration_s\nMVT,2.0\nPAU," + "1" * 131073 + "\n",
    ],
    ids=["duration-inf", "duration-1e400", "duration-1e300", "total-6e18",
         "time-nan", "field-over-limit"],
)
def test_non_finite_csv_value_is_data_error(tmp_path, capsys, text):
    (tmp_path / "p.csv").write_text(text)
    write_manifest(
        CohortManifest("bad", 2.0, PATTERNS, ("p.csv",), base_dir=tmp_path),
        tmp_path / "m.json",
    )
    rc = main(["fit", "--manifest", str(tmp_path / "m.json"),
               "--model", "semi-markov", "--out", str(tmp_path / "o.json")])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "p.csv:3:" in err[0]


def test_csv_that_is_not_utf8_is_data_error(tmp_path, capsys):
    (tmp_path / "good.csv").write_text("state,duration_s\nMVT,2.0\nPAU,1.5\n")
    (tmp_path / "p.csv").write_bytes(b"state,duration_s\nMVT,2.0\nPAU\xff,1.5\n")
    write_manifest(
        CohortManifest("bad", 2.0, PATTERNS, ("good.csv", "p.csv"), base_dir=tmp_path),
        tmp_path / "m.json",
    )
    rc = main(["fit", "--manifest", str(tmp_path / "m.json"),
               "--model", "semi-markov", "--out", str(tmp_path / "o.json")])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "p.csv:3:" in err[0]


def test_model_file_that_is_not_utf8_is_data_error(tmp_path, capsys):
    good = tmp_path / "good.json"
    write_model_json(success_model(), good)
    bad = tmp_path / "bad.json"
    bad.write_bytes(good.read_bytes().replace(b'"PAU"', b'"PA\xff"', 1))
    rc = main(["compare", "--a", str(bad), "--b", str(good),
               "--out", str(tmp_path / "c.json")])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "bad.json" in err[0]


@pytest.mark.parametrize(
    "duration, rate", [("inf", "2"), ("10", "inf"), ("1e300", "1e10")]
)
def test_infinite_simulation_setting_is_data_error(tmp_path, capsys, duration, rate):
    model_path = tmp_path / "m.json"
    write_model_json(success_model(), model_path)
    rc = main(["simulate", "--model", str(model_path), "--seed", "1",
               "--duration-s", duration, "--rate-hz", rate,
               "--out-prefix", str(tmp_path / "s")])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


def _set_dwell(state, key=None, value=None):
    def mutate(doc):
        if key is None:
            doc["dwell"][state] = value
        else:
            doc["dwell"][state][key] = value
    return mutate


def _set_mu(value):
    def mutate(doc):
        doc["dwell"]["PAU"]["params"]["mu"] = value
    return mutate


@pytest.mark.parametrize(
    "mutate",
    [
        lambda doc: doc.update(dwell=[]),
        lambda doc: doc.update(metadata=[1]),
        lambda doc: doc.update(alphabet=5),
        _set_dwell("PAU", value="x"),
        _set_dwell("PAU", "params", None),
        _set_dwell("PAU", "n_obs", None),
        _set_mu(10**401),
        lambda doc: doc["dwell"].update(XYZ=doc["dwell"]["PAU"]),
        _set_mu(float("inf")),
        _set_dwell("PAU", "truncation_s", float("inf")),
        _set_dwell("PAU", "truncation_s", -5.0),
    ],
    ids=["dwell-list", "metadata-list", "alphabet-int", "dwell-entry-str",
         "params-null", "n_obs-null", "mu-401-digits", "dwell-unknown-state",
         "mu-infinity", "truncation-infinity", "truncation-negative"],
)
@pytest.mark.parametrize("command", ["compare", "simulate"])
def test_ill_typed_model_file_is_data_error(tmp_path, capsys, mutate, command):
    good = tmp_path / "good.json"
    write_model_json(success_model(), good)
    doc = json.loads(good.read_text())
    assert doc["dwell"]["PAU"]["family"] == "Exponential"
    mutate(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    if command == "compare":
        argv = ["compare", "--a", str(bad), "--b", str(good),
                "--out", str(tmp_path / "c.json")]
    else:
        argv = ["simulate", "--model", str(bad), "--duration-s", "10", "--seed", "1",
                "--out-prefix", str(tmp_path / "s")]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


@pytest.mark.parametrize(
    "doc",
    [
        {"patient_files": 5},
        {"sampling_rate_hz": None},
        {"alphabet": None},
        {"alphabet": "PAMSU"},
        {"patient_files": [1, 2]},
        [1, 2],
    ],
    ids=["files-int", "rate-null", "alphabet-null", "alphabet-str", "files-ints",
         "top-level-list"],
)
def test_ill_typed_manifest_is_data_error(tmp_path, capsys, doc):
    if isinstance(doc, dict):
        doc = {"group_label": "g", "sampling_rate_hz": 2.0,
               "alphabet": list(PATTERNS.states), "patient_files": ["p.csv"], **doc}
    (tmp_path / "m.json").write_text(json.dumps(doc))
    rc = main(["fit", "--manifest", str(tmp_path / "m.json"),
               "--model", "dtmc", "--out", str(tmp_path / "o.json")])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "m.json" in err[0]


def write_huge_runs_manifest(tmp_path) -> str:
    # expanded to per-sample labels this file would take 7.3 TiB
    (tmp_path / "p.csv").write_text("state,duration_s\nPAU,5e11\nASB,5e11\n")
    write_manifest(
        CohortManifest("big", 1.0, PATTERNS, ("p.csv",), base_dir=tmp_path),
        tmp_path / "m.json",
    )
    return str(tmp_path / "m.json")


@pytest.mark.parametrize("model", ["dtmc", "semi-markov"])
def test_fit_runs_of_10_to_the_12_samples(tmp_path, model):
    manifest = write_huge_runs_manifest(tmp_path)
    out = tmp_path / "o.json"
    assert main(["fit", "--manifest", manifest,
                 "--model", model, "--out", str(out)]) == 0
    assert read_model_json(out).transitions.row_fitted[0]


def test_report_histogram_of_10_to_the_12_samples_is_data_error(tmp_path, capsys):
    # 5e11 one-second bins would take 3.6 TiB; the bin count is checked first
    manifest = write_huge_runs_manifest(tmp_path)
    rc = main(["report", "--manifest", manifest, "--seed", "1", "--replicates", "10",
               "--out-prefix", str(tmp_path / "rep")])
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: state PAU: ")
    assert "5e+11 bins of 1 s" in err[0] and "--bin-width" in err[0]


def test_split_fit_into_more_segments_than_samples_is_data_error(tmp_path, capsys):
    # a cut list of 10^12 boundaries would not fit in memory; no sequence of
    # 600 samples has that many non-empty segments
    rc = main(["split-fit", "--manifest", SUCCESS, "--segments", "1000000000000",
               "--out-prefix", str(tmp_path / "half")])
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "cannot be cut into 1000000000000 non-empty segments" in err[0]


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "subcommand" in capsys.readouterr().out or True


def test_simulated_files_reload_exactly(tmp_path):
    # library-level cohort, CLI-written files: the quantized run structure
    # survives the text round trip exactly
    model = success_model()
    cfg = SimulationConfig(duration_s=60.0, seed=3, output_sampling_rate_hz=2.0)
    cohort = simulate_cohort(model, 2, cfg)
    from semimarkov.io import parse_runlength_csv, write_runlength_csv

    for runs in cohort:
        p = tmp_path / f"{runs.id}.csv"
        write_runlength_csv(runs, model.alphabet, p)
        back = parse_runlength_csv(p, model.alphabet, sampling_rate_hz=2.0)
        assert np.array_equal(back.states, runs.states)
        assert np.array_equal(back.durations, runs.durations)
        assert np.array_equal(decode_runs(back).labels, decode_runs(runs).labels)
