import json
import math
from pathlib import Path

import numpy as np
import pytest

from semimarkov import cli
from semimarkov.cli import build_parser, main
from semimarkov.dwell import FAMILIES, GEV, DwellFit
from semimarkov.fitting import SemiMarkovModel
from semimarkov.io import (
    CohortManifest,
    load_sequences,
    read_manifest,
    read_model_json,
    write_manifest,
    write_model_json,
)
from semimarkov.presets import PATTERNS, success_model
from semimarkov.sequences import build_alphabet, decode_runs, durations_by_state, encode_runs
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
    rc = main(["compare", "--a", str(ma), "--b", str(mb), "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["aggregate_symmetric_kl_nats"] > 0
    assert set(doc["per_row_symmetric_kl_nats"]) <= set(PATTERNS.states)
    assert doc["smoothing_epsilon"] == 1e-9


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


def test_simulate_dtmc_model_is_data_error(tmp_path, capsys):
    model_path = tmp_path / "dtmc.json"
    assert main(["fit", "--manifest", SUCCESS, "--model", "dtmc",
                 "--out", str(model_path)]) == 0
    capsys.readouterr()
    out = tmp_path / "out"
    out.mkdir()
    rc = main(["simulate", "--model", str(model_path), "--duration-s", "60",
               "--seed", "7", "--out-prefix", str(out / "sim")])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "'dtmc'" in err[0]
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("cohort", [{"x": [1]}, 5, None])
def test_simulate_non_string_cohort_is_data_error(tmp_path, capsys, cohort):
    # the simulated manifest's group_label comes from metadata.cohort
    model_path = tmp_path / "m.json"
    write_model_json(success_model(), model_path)
    raw = json.loads(model_path.read_text())
    raw["metadata"]["cohort"] = cohort
    model_path.write_text(json.dumps(raw))
    out = tmp_path / "out"
    out.mkdir()
    rc = main(["simulate", "--model", str(model_path), "--duration-s", "60",
               "--seed", "7", "--out-prefix", str(out / "sim")])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "group_label" in err[0]
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("name", ["PAU,X", " PAU", "PAU\n", "\ud800"])
def test_simulate_a_name_the_readers_cannot_read_back_is_data_error(tmp_path, capsys, name):
    model_path = tmp_path / "m.json"
    write_model_json(success_model(), model_path)
    model_path.write_text(model_path.read_text().replace('"PAU"', json.dumps(name)))
    assert name in read_model_json(model_path).alphabet
    out = tmp_path / "out"
    out.mkdir()
    rc = main(["simulate", "--model", str(model_path), "--patients", "2", "--duration-s", "60",
               "--seed", "7", "--out-prefix", str(out / "sim")])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "cannot be written" in err[0]
    assert list(out.iterdir()) == []


def test_simulate_requires_seed(tmp_path):
    model_path = tmp_path / "m.json"
    main(["fit", "--manifest", SUCCESS, "--model", "semi-markov", "--out", str(model_path)])
    rc = main(["simulate", "--model", str(model_path), "--duration-s", "60",
               "--out-prefix", str(tmp_path / "s")])
    assert rc == 2


@pytest.mark.parametrize("state", ["PAU", "UNK"])
def test_simulate_initial_state(tmp_path, state):
    model_path = tmp_path / "m.json"
    write_model_json(success_model(), model_path)
    rc = main(["simulate", "--model", str(model_path), "--patients", "4",
               "--duration-s", "60", "--rate-hz", "2", "--seed", "7",
               "--initial-state", state, "--out-prefix", str(tmp_path / "sim")])
    assert rc == 0
    manifest = read_manifest(tmp_path / "sim_manifest.json")
    assert len(manifest.patient_files) == 4
    for path in manifest.resolved_paths():
        assert path.read_text().splitlines()[1].split(",")[0] == state


def test_simulate_unknown_initial_state_is_data_error(tmp_path, capsys):
    model_path = tmp_path / "m.json"
    write_model_json(success_model(), model_path)
    out = tmp_path / "out"
    out.mkdir()
    rc = main(["simulate", "--model", str(model_path), "--duration-s", "60",
               "--seed", "7", "--initial-state", "XYZ", "--out-prefix", str(out / "sim")])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "'XYZ'" in err[0]
    assert list(out.iterdir()) == []


class Drew(Exception):
    """Raised in place of simulate_cohort's draws."""


def _simulate_without_draws(tmp_path, monkeypatch, patients, duration_s, rate_hz):
    """``simulate`` with simulate_cohort raising Drew; returns its exit code
    and the output directory."""
    model_path = tmp_path / "m.json"
    write_model_json(success_model(), model_path)
    out = tmp_path / "out"
    out.mkdir()

    def draw(*args):
        raise Drew

    monkeypatch.setattr(cli, "simulate_cohort", draw)
    rc = main(["simulate", "--model", str(model_path), "--patients", patients,
               "--duration-s", duration_s, "--rate-hz", rate_hz, "--seed", "7",
               "--out-prefix", str(out / "sim")])
    return rc, out


@pytest.mark.parametrize("patients,duration_s,rate_hz,samples", [
    ("1", "1e12", "1", "1e+12"),  # would draw for days
    ("1001", "1e6", "1", "1.001e+09"),  # past the limit by the patient count
])
def test_simulate_over_the_sample_limit_draws_nothing(
        tmp_path, capsys, monkeypatch, patients, duration_s, rate_hz, samples):
    rc, out = _simulate_without_draws(tmp_path, monkeypatch, patients, duration_s, rate_hz)
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: --patients x --duration-s x --rate-hz must come to at most 1000000000 "
        f"samples, got {samples}"]
    assert list(out.iterdir()) == []


def test_simulate_at_the_sample_limit_draws(tmp_path, monkeypatch):
    assert cli.MAX_SIMULATED_SAMPLES == 10**9
    with pytest.raises(Drew):
        _simulate_without_draws(tmp_path, monkeypatch, "4", "5e6", "50")


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


def test_report_tail_fits_cover_every_duration(tmp_path):
    prefix = tmp_path / "rep"
    rc = main(["report", "--manifest", SUCCESS, "--seed", "11",
               "--replicates", "10", "--out-prefix", str(prefix)])
    assert rc == 0
    doc = json.loads((tmp_path / "rep_fractions.json").read_text())
    seqs = load_sequences(read_manifest(SUCCESS))
    table = durations_by_state([encode_runs(s) for s in seqs])
    expected = {PATTERNS.name(state): (float((values * counts).sum() / counts.sum()),
                                       int(counts.sum()))
                for state, (values, counts) in table.items()}
    assert {name: (fit["mu"], fit["n_obs"])
            for name, fit in doc["exponential_tail_fits"].items()} == expected
    # the left-truncation shift is gone: its flag is a usage error
    assert main(["report", "--manifest", SUCCESS, "--seed", "11", "--truncation", "2",
                 "--out-prefix", str(tmp_path / "t")]) == 2
    assert not list(tmp_path.glob("t_*"))


def test_report_histogram_keeps_the_longest_dwell(tmp_path):
    # 126 samples at 2 Hz last 63 s; 63 / 0.7 rounds to 90.0, yet 90 bins of
    # 0.7 s end at 62.99999999999999
    (tmp_path / "p.csv").write_text("state,duration_s\nPAU,1.0\nASB,2.0\nPAU,63.0\n")
    write_manifest(CohortManifest("g", 2.0, PATTERNS, ["p.csv"], tmp_path),
                   tmp_path / "m.json")
    rc = main(["report", "--manifest", str(tmp_path / "m.json"), "--seed", "1",
               "--replicates", "10", "--bin-width", "0.7",
               "--out-prefix", str(tmp_path / "rep")])
    assert rc == 0
    lines = (tmp_path / "rep_hist_PAU.csv").read_text().splitlines()[1:]
    rows = [[float(v) for v in line.split(",")] for line in lines]
    assert len(rows) == 91 and rows[-1][1] >= 63.0 and rows[-1][2] > 0.0
    assert math.fsum(row[2] for row in rows) * 0.7 == pytest.approx(1.0, abs=1e-12)


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


@pytest.mark.parametrize("k", [0.0, 1e-10])
def test_simulate_a_gev_dwell_far_above_one_sample(tmp_path, k):
    # every draw lies near 10 s, far above the 0.5 s sample period, where the
    # cdf that sizes the sampler's rounds is exactly 0
    m = success_model()
    dwell = dict(m.dwell, ASB=DwellFit(GEV, {"k": k, "sigma": 0.01, "mu": 10.0}))
    model_path = tmp_path / "m.json"
    write_model_json(SemiMarkovModel(m.transitions, dwell, m.metadata), model_path)
    rc = main(["simulate", "--model", str(model_path), "--duration-s", "60",
               "--rate-hz", "2", "--seed", "1", "--out-prefix", str(tmp_path / "s")])
    assert rc == 0


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


def _set_item(value, *path):
    def mutate(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return mutate


def _text(old, new):
    """The document as JSON text with old replaced by new, for values that
    json.dumps cannot write: an integer of 5000 digits, nesting 3000 deep."""
    def mutate(doc):
        text = json.dumps(doc)
        assert old in text
        return text.replace(old, new, 1)
    return mutate


def _without(key):
    def mutate(doc):
        del doc[key]
    return mutate


def _empty_row(doc):  # PAU's row loses its mass but keeps its true flag
    doc["transitions"][0] = [0.0] * len(doc["transitions"][0])


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
        _set_dwell("PAU", "n_obs", "7"),
        _set_dwell("PAU", "n_obs", 2.7),
        _set_dwell("PAU", "n_obs", -5),
        _set_dwell("PAU", "log_likelihood", "x"),
        _set_dwell("PAU", "bic", [1]),
        _set_mu(True),
        _set_mu("2.5"),
        _set_item("no", "row_fitted", 0),
        _set_item("0.27", "transitions", 0, 1),
        _set_item(True, "schema_version"),
        _set_dwell("PAU", "fallback", "no"),
        _set_dwell("PAU", "truncation_s", 1.2),
        _set_dwell("PAU", "bic", float("nan")),
        _set_dwell("PAU", "log_likelihood", float("inf")),
        _set_item(float("-inf"), "metadata", "x"),
        _set_item(False, "row_fitted", 0),
        _empty_row,
        lambda doc: doc["row_fitted"].append(True),
        _set_item(["PAU"], "alphabet"),
        _set_item(["PAU", "ASB", "MVT", "SYB", "PAU"], "alphabet"),
        _text('"schema_version": 1', '"schema_version": ' + "1" * 5000),
        _text('"metadata": {', '"metadata": {"x": ' + "[" * 3000 + "]" * 3000 + ", "),
        lambda doc: "[" * 3000,
        _without("kind"),
    ],
    ids=["dwell-list", "metadata-list", "alphabet-int", "dwell-entry-str",
         "params-null", "n_obs-null", "mu-401-digits", "dwell-unknown-state",
         "mu-infinity", "truncation-infinity", "truncation-negative",
         "n_obs-str", "n_obs-fraction", "n_obs-negative", "log_likelihood-str",
         "bic-list", "mu-true", "mu-str", "row_fitted-str", "transition-str",
         "schema_version-true", "fallback-str", "truncation-positive", "bic-nan",
         "log_likelihood-infinity", "metadata-infinity", "row_fitted-false-on-mass",
         "row_fitted-true-on-zero-row", "row_fitted-too-long", "alphabet-one-state",
         "alphabet-duplicate", "schema_version-5000-digits", "metadata-3000-deep",
         "list-3000-deep", "kind-missing"],
)
@pytest.mark.parametrize("command", ["compare", "simulate"])
def test_ill_typed_model_file_is_data_error(tmp_path, capsys, mutate, command):
    good = tmp_path / "good.json"
    write_model_json(success_model(), good)
    doc = json.loads(good.read_text())
    assert doc["dwell"]["PAU"]["family"] == "Exponential"
    assert doc["transitions"][0][1] == 0.27 and doc["row_fitted"][0] is True
    text = mutate(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(text if isinstance(text, str) else json.dumps(doc))
    if command == "compare":
        argv = ["compare", "--a", str(bad), "--b", str(good),
                "--out", str(tmp_path / "c.json")]
    else:
        argv = ["simulate", "--model", str(bad), "--duration-s", "10", "--seed", "1",
                "--out-prefix", str(tmp_path / "s")]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {bad}: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json", "good.json"]


@pytest.mark.parametrize(
    "doc",
    [
        {"patient_files": 5},
        {"sampling_rate_hz": None},
        {"alphabet": None},
        {"alphabet": "PAMSU"},
        {"patient_files": [1, 2]},
        [1, 2],
        {"sampling_rate_hz": math.inf},
        {"sampling_rate_hz": 0.0},
        {"alphabet": ["PAU"]},
        {"alphabet": ["PAU", "ASB", "PAU"]},
        {"patient_files": []},
        {"group_label": 7},
        {"sampling_rate_hz": "2.0"},
        '{"sampling_rate_hz": ' + "2" * 5000 + "}",
        "[" * 3000,
        '{"alphabet": ' + "[" * 3000 + "]" * 3000 + "}",
    ],
    ids=["files-int", "rate-null", "alphabet-null", "alphabet-str", "files-ints",
         "top-level-list", "rate-inf", "rate-zero", "alphabet-one-state",
         "alphabet-duplicate", "files-empty", "label-int", "rate-str", "rate-5000-digits",
         "list-3000-deep", "alphabet-3000-deep"],
)
def test_ill_typed_manifest_is_data_error(tmp_path, capsys, doc):
    if isinstance(doc, dict):
        doc = {"group_label": "g", "sampling_rate_hz": 2.0,
               "alphabet": list(PATTERNS.states), "patient_files": ["p.csv"], **doc}
    manifest = tmp_path / "m.json"
    manifest.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    rc = main(["fit", "--manifest", str(manifest),
               "--model", "dtmc", "--out", str(tmp_path / "o.json")])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {manifest}: ")
    assert [p.name for p in tmp_path.iterdir()] == ["m.json"]


def test_report_on_an_infinite_rate_is_data_error(tmp_path, capsys):
    # 1e400 parses to inf; at that rate every dwell would last 0 s
    (tmp_path / "p.csv").write_text("state,duration_s\nPAU,1.0\nASB,2.0\n")
    (tmp_path / "m.json").write_text(
        '{"group_label": "g", "sampling_rate_hz": 1e400, "patient_files": ["p.csv"], '
        f'"alphabet": {json.dumps(list(PATTERNS.states))}}}')
    out = tmp_path / "out"
    out.mkdir()
    rc = main(["report", "--manifest", str(tmp_path / "m.json"), "--seed", "1",
               "--out-prefix", str(out / "rep")])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "m.json" in err[0] and "finite and positive" in err[0]
    assert list(out.iterdir()) == []


def write_huge_runs_manifest(tmp_path, rows="PAU,5e11\nASB,5e11\n") -> str:
    # expanded to per-sample labels this file would take 7.3 TiB
    (tmp_path / "p.csv").write_text("state,duration_s\n" + rows)
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


def test_report_checks_every_histogram_before_writing_any(tmp_path, capsys):
    # PAU's histogram fits but ASB's does not: nothing is written for either
    manifest = write_huge_runs_manifest(tmp_path, rows="PAU,1\nASB,5e11\n")
    out = tmp_path / "out"
    out.mkdir()
    rc = main(["report", "--manifest", manifest, "--seed", "1", "--replicates", "1000",
               "--out-prefix", str(out / "rep")])
    assert rc == 1
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: state ASB: ")
    assert "wrote" not in captured.out
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("width", ["inf", "nan", "0", "-1"])
def test_report_bin_width_that_is_not_finite_and_positive_writes_nothing(
        tmp_path, capsys, width):
    out = tmp_path / "out"
    out.mkdir()
    rc = main(["report", "--manifest", SUCCESS, "--seed", "1", "--replicates", "10",
               "--bin-width", width, "--out-prefix", str(out / "rep")])
    assert rc == 1
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: state ")
    assert "bin_width_s must be finite and positive" in err[0]
    assert "wrote" not in captured.out
    assert list(out.iterdir()) == []


def test_report_replicates_over_the_limit_writes_nothing(tmp_path, capsys):
    # 10^13 replicates of five fractions would take 364 TiB
    out = tmp_path / "out"
    out.mkdir()
    rc = main(["report", "--manifest", SUCCESS, "--seed", "1",
               "--replicates", "10000000000000", "--out-prefix", str(out / "rep")])
    assert rc == 1
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert err == ["error: n_replicates must be from 1 to 1000000, got 10000000000000"]
    assert "wrote" not in captured.out
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("name", ["a/b", "x\u0000y", "../x", "a/../../x"])
def test_report_refuses_a_state_name_that_is_not_one_file_name(tmp_path, capsys, name):
    # "B"'s histogram comes first and would be written before the bad name's
    (tmp_path / "p.csv").write_text(f"state,duration_s\nB,1.0\n{name},2.0\n", encoding="utf-8")
    write_manifest(CohortManifest("g", 1.0, build_alphabet(["B", name]), ["p.csv"], tmp_path),
                   tmp_path / "m.json")
    out = tmp_path / "out"
    out.mkdir()
    (out / "r_hist_a").mkdir()  # where "a/../../x" would otherwise resolve outside out
    rc = main(["report", "--manifest", str(tmp_path / "m.json"), "--seed", "1",
               "--replicates", "10", "--out-prefix", str(out / "r")])
    assert rc == 1
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: state {name!r}: histogram file name")
    assert "wrote" not in captured.out
    assert sorted(p.name for p in out.iterdir()) == ["r_hist_a"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.json", "out", "p.csv"]
    assert not list((out / "r_hist_a").iterdir())


def _epsilon_usage_error_writes_nothing(tmp_path, capsys, command, epsilon):
    # the smoothing constant is fixed at 1e-9; the flag that set it is gone
    out = tmp_path / "out"
    out.mkdir()
    if command == "compare":
        model = tmp_path / "m.json"
        write_model_json(success_model(), model)
        argv = ["compare", "--a", str(model), "--b", str(model),
                "--out", str(out / "c.json")]
    else:
        argv = ["split-fit", "--manifest", SUCCESS, "--segments", "2",
                "--out-prefix", str(out / "half")]
    assert main(argv + ["--epsilon", epsilon]) == 2
    captured = capsys.readouterr()
    assert f"unrecognized arguments: --epsilon {epsilon}" in captured.err
    assert "wrote" not in captured.out
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command", ["compare", "split-fit"])
@pytest.mark.parametrize("epsilon", ["inf", "nan", "0"])
def test_epsilon_that_is_not_finite_and_positive_writes_nothing(
        tmp_path, capsys, command, epsilon):
    _epsilon_usage_error_writes_nothing(tmp_path, capsys, command, epsilon)


@pytest.mark.parametrize("command", ["compare", "split-fit"])
def test_epsilon_flag_is_a_usage_error_and_writes_nothing(tmp_path, capsys, command):
    _epsilon_usage_error_writes_nothing(tmp_path, capsys, command, "1e-9")


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


def _readme_commands():
    """The ``semimarkov ...`` commands of README's "Command line" block, each
    with its backslash continuation lines joined."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Command line", 1)[1]
    block = section.split("```", 2)[1]
    text = block.replace("\\\n", " ")
    return [line.split()[1:] for line in text.splitlines() if line.startswith("semimarkov ")]


def test_readme_quickstart_runs(capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Library quickstart", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    aggregate, fit = capsys.readouterr().out.splitlines()
    assert 0.0 <= float(aggregate) < 0.1  # a refit stays close to its source
    assert fit.split()[0] in FAMILIES


def test_readme_commands_parse():
    commands = _readme_commands()
    assert {argv[0] for argv in commands} == {
        "fit", "split-fit", "compare", "simulate", "report"}
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv)  # a removed or misspelt flag exits 2
