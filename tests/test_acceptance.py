"""Acceptance suite: nine end-to-end checks of the whole toolkit.

Every stochastic check is seeded and therefore deterministic.  Each test
prints a one-line summary with the measured quantities (visible with
``pytest -s``; under ``pytest -v`` the test name itself is the pass/fail
line).
"""

import itertools
import json
import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.stats as st

from semimarkov.cli import main as cli
from semimarkov.compare import (
    bootstrap_group_fractions,
    compare_transition_matrices,
    kl_divergence,
    symmetric_kl,
)
from semimarkov.dwell import (
    EXPONENTIAL,
    GEV,
    GPD,
    DwellFit,
    fit_exponential,
    fit_gev,
    fit_gpd,
    fit_inverse_gaussian,
    select_family,
)
from semimarkov.errors import NoTransitionsError
from semimarkov.fitting import (
    SEMI_MARKOV,
    MultiChainModel,
    SemiMarkovModel,
    TransitionMatrix,
    fit_dtmc,
    fit_multi_chain,
    fit_semi_markov_transitions,
)
from semimarkov.presets import PATTERNS, failure_model, success_model
from semimarkov.sequences import (
    LabeledSequence,
    RunSequence,
    build_alphabet,
    decode_runs,
    durations_by_state,
    encode_runs,
)
from semimarkov.simulate import SimulationConfig, simulate_cohort

DATA = Path(__file__).resolve().parent.parent / "data" / "synthetic"


# --- 1. fit-simulate-refit closure -------------------------------------------


def test_criterion_1_fit_simulate_refit_closure():
    # 2000 patients give the sparsest row (PAU, about 12 400 transitions) a
    # largest standard error of about 0.0044, so the 0.02 bound is 4.6 of
    # them; at 200 patients it was 1.5, and a third to two thirds of base
    # seeds failed by chance
    t0 = time.perf_counter()
    model = success_model()
    cfg = SimulationConfig(duration_s=300.0, seed=27000, output_sampling_rate_hz=100.0)
    cohort = simulate_cohort(model, 2000, cfg)

    refit = fit_semi_markov_transitions(cohort, PATTERNS)
    assert refit.row_fitted.all()
    max_err = float(np.abs(refit.probs - model.transitions.probs).max())
    assert max_err <= 0.02

    pause_s, pause_counts = durations_by_state(cohort)[PATTERNS.index("PAU")]
    mu = fit_exponential(pause_s, pause_counts).params["mu"]
    rel = abs(mu / 2.51 - 1.0)
    assert rel <= 0.05

    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(
        f"criterion 1 PASS: 2000x300s refit max|dT|={max_err:.4f} (<=0.02), "
        f"pause mean {mu:.3f}s rel err {rel:.2%} (<=5%), {elapsed:.1f}s (<30s)"
    )


# --- 2. sampling-rate invariance ----------------------------------------------


def test_criterion_2_sampling_rate_invariance():
    model = success_model()
    cfg = SimulationConfig(duration_s=120.0, seed=210, output_sampling_rate_hz=2.0)
    seqs = [decode_runs(r) for r in simulate_cohort(model, 5, cfg)]
    base_runs = [encode_runs(s) for s in seqs]
    base_sm = fit_semi_markov_transitions(base_runs, PATTERNS)
    base_dtmc, _ = fit_dtmc(seqs, PATTERNS)
    base_dwell = [durations_by_state([r]) for r in base_runs]
    assert np.all(np.diag(base_dtmc.probs) < 1.0)

    for k in (2, 5):
        up_runs = [RunSequence(r.states, r.durations * k, r.sampling_rate_hz * k, r.id)
                   for r in base_runs]
        ups = [decode_runs(r) for r in up_runs]
        up_sm = fit_semi_markov_transitions(up_runs, PATTERNS)
        assert np.array_equal(up_sm.probs, base_sm.probs)
        assert np.array_equal(up_sm.row_fitted, base_sm.row_fitted)
        # dwell times in seconds survive the rate change bit-for-bit
        for r, base in zip(up_runs, base_dwell, strict=True):
            up = durations_by_state([r])
            assert up.keys() == base.keys()
            for state, (values, counts) in base.items():
                assert np.array_equal(up[state][0], values)
                assert np.array_equal(up[state][1], counts)

        up_dtmc, _ = fit_dtmc(ups, PATTERNS)
        for i in range(len(PATTERNS)):
            if base_dtmc.row_fitted[i]:
                assert up_dtmc.probs[i, i] > base_dtmc.probs[i, i]

    # a chain whose mean dwell spans ~100 samples shows near-saturated
    # per-sample self-transition probabilities
    abc3 = build_alphabet(("A", "B", "C"))
    tm = TransitionMatrix.from_probabilities(
        ((0.0, 0.5, 0.5), (0.5, 0.0, 0.5), (0.5, 0.5, 0.0)), abc3, kind=SEMI_MARKOV
    )
    dwell = {s: DwellFit(family=EXPONENTIAL, params={"mu": 5.0}) for s in abc3.states}
    m3 = SemiMarkovModel(transitions=tm, dwell=dwell, metadata={})
    c3 = simulate_cohort(
        m3, 20, SimulationConfig(duration_s=300.0, seed=90, output_sampling_rate_hz=20.0)
    )
    d3, _ = fit_dtmc([decode_runs(r) for r in c3], abc3)
    diag = np.diag(d3.probs)
    assert d3.row_fitted.all()
    assert np.all(np.abs(diag - 0.99) <= 0.005)
    print(
        f"criterion 2 PASS: k in (2,5) bit-identical run-level fits, DTMC diagonals "
        f"rise; 20 Hz / 5 s dwell diagonals {np.round(diag, 4).tolist()} (~0.99)"
    )


# --- 3. KL correctness ----------------------------------------------------------

# Independent direct evaluation of the per-row symmetric KL between the two
# built-in cohort matrices (off-diagonal rows renormalized), frozen before the
# library existed; regression-guarded to 1e-10.
_FROZEN_ROW_KLS = {
    "PAU": 0.095197253108299462,
    "ASB": 0.023264905819140258,
    "MVT": 0.093909777957828497,
    "SYB": 0.075680684575506224,
    "UNK": 0.0088013790266016079,
}
_FROZEN_AGGREGATE = 0.059370800097475217


def test_criterion_3_kl_correctness():
    p, q = (0.5, 0.5), (0.9, 0.1)
    # self-divergence is exactly zero and the symmetrized form commutes exactly
    assert symmetric_kl(p, p) == 0.0
    assert kl_divergence(q, q) == 0.0
    assert symmetric_kl(p, q) == symmetric_kl(q, p)
    hand = 0.4 * math.log(9.0)
    assert abs(symmetric_kl(p, q) - 0.8789) < 1e-4
    assert abs(symmetric_kl(p, q) - hand) < 1e-12

    a = success_model().transitions
    b = failure_model().transitions
    report = compare_transition_matrices(a, b)
    assert report.skipped_rows == ()
    for state, frozen in _FROZEN_ROW_KLS.items():
        assert abs(report.per_row[state] - frozen) < 1e-10
    assert abs(report.aggregate - _FROZEN_AGGREGATE) < 1e-10

    same = compare_transition_matrices(a, a)
    assert same.aggregate == 0.0
    print(
        f"criterion 3 PASS: hand value {symmetric_kl(p, q):.6f}~0.8789, "
        f"cohort aggregate {report.aggregate:.12f} matches frozen oracle to 1e-10"
    )


# --- 4. MLE certificates --------------------------------------------------------

_RECOVERY_SETS = [
    (GEV, {"k": 0.63, "sigma": 1.30, "mu": 1.85}),
    (GEV, {"k": 0.65, "sigma": 1.36, "mu": 1.81}),
    (GPD, {"k": -0.22, "sigma": 3.62}),
    (GPD, {"k": -0.07, "sigma": 2.07}),
    (GPD, {"k": -0.11, "sigma": 3.31}),
    (GPD, {"k": -0.10, "sigma": 2.05}),
]


def _reference_loglik(family, theta, xs):
    if family == GEV:
        k, sigma, mu = theta
        return float(st.genextreme.logpdf(xs, c=-k, loc=mu, scale=sigma).sum())
    k, sigma = theta
    return float(st.genpareto.logpdf(xs, c=k, loc=0.0, scale=sigma).sum())


def _reference_grad_norm(family, theta, xs):
    grad = np.zeros(len(theta))
    for i in range(len(theta)):
        h = 1e-5 * max(1.0, abs(theta[i]))
        for _ in range(4):
            tp, tm = theta.copy(), theta.copy()
            tp[i] += h
            tm[i] -= h
            lp = _reference_loglik(family, tp, xs)
            lm = _reference_loglik(family, tm, xs)
            if math.isfinite(lp) and math.isfinite(lm):
                grad[i] = (lp - lm) / (2.0 * h)
                break
            h *= 0.1
        else:
            return math.inf
    return float(np.linalg.norm(grad))


def test_criterion_4_mle_certificates():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4004)
    xs = rng.lognormal(0.5, 0.6, size=400)
    assert fit_exponential(xs).params["mu"] == float(np.mean(xs))

    ig_xs = st.invgauss.rvs(8.61 / 3.61, scale=3.61, size=2000,
                            random_state=np.random.default_rng(4005))
    ig = fit_inverse_gaussian(ig_xs)
    mu_hat = float(np.mean(ig_xs))
    lam_hat = len(ig_xs) / math.fsum(1.0 / x - 1.0 / mu_hat for x in ig_xs)
    assert ig.params["mu"] == pytest.approx(mu_hat, rel=1e-12)
    assert ig.params["lambda"] == pytest.approx(lam_hat, rel=1e-12)

    worst = 0.0
    for idx, (family, params) in enumerate(_RECOVERY_SETS):
        gen = np.random.default_rng(58 + idx)
        if family == GEV:
            data = st.genextreme.rvs(c=-params["k"], loc=params["mu"],
                                     scale=params["sigma"], size=5000, random_state=gen)
            fit = fit_gev(data)
            theta = np.array([fit.params["k"], fit.params["sigma"], fit.params["mu"]])
        else:
            data = st.genpareto.rvs(c=params["k"], loc=0.0, scale=params["sigma"],
                                    size=5000, random_state=gen)
            fit = fit_gpd(data)
            theta = np.array([fit.params["k"], fit.params["sigma"]])
        for name, true in params.items():
            rel = abs(fit.params[name] / true - 1.0)
            worst = max(worst, rel)
            assert rel <= 0.10, (family, name, fit.params[name], true)
        gnorm = _reference_grad_norm(family, theta, data)
        assert gnorm <= 1e-4 * max(1.0, abs(fit.log_likelihood))

    elapsed = time.perf_counter() - t0
    assert elapsed < 20.0
    print(
        f"criterion 4 PASS: closed forms exact, 6 heavy-tail parameter sets "
        f"recovered at n=5000 (worst rel err {worst:.1%} <= 10%), stationarity "
        f"certified, {elapsed:.1f}s (<20s)"
    )


# --- 5. BIC family selection ----------------------------------------------------


def test_criterion_5_bic_selects_exponential():
    wins = 0
    for i in range(100):
        xs = np.random.default_rng(500 + i).exponential(2.51, 1000)
        if select_family(xs).family == EXPONENTIAL:
            wins += 1
    assert wins >= 95
    print(f"criterion 5 PASS: exponential chosen {wins}/100 (>=95)")


# --- 6. multi-chain non-stationarity detection -----------------------------------


def _split_fit_cohort(model, seed, n=50):
    cfg = SimulationConfig(duration_s=300.0, seed=seed, output_sampling_rate_hz=2.0)
    cohort = simulate_cohort(model, n, cfg)
    seqs = [decode_runs(r) for r in cohort]
    return fit_multi_chain(seqs, 2, PATTERNS)


def test_criterion_6_multi_chain_detects_drift():
    succ, fail = success_model(), failure_model()
    drifting = MultiChainModel(segments=(succ, fail), boundaries=(150.0,))

    a = _split_fit_cohort(succ, 1000)
    b = _split_fit_cohort(drifting, 2000)
    first = compare_transition_matrices(
        a.segments[0].transitions, b.segments[0].transitions
    ).aggregate
    second = compare_transition_matrices(
        a.segments[1].transitions, b.segments[1].transitions
    ).aggregate
    assert second > first

    c = _split_fit_cohort(succ, 3000)
    stat_first = compare_transition_matrices(
        a.segments[0].transitions, c.segments[0].transitions
    ).aggregate
    stat_second = compare_transition_matrices(
        a.segments[1].transitions, c.segments[1].transitions
    ).aggregate
    assert abs(stat_first - stat_second) < 0.05
    print(
        f"criterion 6 PASS: drifting cohorts first={first:.4f} < second={second:.4f}; "
        f"stationary halves differ by {abs(stat_first - stat_second):.4f} (<0.05)"
    )


# --- 7. pause-fraction separation -------------------------------------------------


def test_criterion_7_pause_fraction_separation():
    cfg = SimulationConfig(duration_s=300.0, seed=71, output_sampling_rate_hz=2.0)
    succ_seqs = [decode_runs(r) for r in simulate_cohort(success_model(), 30, cfg)]
    fail_seqs = [
        decode_runs(r)
        for r in simulate_cohort(failure_model(), 30, replace(cfg, seed=72))
    ]
    bs = bootstrap_group_fractions(succ_seqs, 1000, 424242, PATTERNS)
    bf = bootstrap_group_fractions(fail_seqs, 1000, 424242, PATTERNS)
    assert bf["PAU"][0] > bs["PAU"][0]
    # bit reproducibility of the whole bootstrap output
    assert bs == bootstrap_group_fractions(succ_seqs, 1000, 424242, PATTERNS)
    assert bf == bootstrap_group_fractions(fail_seqs, 1000, 424242, PATTERNS)
    print(
        f"criterion 7 PASS: pause fraction failure {bf['PAU'][0]:.4f}"
        f"±{bf['PAU'][1]:.4f} > success {bs['PAU'][0]:.4f}±{bs['PAU'][1]:.4f}, "
        f"B=1000 bit-reproducible"
    )


# --- 8. brute-force oracle equivalence --------------------------------------------


def test_criterion_8_brute_force_oracle():
    abc = build_alphabet(("A", "B", "C"))
    checked = 0
    for length in range(2, 9):
        for labels in itertools.product(range(3), repeat=length):
            seq = LabeledSequence(labels=np.array(labels, dtype=np.int64),
                                  sampling_rate_hz=1.0)
            tm, tc = fit_dtmc([seq], abc)
            counts = [[0, 0, 0], [0, 0, 0], [0, 0, 0]]
            for a, b in zip(labels, labels[1:]):
                counts[a][b] += 1
            assert tc.counts.tolist() == counts
            for i in range(3):
                total = sum(counts[i])
                if total == 0:
                    assert not tm.row_fitted[i]
                    assert tm.probs[i].tolist() == [0.0, 0.0, 0.0]
                else:
                    assert tm.row_fitted[i]
                    assert tm.probs[i].tolist() == [c / total for c in counts[i]]
            checked += 1
    assert checked == 9837

    # run-level hand oracle: A(3) B(2) A(2) C(1)
    runs = RunSequence(states=np.array([0, 1, 0, 2]),
                       durations=np.array([3, 2, 2, 1]), sampling_rate_hz=1.0)
    sm = fit_semi_markov_transitions([runs], abc)
    assert sm.row("A").tolist() == [0.0, 0.5, 0.5]
    assert sm.row("B").tolist() == [1.0, 0.0, 0.0]
    assert sm.absent_states() == ["C"]

    with pytest.raises(NoTransitionsError):
        fit_semi_markov_transitions(
            [RunSequence(states=np.array([0]), durations=np.array([5]),
                         sampling_rate_hz=1.0)],
            abc,
        )

    # no transitions across sequence boundaries
    ab = build_alphabet(("A", "B"))
    two = [
        LabeledSequence(labels=np.array([0, 1]), sampling_rate_hz=1.0),
        LabeledSequence(labels=np.array([1, 0]), sampling_rate_hz=1.0),
    ]
    tm2, tc2 = fit_dtmc(two, ab)
    assert tc2.counts.tolist() == [[0, 1], [1, 0]]
    assert tm2.probs.tolist() == [[0.0, 1.0], [1.0, 0.0]]
    print(f"criterion 8 PASS: {checked} exhaustive 3-state sequences match the "
          f"tally oracle exactly; run-level hand cases agree")


# --- 9. end-to-end CLI determinism -------------------------------------------------


def _run_pipeline(out: Path) -> None:
    success = str(DATA / "success_manifest.json")
    failure = str(DATA / "failure_manifest.json")
    steps = [
        ["fit", "--manifest", success, "--model", "semi-markov",
         "--out", str(out / "success_sm.json")],
        ["fit", "--manifest", failure, "--model", "semi-markov",
         "--out", str(out / "failure_sm.json")],
        ["fit", "--manifest", success, "--model", "dtmc",
         "--out", str(out / "success_dtmc.json")],
        ["split-fit", "--manifest", success, "--segments", "2",
         "--out-prefix", str(out / "success_split")],
        ["compare", "--a", str(out / "success_sm.json"),
         "--b", str(out / "failure_sm.json"),
         "--out", str(out / "cohort_cmp.json")],
        ["simulate", "--model", str(out / "success_sm.json"), "--patients", "3",
         "--duration-s", "120", "--rate-hz", "2", "--seed", "42",
         "--out-prefix", str(out / "sim")],
        ["fit", "--manifest", str(out / "sim_manifest.json"),
         "--model", "semi-markov", "--out", str(out / "sim_refit.json")],
        ["report", "--manifest", success, "--seed", "42", "--replicates", "200",
         "--bin-width", "1.0", "--out-prefix", str(out / "success_rep")],
    ]
    for argv in steps:
        assert cli(argv) == 0, argv


def test_criterion_9_cli_byte_determinism(tmp_path):
    d1, d2 = tmp_path / "run1", tmp_path / "run2"
    d1.mkdir()
    d2.mkdir()
    _run_pipeline(d1)
    _run_pipeline(d2)
    files1 = {p.name: p.read_bytes() for p in sorted(d1.iterdir())}
    files2 = {p.name: p.read_bytes() for p in sorted(d2.iterdir())}
    assert sorted(files1) == sorted(files2)
    for name in files1:
        assert files1[name] == files2[name], name
    assert len(files1) >= 15
    # outputs parse back cleanly
    doc = json.loads((d1 / "cohort_cmp.json").read_text())
    assert doc["aggregate_symmetric_kl_nats"] > 0
    print(f"criterion 9 PASS: {len(files1)} pipeline artifacts byte-identical "
          f"across two runs")
