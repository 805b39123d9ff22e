import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from semimarkov import compare
from semimarkov.compare import (
    MAX_REPLICATES,
    bootstrap_group_fractions,
    compare_transition_matrices,
    kl_divergence,
    symmetric_kl,
    time_fractions,
)
from semimarkov.errors import (
    AlphabetMismatchError,
    EmptyInputError,
    KindMismatchError,
    LengthMismatchError,
    UnsupportedPointError,
)
from semimarkov.fitting import TransitionMatrix
from semimarkov.presets import PATTERNS, failure_model, success_model
from semimarkov.sequences import (
    LabeledSequence,
    RunSequence,
    StateAlphabet,
    build_alphabet,
    decode_runs,
)

AB = build_alphabet(("A", "B"))


def seq(labels, rate=1.0, id=""):
    return LabeledSequence(labels=np.array(labels), sampling_rate_hz=rate, id=id)


# random probability vectors that avoid exact zeros
prob_vectors = st.lists(
    st.floats(0.01, 1.0), min_size=2, max_size=6
).map(lambda ws: tuple(w / sum(ws) for w in ws))


class TestKl:
    def test_identical_is_zero(self):
        assert kl_divergence((0.3, 0.7), (0.3, 0.7)) == 0.0

    def test_hand_value(self):
        assert kl_divergence((1.0, 0.0), (0.5, 0.5)) == pytest.approx(math.log(2), abs=1e-12)

    def test_zero_times_log_zero(self):
        # 0 * ln(0/q) contributes nothing even though q > 0
        assert kl_divergence((0.0, 1.0), (0.5, 0.5)) == pytest.approx(math.log(2), abs=1e-12)

    def test_unsupported_point(self):
        with pytest.raises(UnsupportedPointError):
            kl_divergence((0.5, 0.5), (1.0, 0.0))

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            kl_divergence((0.5, 0.5), (0.2, 0.3, 0.5))


class TestSymmetricKl:
    def test_hand_value(self):
        # (p - q) ln(p/q) summed: 0.4*ln(9)
        got = symmetric_kl((0.5, 0.5), (0.9, 0.1))
        assert got == pytest.approx(0.4 * math.log(9.0), abs=1e-12)
        assert got == pytest.approx(0.8789, abs=1e-4)

    def test_self_is_exactly_zero(self):
        assert symmetric_kl((0.2, 0.3, 0.5), (0.2, 0.3, 0.5)) == 0.0

    @given(prob_vectors, prob_vectors)
    def test_exact_symmetry_and_nonnegative(self, p, q):
        if len(p) != len(q):
            return
        d1 = symmetric_kl(p, q)
        d2 = symmetric_kl(q, p)
        assert d1 == d2  # float addition commutes, so equality is exact
        assert d1 >= 0.0


def tm(rows, kind="semi_markov", alphabet=None):
    rows = np.array(rows, dtype=float)
    n = rows.shape[0]
    alphabet = alphabet or build_alphabet(tuple("ABCDEFG"[:n]))
    return TransitionMatrix(probs=rows, alphabet=alphabet, kind=kind)


class TestCompareMatrices:
    def test_self_comparison_is_zero(self):
        t = success_model().transitions
        rep = compare_transition_matrices(t, t)
        assert rep.aggregate == 0.0
        assert all(v == 0.0 for v in rep.per_row.values())
        assert rep.skipped_rows == ()

    def test_symmetric_in_arguments(self):
        a = success_model().transitions
        b = failure_model().transitions
        r1 = compare_transition_matrices(a, b)
        r2 = compare_transition_matrices(b, a)
        assert r1.per_row == r2.per_row
        assert r1.aggregate == r2.aggregate

    def test_structural_diagonal_dropped_not_smoothed(self):
        # two 2-state semi-Markov matrices are identical off-diagonal by
        # construction, so their divergence is exactly zero
        a = tm([[0.0, 1.0], [1.0, 0.0]])
        rep = compare_transition_matrices(a, a)
        assert rep.aggregate == 0.0

    def test_incidental_zero_smoothed_in_both(self):
        a = tm([[0.0, 1.0, 0.0], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]])
        b = tm([[0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]])
        rep = compare_transition_matrices(a, b)
        assert math.isfinite(rep.per_row["A"])
        assert rep.per_row["A"] > 1.0  # ~ ln(1/eps)-scale, clearly large
        e = 1e-9  # row A off the diagonal: (1, 0) against (0.5, 0.5)
        smoothed = ((1 + e) / (1 + 2 * e), e / (1 + 2 * e))
        assert rep.per_row["A"] == pytest.approx(symmetric_kl(smoothed, (0.5, 0.5)), rel=1e-12)
        assert rep.per_row["B"] == 0.0

    def test_smoothing_continuity(self, monkeypatch):
        a = success_model().transitions
        b = failure_model().transitions
        r1 = compare_transition_matrices(a, b)
        monkeypatch.setattr(compare, "SMOOTHING_EPSILON", 1e-10)
        r2 = compare_transition_matrices(a, b)
        # no true zeros here, so epsilon never engages
        assert abs(r1.aggregate - r2.aggregate) < 1e-3

    def test_absent_rows_skipped(self):
        a = tm([[0.0, 0.6, 0.4], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        b = tm([[0.0, 0.5, 0.5], [1.0, 0.0, 0.0], [0.5, 0.5, 0.0]])
        rep = compare_transition_matrices(a, b)
        assert rep.skipped_rows == ("C",)
        assert set(rep.per_row) == {"A", "B"}
        assert rep.aggregate == pytest.approx(
            (rep.per_row["A"] + rep.per_row["B"]) / 2
        )

    def test_all_rows_skipped(self):
        a = tm([[0.0, 1.0], [0.0, 0.0]])
        b = tm([[0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(EmptyInputError):
            compare_transition_matrices(a, b)

    def test_alphabet_mismatch(self):
        a = tm([[0.0, 1.0], [1.0, 0.0]])
        b = tm([[0.0, 1.0], [1.0, 0.0]], alphabet=build_alphabet(("X", "Y")))
        with pytest.raises(AlphabetMismatchError):
            compare_transition_matrices(a, b)

    def test_alphabets_of_the_same_names_match(self):
        a = tm([[0.0, 1.0], [1.0, 0.0]], alphabet=StateAlphabet(["A", "B"]))
        b = tm([[0.0, 1.0], [1.0, 0.0]], alphabet=build_alphabet(("A", "B")))
        assert compare_transition_matrices(a, b).aggregate == 0.0

    def test_kind_mismatch(self):
        a = tm([[0.0, 1.0], [1.0, 0.0]])
        b = tm([[0.5, 0.5], [0.5, 0.5]], kind="dtmc")
        with pytest.raises(KindMismatchError):
            compare_transition_matrices(a, b)

    def test_dtmc_rows_compared_whole(self):
        # dtmc diagonals carry information and must not be dropped
        a = tm([[0.9, 0.1], [0.2, 0.8]], kind="dtmc")
        b = tm([[0.8, 0.2], [0.2, 0.8]], kind="dtmc")
        rep = compare_transition_matrices(a, b)
        expect = symmetric_kl((0.9, 0.1), (0.8, 0.2))
        assert rep.per_row["A"] == pytest.approx(expect, abs=1e-15)


class TestOccupancy:
    def test_hand_fractions(self):
        assert time_fractions(seq([0, 0, 1, 1]), AB) == {"A": 0.5, "B": 0.5}

    def test_singleton(self):
        assert time_fractions(seq([0]), AB) == {"A": 1.0, "B": 0.0}

    def test_named_fractions_cover_alphabet(self):
        fr = time_fractions(seq([0, 0, 1]), AB)
        assert fr == {"A": pytest.approx(2 / 3), "B": pytest.approx(1 / 3)}
        alpha3 = build_alphabet(("A", "B", "C"))
        fr3 = time_fractions(seq([0, 0, 1]), alpha3)
        assert fr3["C"] == 0.0

    def test_fractions_sum_to_one(self):
        rng = np.random.default_rng(3)
        s = seq(rng.integers(0, 5, size=997))
        alpha5 = build_alphabet(("A", "B", "C", "D", "E"))
        assert sum(time_fractions(s, alpha5).values()) == pytest.approx(1.0, abs=1e-12)

    def test_empty_guard(self):
        with pytest.raises(ValueError):
            seq([])


class TestBootstrap:
    def test_single_patient_has_zero_std(self):
        # every replicate is the same patient; std is zero up to the float
        # summation noise of averaging 50 identical values
        out = bootstrap_group_fractions([seq([0, 1, 1])], 50, seed=9, alphabet=AB)
        assert out["A"][0] == pytest.approx(1 / 3, abs=1e-15)
        assert out["A"][1] == pytest.approx(0.0, abs=1e-12)
        assert out["B"][1] == pytest.approx(0.0, abs=1e-12)

    def test_deterministic(self):
        pats = [seq([0, 1, 0, 0]), seq([1, 1, 0, 1]), seq([0, 0, 0, 1])]
        a = bootstrap_group_fractions(pats, 200, seed=4, alphabet=AB)
        b = bootstrap_group_fractions(pats, 200, seed=4, alphabet=AB)
        assert a == b  # bit-identical

    def test_means_in_unit_interval(self):
        rng = np.random.default_rng(6)
        pats = [seq(rng.integers(0, 2, size=50)) for _ in range(8)]
        out = bootstrap_group_fractions(pats, 100, seed=1, alphabet=AB)
        for mean, std in out.values():
            assert 0.0 <= mean <= 1.0
            assert std >= 0.0

    @pytest.mark.parametrize("patients, n_replicates", [
        # more than 2**53 samples, where numpy's int64 / int64 division rounds
        # both fractions differently from Python's int / int
        ([decode_runs(RunSequence([0, 1], [7, 2**60 + 122], 1.0))], 70_000),
        ([seq([0, 1, 1, 2]), seq([2] * 7 + [0]), seq([1, 0] * 50), seq([2, 1])], 30_000),
    ])
    def test_matches_averaging_time_fractions_rows(self, patients, n_replicates, abc):
        block = compare._BOOTSTRAP_BLOCK // len(patients)
        assert n_replicates > block  # more than one block of draws
        # the bootstrap as first written: time_fractions rows of the patients
        # each replicate draws, from one Generator a block at a time
        per_patient = np.array([list(time_fractions(p, abc).values()) for p in patients])
        rng = np.random.default_rng(11)
        reps = np.concatenate([
            per_patient[rng.integers(0, len(patients), size=(
                min(block, n_replicates - start), len(patients)))].mean(axis=1)
            for start in range(0, n_replicates, block)])
        expected = {name: (float(m), float(s)) for name, m, s
                    in zip(abc.states, reps.mean(axis=0), reps.std(axis=0))}
        assert bootstrap_group_fractions(patients, n_replicates, 11, abc) == expected

    def test_empty(self):
        with pytest.raises(EmptyInputError):
            bootstrap_group_fractions([], 10, seed=0, alphabet=AB)

    @pytest.mark.parametrize("n", [0, -1, 10**13])
    def test_replicate_count_out_of_range(self, n):
        # 10^13 replicates of two fractions would take 146 TiB
        with pytest.raises(ValueError, match=f"n_replicates must be from 1 to {MAX_REPLICATES}"):
            bootstrap_group_fractions([seq([0, 1])], n, seed=0, alphabet=AB)


def test_report_rows_are_read_only_and_round_trip():
    report = compare_transition_matrices(success_model().transitions,
                                         failure_model().transitions)
    with pytest.raises(TypeError):  # the rows would then disagree with the aggregate
        report.per_row["PAU"] = 0.0
    for back in (pickle.loads(pickle.dumps(report)), copy.deepcopy(report)):
        assert back == report
        with pytest.raises(TypeError):
            back.per_row["PAU"] = 0.0
