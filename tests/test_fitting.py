import copy
import itertools
import json
import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from semimarkov.dwell import EXPONENTIAL, DwellFit
from semimarkov.errors import (
    EmptyInputError,
    MixedSamplingRatesError,
    NoTransitionsError,
    SegmentTooShortError,
    SequenceTooShortError,
)
from semimarkov.fitting import (
    MultiChainModel,
    SemiMarkovModel,
    TransitionCounts,
    TransitionMatrix,
    fit_dtmc,
    fit_multi_chain,
    fit_semi_markov,
    fit_semi_markov_transitions,
)
from semimarkov.io import document_to_dict, read_model_json, write_model_json
from semimarkov.presets import PATTERNS, success_model
from semimarkov.sequences import (
    LabeledSequence,
    RunSequence,
    build_alphabet,
    encode_runs,
)

AB = build_alphabet(("A", "B"))


def seq(labels, rate=1.0, id=""):
    return LabeledSequence(labels=np.array(labels), sampling_rate_hz=rate, id=id)


def runs_of(states, durations, rate=1.0):
    return RunSequence(
        states=np.array(states), durations=np.array(durations), sampling_rate_hz=rate
    )


class TestDtmc:
    def test_hand_counts(self):
        tm, counts = fit_dtmc([seq([0, 0, 1, 1, 0])], AB)
        assert counts.counts.tolist() == [[1, 1], [1, 1]]
        assert tm.probs.tolist() == [[0.5, 0.5], [0.5, 0.5]]
        assert tm.row_fitted.all()

    def test_absent_row(self):
        tm, _ = fit_dtmc([seq([0, 0, 0, 0])], AB)
        assert tm.probs[0].tolist() == [1.0, 0.0]
        assert tm.row_fitted.tolist() == [True, False]

    def test_no_cross_sequence_transitions(self):
        tm, counts = fit_dtmc([seq([0, 1]), seq([1, 0])], AB)
        assert counts.counts.tolist() == [[0, 1], [1, 0]]
        assert tm.probs.tolist() == [[0.0, 1.0], [1.0, 0.0]]

    def test_too_short(self):
        with pytest.raises(SequenceTooShortError):
            fit_dtmc([seq([0])], AB)

    def test_empty(self):
        with pytest.raises(EmptyInputError):
            fit_dtmc([], AB)

    def test_mixed_rates(self):
        with pytest.raises(MixedSamplingRatesError):
            fit_dtmc([seq([0, 1], rate=1.0), seq([0, 1], rate=2.0)], AB)

    @given(st.lists(st.lists(st.integers(0, 2), min_size=2, max_size=30), min_size=1, max_size=5))
    def test_count_conservation(self, groups):
        alpha = build_alphabet(("A", "B", "C"))
        seqs = [seq(g) for g in groups]
        tm, counts = fit_dtmc(seqs, alpha)
        assert counts.total == sum(len(g) - 1 for g in groups)
        sums = tm.probs.sum(axis=1)
        for i in range(3):
            if tm.row_fitted[i]:
                assert abs(sums[i] - 1.0) <= 1e-12
            else:
                assert sums[i] == 0.0


class TestSemiMarkovTransitions:
    def test_hand_example(self):
        alpha = build_alphabet(("A", "B", "C"))
        r = runs_of([0, 1, 0, 2], [3, 2, 2, 1])
        tm = fit_semi_markov_transitions([r], alpha)
        assert tm.probs[0].tolist() == [0.0, 0.5, 0.5]
        assert tm.probs[1].tolist() == [1.0, 0.0, 0.0]
        assert not tm.row_fitted[2]  # C is terminal: no outgoing transition

    def test_single_run_is_degenerate(self):
        with pytest.raises(NoTransitionsError):
            fit_semi_markov_transitions([runs_of([0], [5])], AB)

    def test_diagonal_is_structurally_zero(self):
        r = encode_runs(seq([0, 0, 1, 0, 1, 1, 0]))
        tm = fit_semi_markov_transitions([r], AB)
        assert np.all(np.diag(tm.probs) == 0.0)
        assert tm.kind == "semi_markov"

    @given(st.lists(st.integers(0, 2), min_size=2, max_size=80))
    def test_row_stochastic(self, labels):
        alpha = build_alphabet(("A", "B", "C"))
        try:
            tm = fit_semi_markov_transitions([encode_runs(seq(labels))], alpha)
        except NoTransitionsError:
            return
        sums = tm.probs.sum(axis=1)
        assert np.all(np.abs(sums[tm.row_fitted] - 1.0) <= 1e-12)
        assert np.all(np.diag(tm.probs) == 0.0)

    @given(
        st.lists(st.integers(0, 2), min_size=2, max_size=60),
        st.sampled_from([2, 3, 5]),
    )
    def test_upsampling_invariance(self, labels, k):
        alpha = build_alphabet(("A", "B", "C"))
        s = seq(labels, rate=2.0)
        try:
            base = fit_semi_markov_transitions([encode_runs(s)], alpha)
        except NoTransitionsError:
            return
        r = encode_runs(s)
        up_runs = RunSequence(r.states, r.durations * k, r.sampling_rate_hz * k, r.id)
        up = fit_semi_markov_transitions([up_runs], alpha)
        assert np.array_equal(base.probs, up.probs)  # bit-identical


WIDE = build_alphabet(tuple(f"S{i}" for i in range(300)))

# 1 Hz recordings over 300 states, as runs of one to three samples; one-run
# recordings are among them
wide_recordings = st.lists(
    st.lists(st.tuples(st.integers(0, 299), st.integers(1, 3)), min_size=1, max_size=12)
    .map(lambda pairs: [s for s, d in pairs for _ in range(d)])
    .filter(lambda labels: len(labels) >= 2),
    min_size=1,
    max_size=5,
)


@given(wide_recordings)
@example([[7, 7], [299, 0, 0, 256, 256]])
@example([[299, 299, 299]])
def test_counts_match_add_at_oracle(recordings):
    """Both fits count exactly what np.add.at counts: per-sample pairs for
    the DTMC, pairs of consecutive runs for the semi-Markov transitions."""
    per_sample = np.zeros((len(WIDE), len(WIDE)), dtype=np.int64)
    run_pairs = np.zeros_like(per_sample)
    for labels in recordings:
        np.add.at(per_sample, (labels[:-1], labels[1:]), 1)
        states = [s for s, _ in itertools.groupby(labels)]
        np.add.at(run_pairs, (states[:-1], states[1:]), 1)
    seqs = [seq(labels) for labels in recordings]
    assert np.array_equal(fit_dtmc(seqs, WIDE)[1].counts, per_sample)
    runs_list = [encode_runs(s) for s in seqs]
    if not run_pairs.any():
        with pytest.raises(NoTransitionsError):
            fit_semi_markov_transitions(runs_list, WIDE)
        return
    expected = TransitionMatrix.from_probabilities(run_pairs, WIDE)
    assert np.array_equal(fit_semi_markov_transitions(runs_list, WIDE).probs, expected.probs)


class TestTransitionMatrixType:
    def test_fitted_row_must_sum_to_one(self):
        with pytest.raises(ValueError):
            TransitionMatrix(
                probs=np.array([[0.5, 0.4], [0.0, 0.0]]),
                alphabet=AB,
                kind="dtmc",
            )

    def test_row_fitted_is_true_exactly_for_rows_with_mass(self):
        alpha = build_alphabet(("A", "B", "C"))
        tm = TransitionMatrix(
            probs=np.array([[0.0, 0.5, 0.5], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
            alphabet=alpha,
            kind="semi_markov",
        )
        assert tm.row_fitted.tolist() == [True, False, True]
        with pytest.raises(ValueError):  # read-only, like probs
            tm.row_fitted[1] = True
        with pytest.raises(TypeError):  # derived, never passed in
            TransitionMatrix(probs=tm.probs, alphabet=alpha, kind="semi_markov",
                             row_fitted=[True, True, True])

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind must be"):
            TransitionMatrix(probs=np.array([[0.0, 1.0], [1.0, 0.0]]), alphabet=AB,
                             kind="hmm")

    @pytest.mark.parametrize("rows", [[(0.0, 1.0)], [(0.0, 1.0, 0.0), (1.0, 0.0, 0.0)]])
    def test_from_probabilities_wrong_shape_rejected(self, rows):
        with pytest.raises(ValueError, match="rows must be 2x2"):
            TransitionMatrix.from_probabilities(rows, AB)

    def test_from_probabilities_negative_weight_rejected(self):
        # the row sums to 1 already, so only the sign check names the fault
        with pytest.raises(ValueError, match="non-negative"):
            TransitionMatrix.from_probabilities([(0.0, 1.0), (-1.0, 2.0)], AB,
                                                kind="dtmc")

    def test_semi_markov_diagonal_enforced(self):
        with pytest.raises(ValueError):
            TransitionMatrix(
                probs=np.array([[0.1, 0.9], [1.0, 0.0]]),
                alphabet=AB,
                kind="semi_markov",
            )

    def test_from_probabilities_renormalizes(self):
        # rows rounded to two decimals may sum to 1.01; construction rescales
        alpha = build_alphabet(("A", "B", "C"))
        tm = TransitionMatrix.from_probabilities(
            [(0.0, 0.32, 0.69), (0.5, 0.0, 0.5), (1.0, 0.0, 0.0)], alpha
        )
        assert tm.probs.sum(axis=1) == pytest.approx([1.0, 1.0, 1.0], abs=1e-15)
        assert tm.probs[0, 1] == pytest.approx(0.32 / 1.01)

    def test_counts_validation(self):
        with pytest.raises(ValueError):
            TransitionCounts(counts=np.array([[1, -1], [0, 0]]), alphabet=AB)

    def test_nan_probability_rejected(self):
        # NaN fails no comparison, so range and row-sum checks alone let it in
        with pytest.raises(ValueError):
            TransitionMatrix(
                probs=np.array([[0.0, np.nan], [1.0, 0.0]]),
                alphabet=AB,
                kind="semi_markov",
            )


class TestSemiMarkovModel:
    def test_fit_produces_named_dwells(self):
        rng = np.random.default_rng(42)
        labels = rng.integers(0, 2, size=400)
        model = fit_semi_markov([seq(labels, rate=2.0)], AB)
        assert set(model.dwell) <= {"A", "B"}
        assert model.metadata["sample_counts"]["A"] > 0
        assert model.transitions.kind == "semi_markov"

    def test_mixed_rates_allowed(self):
        # run-level structure is rate-invariant, so pooling across rates is fine
        a = seq([0, 1, 0, 1], rate=1.0)
        b = seq([0, 0, 1, 1, 0, 0], rate=2.0)
        model = fit_semi_markov([a, b], AB)
        assert model.transitions.row_fitted.all()

    def test_single_run_sequences_degenerate(self):
        with pytest.raises(NoTransitionsError):
            fit_semi_markov([seq([0, 0, 0])], AB)

    def test_dtmc_kind_carries_no_dwell_fits(self):
        tm, _ = fit_dtmc([seq([0, 1, 0])], AB)
        assert SemiMarkovModel(transitions=tm, dwell={}).dwell == {}
        with pytest.raises(ValueError, match="dtmc transition matrix carries no dwell"):
            SemiMarkovModel(transitions=tm, dwell={"A": DwellFit(EXPONENTIAL, {"mu": 1.0})})

    def test_dwell_state_outside_the_alphabet(self):
        tm = TransitionMatrix.from_probabilities([(0.0, 1.0), (1.0, 0.0)], AB)
        fit = DwellFit(EXPONENTIAL, {"mu": 1.0})
        with pytest.raises(ValueError, match=r"dwell states \['C', 'D'\] not in alphabet"):
            SemiMarkovModel(transitions=tm, dwell={"A": fit, "D": fit, "C": fit})

    def test_dwell_map_is_read_only(self):
        m = success_model()
        with pytest.raises(TypeError):
            m.dwell["XYZ"] = m.dwell["PAU"]
        with pytest.raises(TypeError):
            del m.dwell["PAU"]
        assert list(m.dwell) == list(PATTERNS.states)

    def test_dwell_map_is_copied_when_built(self):
        tm = TransitionMatrix.from_probabilities([(0.0, 1.0), (1.0, 0.0)], AB)
        fits = {"A": DwellFit(EXPONENTIAL, {"mu": 1.0})}
        m = SemiMarkovModel(transitions=tm, dwell=fits)
        fits["XYZ"] = fits["A"]  # changing the caller's dict changes no model
        assert list(m.dwell) == ["A"]

    def test_model_pickles(self):
        m = success_model()
        back = pickle.loads(pickle.dumps(m))
        assert document_to_dict(back) == document_to_dict(m)
        with pytest.raises(TypeError):
            back.dwell["XYZ"] = back.dwell["PAU"]
        with pytest.raises(TypeError):
            back.metadata["x"] = 1

    @pytest.mark.parametrize("round_trip", [lambda x: pickle.loads(pickle.dumps(x)),
                                            copy.deepcopy], ids=["pickle", "deepcopy"])
    def test_fitted_model_and_its_fits_round_trip(self, round_trip):
        m = fit_semi_markov([seq([0, 0, 1, 1, 1, 0, 0, 1] * 3)], AB)
        back = round_trip(m)
        assert document_to_dict(back) == document_to_dict(m)
        for name, fit in m.dwell.items():
            assert round_trip(fit) == fit == back.dwell[name]
            with pytest.raises(TypeError):
                back.dwell[name].params["mu"] = 1.0
        with pytest.raises(TypeError):
            back.dwell["A"] = back.dwell["B"]

    @pytest.mark.parametrize("round_trip", [lambda x: pickle.loads(pickle.dumps(x)),
                                            copy.deepcopy], ids=["pickle", "deepcopy"])
    def test_arrays_stay_read_only_through_pickle_and_copy(self, round_trip):
        labels = [0, 0, 1, 1, 1, 0, 0, 1] * 3
        fitted = fit_semi_markov([seq(labels)], AB)
        multi = fit_multi_chain([seq(labels * 2)], 2, AB)
        _, counts = fit_dtmc([seq(labels)], AB)
        runs = RunSequence([0, 1], [2, 3], 1.0, "r")
        back_fitted, back_multi, back_counts, back_runs, back_seq = map(
            round_trip, (fitted, multi, counts, runs, seq(labels)))
        assert document_to_dict(back_fitted) == document_to_dict(fitted)
        assert back_runs.runs == runs.runs and back_runs.id == "r"
        assert back_counts.counts.tolist() == counts.counts.tolist()
        arrays = [back_fitted.transitions.probs, back_fitted.transitions.row_fitted,
                  back_counts.counts, back_runs.states, back_runs.durations,
                  encode_runs(back_seq).durations]
        for segment in back_multi.segments:
            arrays += [segment.transitions.probs, segment.transitions.row_fitted]
        for arr in arrays:
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = arr[-1]

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), [1.0, -float("inf")],
                                       {"y": float("nan")}],
                             ids=["nan", "inf", "list-minus-inf", "nested-nan"])
    def test_metadata_a_model_file_cannot_hold_is_refused(self, value):
        tm = TransitionMatrix.from_probabilities([(0.0, 1.0), (1.0, 0.0)], AB)
        with pytest.raises(ValueError, match="metadata must not hold NaN or an infinity"):
            SemiMarkovModel(tm, {}, {"x": value})

    def test_metadata_is_read_only_and_copied_when_built(self, tmp_path):
        tm = TransitionMatrix.from_probabilities([(0.0, 1.0), (1.0, 0.0)], AB)
        metadata = {"cohort": "a"}
        m = SemiMarkovModel(tm, {}, metadata)
        metadata["x"] = float("nan")  # changing the caller's dict changes no model
        fitted = fit_semi_markov([seq([0, 0, 1, 1, 1, 0, 0, 1])], AB)
        for model in (m, fitted):
            with pytest.raises(TypeError):
                model.metadata["x"] = float("nan")
            write_model_json(model, tmp_path / "m.json")  # so the model still writes
        assert dict(m.metadata) == {"cohort": "a"}

    def test_nested_metadata_is_read_only(self, tmp_path):
        fitted = fit_semi_markov([seq([0, 0, 1, 1, 1, 0, 0, 1])], AB)
        with pytest.raises(TypeError):
            fitted.metadata["sample_counts"]["A"] = float("nan")
        tm = TransitionMatrix.from_probabilities([(0.0, 1.0), (1.0, 0.0)], AB)
        nested = {"runs": {"A": [1, 2]}}
        m = SemiMarkovModel(tm, {}, nested)
        nested["runs"]["A"].append(float("nan"))  # changes the caller's copy only
        with pytest.raises(AttributeError):
            m.metadata["runs"]["A"].append(float("nan"))
        for model in (m, fitted, pickle.loads(pickle.dumps(fitted))):
            write_model_json(model, tmp_path / "m.json")
            assert read_model_json(tmp_path / "m.json").plain_metadata() == (
                model.plain_metadata())
        assert m.plain_metadata() == {"runs": {"A": [1, 2]}}
        # still JSON to a plain json.dumps, at every depth
        assert json.loads(json.dumps(fitted.metadata)) == fitted.plain_metadata()


def flip_flop(alphabet=AB):
    """A two-state semi-Markov model that alternates between its states."""
    tm = TransitionMatrix.from_probabilities([(0.0, 1.0), (1.0, 0.0)], alphabet)
    fit = DwellFit(EXPONENTIAL, {"mu": 1.0})
    return SemiMarkovModel(tm, dict.fromkeys(alphabet.states, fit))


class TestMultiChainModelType:
    def test_needs_a_segment(self):
        with pytest.raises(ValueError, match="at least one segment"):
            MultiChainModel(segments=(), boundaries=())

    @pytest.mark.parametrize("boundary", [0.0, -5.0, math.nan, math.inf])
    def test_boundaries_are_positive_times(self, boundary):
        m = flip_flop()
        with pytest.raises(ValueError, match="positive times"):
            MultiChainModel(segments=(m, m), boundaries=(boundary,))

    def test_segments_share_one_alphabet(self):
        other = flip_flop(build_alphabet(("X", "Y")))
        with pytest.raises(ValueError, match="share one alphabet"):
            MultiChainModel(segments=(flip_flop(), other), boundaries=(5.0,))


class TestMultiChain:
    def test_two_segments(self):
        rng = np.random.default_rng(1)
        seqs = [seq(rng.integers(0, 2, size=200), rate=1.0) for _ in range(4)]
        mc = fit_multi_chain(seqs, 2, AB)
        assert len(mc.segments) == 2
        assert mc.boundaries == (100.0,)
        assert mc.segments[0].metadata["segment_index"] == 1
        assert mc.segments[1].metadata["segment_index"] == 2

    def test_segment_lookup(self):
        rng = np.random.default_rng(2)
        seqs = [seq(rng.integers(0, 2, size=300)) for _ in range(3)]
        mc = fit_multi_chain(seqs, 3, AB)
        assert mc.segment_at(0.0) == 0
        assert mc.segment_at(99.9) == 0
        assert mc.segment_at(100.0) == 1  # boundary belongs to the later segment
        assert mc.segment_at(250.0) == 2
        assert mc.segment_at(1e9) == 2

    def test_one_segment_rejected(self):
        with pytest.raises(ValueError):
            fit_multi_chain([seq([0, 1, 0, 1])], 1, AB)

    def test_too_short_to_split(self):
        with pytest.raises(SegmentTooShortError):
            fit_multi_chain([seq([0])], 2, AB)

    def test_segments_fit_their_own_data(self):
        # first half alternates quickly, second half dwells long: the two
        # segment models must differ in the direction built in
        labels = [0, 1] * 50 + [0] * 25 + [1] * 25 + [0] * 25 + [1] * 25
        mc = fit_multi_chain([seq(labels)] * 3, 2, AB)
        d0 = mc.segments[0].dwell["A"].params
        d1 = mc.segments[1].dwell["A"].params
        assert d1["mu"] > d0["mu"] * 5
