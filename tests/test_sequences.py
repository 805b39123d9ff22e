import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from semimarkov.errors import (
    BoundaryOutOfRangeError,
    DuplicateStateError,
    EmptyInputError,
    TooFewStatesError,
)
from semimarkov.sequences import (
    LabeledSequence,
    RunSequence,
    StateAlphabet,
    build_alphabet,
    decode_runs,
    durations_by_state,
    encode_runs,
    split_at_time,
)

label_arrays = st.lists(st.integers(0, 2), min_size=1, max_size=60)


def seq(labels, rate=1.0, id=""):
    return LabeledSequence(labels=np.array(labels), sampling_rate_hz=rate, id=id)


class TestAlphabet:
    def test_order_and_lookup(self):
        a = build_alphabet(("PAU", "ASB", "MVT"))
        assert a.index("ASB") == 1
        assert a.name(2) == "MVT"
        assert "PAU" in a and "XYZ" not in a
        assert len(a) == 3

    def test_duplicates_rejected(self):
        with pytest.raises(DuplicateStateError):
            build_alphabet(("A", "B", "A"))

    def test_too_few_states(self):
        with pytest.raises(TooFewStatesError):
            build_alphabet(("A",))

    def test_unknown_name(self):
        a = build_alphabet(("A", "B"))
        with pytest.raises(KeyError):
            a.index("Q")

    def test_a_list_of_names_is_kept_as_a_tuple(self):
        names = ["A", "B"]
        a = StateAlphabet(names)
        assert a.states == ("A", "B")
        assert a == build_alphabet(["A", "B"]) == build_alphabet(("A", "B"))
        assert hash(a) == hash(build_alphabet(("A", "B")))
        names.append("A")  # the alphabet holds its own copy of what it checked
        assert a.states == ("A", "B")


class TestLabeledSequence:
    def test_labels_read_only(self):
        s = seq([0, 1, 0])
        with pytest.raises(ValueError):
            s.labels[0] = 2

    def test_duration(self):
        assert seq([0, 1, 0, 1], rate=2.0).duration_s == 2.0

    def test_single_sample_allowed(self):
        # fitting rejects these, the container does not
        assert len(seq([1])) == 1

    def test_negative_labels_rejected(self):
        with pytest.raises(ValueError):
            seq([0, -1])

    @pytest.mark.parametrize("labels, bad", [([0.4, 0.6, 1.2], "0.4"), ([0, 1, math.nan], "nan"),
                                             (["0", "1"], "'0'")])
    def test_non_integer_labels_rejected(self, labels, bad):
        with pytest.raises(ValueError, match=f"^labels must be integers, got {bad}$"):
            LabeledSequence(labels, 1.0)

    def test_bad_rate(self):
        for rate in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="finite and positive"):
                seq([0, 1], rate=rate)


class TestRunEncoding:
    def test_hand_example(self):
        r = encode_runs(seq([0, 0, 1, 1, 1, 0], rate=2.0))
        assert r.runs == [(0, 2), (1, 3), (0, 1)]
        assert r.total_samples == 6

    def test_adjacent_equal_states_rejected(self):
        with pytest.raises(ValueError):
            RunSequence(
                states=np.array([0, 0]),
                durations=np.array([1, 2]),
                sampling_rate_hz=1.0,
            )

    @pytest.mark.parametrize(
        "states, durations, message",
        [([[0, 1]], [[1, 1]], "one-dimensional"), ([0, 1, 0], [1, 1], "equal length"),
         ([], [], "at least one run"),
         # a value the int64 cast would change; NaN and infinity are refused
         # without numpy's cast RuntimeWarning, which the test settings make an error
         ([0, 1], [1.7, 2.9], "durations must be integers, got 1.7"),
         ([0.2, 1.9], [1, 2], "states must be integers, got 0.2"),
         ([0, 1], ["2", "3"], "durations must be integers, got '2'"),
         ([0, 1], [3, math.nan], "durations must be integers, got nan"),
         ([0, 1], [math.inf, 3], "durations must be integers, got inf"),
         ([0, 1], [2.0**63, 3], "durations must be integers, got 9.223372036854776e+18")],
        ids=["2-D", "ragged", "empty", "fraction", "fractional-state", "string", "nan", "inf",
             "past-int64"],
    )
    def test_malformed_runs_rejected(self, states, durations, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            RunSequence(states=states, durations=durations, sampling_rate_hz=1.0)

    def test_integral_floats_and_numpy_integers_pass(self):
        r = RunSequence(states=[np.int16(0), 1.0], durations=np.array([2.0, 3.0]),
                        sampling_rate_hz=1.0)
        assert r.runs == [(0, 2), (1, 3)]
        assert r.states.dtype == r.durations.dtype == np.int64

    def test_zero_duration_rejected(self):
        with pytest.raises(ValueError):
            RunSequence(
                states=np.array([0, 1]),
                durations=np.array([1, 0]),
                sampling_rate_hz=1.0,
            )

    def test_total_that_wraps_int64_rejected(self):
        with pytest.raises(ValueError, match="fewer than 2\\*\\*63 samples"):
            RunSequence(states=[0, 1], durations=[2**62, 2**62], sampling_rate_hz=1.0)
        top = RunSequence(states=[0, 1], durations=[2**62, 2**62 - 1], sampling_rate_hz=1.0)
        assert top.total_samples == 2**63 - 1

    @given(label_arrays)
    def test_roundtrip(self, labels):
        s = seq(labels, rate=2.0, id="p0")
        back = decode_runs(encode_runs(s))
        assert np.array_equal(back.labels, s.labels)
        assert back.sampling_rate_hz == s.sampling_rate_hz
        assert back.id == s.id

    @given(label_arrays)
    def test_runs_are_maximal(self, labels):
        r = encode_runs(seq(labels))
        assert np.all(r.states[1:] != r.states[:-1])
        assert r.total_samples == len(labels)

    def test_durations_by_state(self):
        r = encode_runs(seq([0, 0, 1, 0], rate=2.0))
        table = durations_by_state([r])
        assert list(table) == [0, 1]
        assert table[0][0].tolist() == [0.5, 1.0] and table[0][1].tolist() == [1, 1]
        assert table[1][0].tolist() == [0.5] and table[1][1].tolist() == [1]
        assert table[0][1].dtype == np.int64


def assert_tables_equal(a, b):
    assert list(a) == list(b)
    for state, (values, counts) in a.items():
        assert np.array_equal(b[state][0], values)
        assert np.array_equal(b[state][1], counts)


class TestDwellTable:
    def oracle(self, runs_list):
        """np.unique of every run's duration in seconds, state by state."""
        states = np.concatenate([r.states for r in runs_list])
        seconds = np.array(
            [d / r.sampling_rate_hz for r in runs_list for d in r.durations.tolist()]
        )
        return {
            int(s): np.unique(seconds[states == s], return_counts=True)
            for s in np.unique(states)
        }

    def test_mixed_rates_merge_equal_seconds(self):
        # one sample at 1 Hz and two samples at 2 Hz both last 1 s
        runs_list = [
            encode_runs(seq([0, 1, 1], rate=1.0)),
            encode_runs(seq([0, 0, 2, 1], rate=2.0)),
        ]
        table = durations_by_state(runs_list)
        assert table[0][0].tolist() == [1.0] and table[0][1].tolist() == [2]
        assert table[1][0].tolist() == [0.5, 2.0] and table[1][1].tolist() == [1, 1]
        assert_tables_equal(table, self.oracle(runs_list))

    @given(
        st.lists(
            st.tuples(label_arrays, st.sampled_from([1.0, 2.0, 3.0, 50.0, 0.1])),
            min_size=1,
            max_size=6,
        ),
        st.permutations([0, 1, 2, 300, 70_000]),
    )
    def test_matches_oracle(self, recordings, indices):
        # labels 0..2 name three of these state indices, so the runs are
        # grouped on uint8, uint16 and uint32 sort keys
        runs_list = [encode_runs(seq(np.take(indices, labels), rate))
                     for labels, rate in recordings]
        assert_tables_equal(durations_by_state(runs_list), self.oracle(runs_list))

    def test_cost_does_not_grow_with_the_largest_index(self):
        # a counter per index up to 2**32 would ask for 32 GiB
        runs_list = [RunSequence([0, 2**32], [1, 2], 1.0)]
        table = durations_by_state(runs_list)
        assert list(table) == [0, 2**32]
        assert_tables_equal(table, self.oracle(runs_list))

    def test_no_runs(self):
        with pytest.raises(EmptyInputError, match="no run sequences supplied"):
            durations_by_state([])


class TestSplit:
    def test_boundary_sample_goes_right(self):
        # sample at t=2.0 starts the second segment: [0,2) | [2,4)
        parts = split_at_time(seq([0, 0, 1, 1], rate=1.0), [2.0])
        assert [p.labels.tolist() for p in parts] == [[0, 0], [1, 1]]

    def test_mid_run_cut(self):
        parts = split_at_time(seq([0, 0, 0, 0], rate=1.0), [1.0, 3.0])
        assert [len(p) for p in parts] == [1, 2, 1]

    def test_snap_tolerance(self):
        # 1.9999999999 s at 1 Hz is within 1e-9 samples of index 2
        parts = split_at_time(seq([0, 0, 1, 1], rate=1.0), [2.0 - 1e-10])
        assert [len(p) for p in parts] == [2, 2]

    def test_fractional_boundary_rounds_up(self):
        parts = split_at_time(seq([0, 1, 0, 1], rate=1.0), [0.5])
        assert [len(p) for p in parts] == [1, 3]

    def test_out_of_range(self):
        with pytest.raises(BoundaryOutOfRangeError):
            split_at_time(seq([0, 1], rate=1.0), [2.0])
        with pytest.raises(BoundaryOutOfRangeError):
            split_at_time(seq([0, 1], rate=1.0), [0.0])

    def test_non_increasing(self):
        with pytest.raises(BoundaryOutOfRangeError):
            split_at_time(seq([0, 1, 0, 1], rate=1.0), [2.0, 2.0])

    def test_empty_segment(self):
        with pytest.raises(BoundaryOutOfRangeError):
            split_at_time(seq([0, 1, 0, 1], rate=1.0), [1.2, 1.4])

    def test_segments_keep_id_and_rate(self):
        parts = split_at_time(seq([0, 1, 0, 1], rate=4.0, id="p7"), [0.5])
        assert all(p.id == "p7" and p.sampling_rate_hz == 4.0 for p in parts)

    @given(label_arrays.filter(lambda ls: len(ls) >= 4))
    def test_concatenation_identity(self, labels):
        s = seq(labels, rate=2.0)
        cut = s.duration_s / 2
        parts = split_at_time(s, [cut])
        glued = np.concatenate([p.labels for p in parts])
        assert np.array_equal(glued, s.labels)


class TestUpsample:
    """Runs of k times the samples at k times the rate, as the rate-invariance
    tests build them."""

    @given(label_arrays, st.sampled_from([2, 3, 5]))
    def test_run_seconds_unchanged(self, labels, k):
        r = encode_runs(seq(labels, rate=2.0))
        up = RunSequence(r.states, r.durations * k, r.sampling_rate_hz * k, r.id)
        a = durations_by_state([r])
        b = durations_by_state([up])
        assert_tables_equal(a, b)  # exact float equality: k*d / (k*rate) must cancel
