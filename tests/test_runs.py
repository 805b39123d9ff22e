"""Per-sample meaning of sequences that are stored as runs.

A LabeledSequence keeps only its runs, so these tests compare each run-level
operation with an oracle computed on the expanded ``labels`` array, and run
the fits on a sequence far too long to expand.
"""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from semimarkov.compare import time_fractions
from semimarkov.fitting import fit_dtmc, fit_multi_chain, fit_semi_markov
from semimarkov.sequences import (
    LabeledSequence,
    RunSequence,
    build_alphabet,
    decode_runs,
    durations_by_state,
    encode_runs,
    split_at_time,
)

ABCD = build_alphabet(("A", "B", "C", "D"))

# labels with long runs and unused indices, so gaps in the support show up
label_lists = st.lists(
    st.tuples(st.integers(0, 3), st.integers(1, 5)), min_size=1, max_size=30
).map(lambda pairs: [s for s, d in pairs for _ in range(d)])


@given(label_lists, st.sampled_from([1.0, 2.0, 50.0]))
def test_time_fractions_match_bincount_oracle(labels, rate):
    s = LabeledSequence(labels=labels, sampling_rate_hz=rate)
    counts = np.bincount(s.labels, minlength=len(ABCD)).tolist()
    n = len(labels)
    assert time_fractions(s, ABCD) == {
        name: c / n for name, c in zip(ABCD.states, counts)
    }


@st.composite
def cut_sequences(draw):
    labels = draw(label_lists.filter(lambda ls: len(ls) >= 4))
    rate = draw(st.sampled_from([1.0, 2.0, 50.0]))
    k = draw(st.integers(1, min(3, len(labels) - 1)))
    idx = sorted(draw(st.sets(st.integers(1, len(labels) - 1), min_size=k, max_size=k)))
    # a time up to half a sample before index i still starts at sample i
    back = draw(st.lists(st.floats(0.0, 0.5), min_size=k, max_size=k))
    return labels, rate, idx, [(i - b) / rate for i, b in zip(idx, back)]


@given(cut_sequences())
# a cut on a run end, and two cuts inside one run
@example(([0, 0, 1, 1, 1, 2], 1.0, [2, 3, 4], [2.0, 2.5, 4.0]))
def test_split_matches_slicing_the_labels(case):
    labels, rate, idx, cuts = case
    s = LabeledSequence(labels=labels, sampling_rate_hz=rate, id="p3")
    parts = split_at_time(s, cuts)
    edges = [0] + idx + [len(labels)]
    assert [p.labels.tolist() for p in parts] == [
        labels[a:b] for a, b in zip(edges, edges[1:])
    ]
    for part, a, b in zip(parts, edges, edges[1:]):
        sliced = encode_runs(LabeledSequence(labels=labels[a:b], sampling_rate_hz=rate))
        assert encode_runs(part).runs == sliced.runs
        assert (part.id, part.sampling_rate_hz, len(part)) == ("p3", rate, b - a)


def test_decode_and_encode_share_the_runs():
    runs = RunSequence(states=[0, 1, 0], durations=[2, 1, 3], sampling_rate_hz=2.0)
    s = decode_runs(runs)
    assert encode_runs(s) is runs
    assert (len(s), s.duration_s, s.labels.tolist()) == (6, 3.0, [0, 0, 1, 0, 0, 0])


def test_labels_are_rebuilt_read_only_on_each_access():
    s = LabeledSequence(labels=[1, 1, 0], sampling_rate_hz=1.0)
    first = s.labels
    assert first is not s.labels and not first.flags.writeable
    with pytest.raises(AttributeError):
        s.labels = np.array([0, 0, 0])


HALF = 5 * 10**11


@pytest.fixture
def huge():
    """10^12 samples in two runs: 7.3 TiB if expanded to int64 labels."""
    runs = RunSequence(states=[0, 1], durations=[HALF] * 2, sampling_rate_hz=1.0)
    return decode_runs(runs)


def test_fits_on_10_to_the_12_samples(huge):
    ab = build_alphabet(("A", "B"))
    _, counts = fit_dtmc([huge], ab)
    assert counts.counts.tolist() == [[HALF - 1, 1], [0, HALF - 1]]
    model = fit_semi_markov([huge], ab)
    assert model.dwell["A"].params == {"mu": float(HALF)}
    assert model.metadata["sample_counts"] == {"A": 1, "B": 1}
    assert time_fractions(huge, ab) == {"A": 0.5, "B": 0.5}
    four = decode_runs(RunSequence([0, 1, 0, 1], [HALF // 2] * 4, 1.0))
    mc = fit_multi_chain([four], 2, ab)
    assert [seg.metadata["sample_counts"] for seg in mc.segments] == [
        {"A": 1, "B": 1}
    ] * 2


def test_split_and_upsample_on_10_to_the_12_samples(huge):
    parts = split_at_time(huge, [1e11, 6e11])
    assert [encode_runs(p).runs for p in parts] == [
        [(0, 10**11)],
        [(0, 4 * 10**11), (1, 10**11)],
        [(1, 4 * 10**11)],
    ]
    r = encode_runs(huge)
    up = RunSequence(r.states, r.durations * 3, r.sampling_rate_hz * 3, r.id)
    assert (len(decode_runs(up)), up.sampling_rate_hz) == (3 * 10**12, 3.0)
    # at three times the rate both runs still last HALF seconds
    table = durations_by_state([up])
    assert {s: (v.tolist(), c.tolist()) for s, (v, c) in table.items()} == {
        0: ([float(HALF)], [1]), 1: ([float(HALF)], [1])}
