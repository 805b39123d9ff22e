import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import semimarkov.simulate as simulate_mod
from semimarkov.dwell import EXPONENTIAL, DwellFit, cdf
from semimarkov.errors import (
    InvalidInitialStateError,
    KindMismatchError,
    UnreachableAbsentRowError,
)
from semimarkov.fitting import MultiChainModel, SemiMarkovModel, TransitionMatrix
from semimarkov.presets import failure_model, success_model
from semimarkov.sequences import build_alphabet
from semimarkov.simulate import (
    SimulationConfig,
    simulate_cohort,
    simulate_sequence,
)

AB = build_alphabet(("A", "B"))


def two_state_model(mu_a=1.0, mu_b=1.0):
    return SemiMarkovModel(
        transitions=TransitionMatrix.from_probabilities(
            [(0.0, 1.0), (1.0, 0.0)], AB
        ),
        dwell={
            "A": DwellFit(EXPONENTIAL, {"mu": mu_a}),
            "B": DwellFit(EXPONENTIAL, {"mu": mu_b}),
        },
    )


def cohort_digest(cohort):
    """SHA-256 over each sequence's id, states and durations, in order."""
    h = hashlib.sha256()
    for runs in cohort:
        h.update(runs.id.encode())
        h.update(np.asarray(runs.states, dtype="<i8").tobytes())
        h.update(np.asarray(runs.durations, dtype="<i8").tobytes())
    return h.hexdigest()


def runs_equal(a, b):
    return (
        np.array_equal(a.states, b.states)
        and np.array_equal(a.durations, b.durations)
        and a.sampling_rate_hz == b.sampling_rate_hz
    )


@pytest.mark.parametrize(
    "duration_s, rate_hz",
    [
        (math.inf, 1.0),
        (math.nan, 1.0),
        (0.0, 1.0),
        (10.0, math.inf),
        (10.0, math.nan),
        (10.0, -2.0),
        (1e300, 1e10),  # each finite, but the sample count overflows int64
    ],
)
def test_config_requires_finite_positive_values(duration_s, rate_hz):
    with pytest.raises(ValueError, match="must be finite and positive"):
        SimulationConfig(duration_s=duration_s, seed=0, output_sampling_rate_hz=rate_hz)


def test_forced_alternation(monkeypatch):
    # pin every dwell draw to exactly 1.0 s so only the transition logic runs
    monkeypatch.setattr(simulate_mod, "sample_dwell",
                        lambda fit, rng, min_seconds=0.0, size=None: np.full(size, 1.0))
    cfg = SimulationConfig(duration_s=4.0, seed=0, output_sampling_rate_hz=1.0, initial_state="A")
    out = simulate_sequence(two_state_model(), cfg)
    assert out.runs == [(0, 1), (1, 1), (0, 1), (1, 1)]


def test_determinism():
    cfg = SimulationConfig(duration_s=120.0, seed=31, output_sampling_rate_hz=2.0)
    m = success_model()
    assert runs_equal(simulate_sequence(m, cfg), simulate_sequence(m, cfg))


def test_duration_is_exact_in_samples():
    m = success_model()
    for seed in range(5):
        cfg = SimulationConfig(duration_s=77.3, seed=seed, output_sampling_rate_hz=2.0)
        out = simulate_sequence(m, cfg)
        assert out.total_samples == round(77.3 * 2.0)


@settings(max_examples=25)
@given(st.integers(0, 10_000))
def test_no_adjacent_equal_states(seed):
    cfg = SimulationConfig(duration_s=60.0, seed=seed, output_sampling_rate_hz=4.0)
    out = simulate_sequence(failure_model(), cfg)
    assert np.all(out.states[1:] != out.states[:-1])


def test_explicit_initial_state():
    cfg = SimulationConfig(
        duration_s=50.0, seed=5, output_sampling_rate_hz=2.0, initial_state="MVT"
    )
    out = simulate_sequence(success_model(), cfg)
    assert out.states[0] == success_model().alphabet.index("MVT")


def test_unknown_initial_state():
    cfg = SimulationConfig(duration_s=10.0, seed=0, initial_state="XYZ")
    with pytest.raises(InvalidInitialStateError):
        simulate_sequence(success_model(), cfg)


def test_initial_state_without_fitted_row():
    alpha = build_alphabet(("A", "B", "C"))
    model = SemiMarkovModel(
        transitions=TransitionMatrix(
            probs=np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
            alphabet=alpha,
            kind="semi_markov",
        ),
        dwell={
            "A": DwellFit(EXPONENTIAL, {"mu": 1.0}),
            "B": DwellFit(EXPONENTIAL, {"mu": 1.0}),
        },
    )
    cfg = SimulationConfig(duration_s=10.0, seed=0, initial_state="C")
    with pytest.raises(InvalidInitialStateError):
        simulate_sequence(model, cfg)
    # C is absent but unreachable from A/B, so simulation from them is valid
    ok = simulate_sequence(
        model, SimulationConfig(duration_s=10.0, seed=1, initial_state="A")
    )
    assert ok.total_samples == 10


def test_reachable_absent_row_rejected():
    alpha = build_alphabet(("A", "B", "C"))
    model = SemiMarkovModel(
        transitions=TransitionMatrix(
            probs=np.array([[0.0, 0.5, 0.5], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
            alphabet=alpha,
            kind="semi_markov",
        ),
        dwell={
            "A": DwellFit(EXPONENTIAL, {"mu": 1.0}),
            "B": DwellFit(EXPONENTIAL, {"mu": 1.0}),
        },
    )
    cfg = SimulationConfig(duration_s=10.0, seed=0, initial_state="A")
    with pytest.raises(UnreachableAbsentRowError):
        simulate_sequence(model, cfg)


def test_missing_dwell_rejected():
    model = SemiMarkovModel(
        transitions=TransitionMatrix.from_probabilities([(0.0, 1.0), (1.0, 0.0)], AB),
        dwell={"A": DwellFit(EXPONENTIAL, {"mu": 1.0})},  # B has no dwell fit
    )
    cfg = SimulationConfig(duration_s=10.0, seed=0, initial_state="A")
    with pytest.raises(UnreachableAbsentRowError):
        simulate_sequence(model, cfg)


def test_initial_state_without_dwell_fit():
    model = SemiMarkovModel(
        transitions=TransitionMatrix.from_probabilities([(0.0, 1.0), (1.0, 0.0)], AB),
        dwell={"A": DwellFit(EXPONENTIAL, {"mu": 1.0})},  # B's row has mass, no dwell
    )
    cfg = SimulationConfig(duration_s=10.0, seed=0, initial_state="B")
    with pytest.raises(InvalidInitialStateError, match="'B' has no dwell distribution"):
        simulate_sequence(model, cfg)


def test_no_startable_state():
    # every row has mass, but no state has a dwell fit to start from
    model = SemiMarkovModel(
        transitions=TransitionMatrix.from_probabilities([(0.0, 1.0), (1.0, 0.0)], AB),
        dwell={},
    )
    with pytest.raises(InvalidInitialStateError, match="no startable states"):
        simulate_sequence(model, SimulationConfig(duration_s=10.0, seed=0))


def test_duration_under_half_a_sample():
    # 0.4 s at 1 Hz rounds to no sample at all, below the one-sample floor
    cfg = SimulationConfig(duration_s=0.4, seed=0, output_sampling_rate_hz=1.0)
    with pytest.raises(ValueError, match="shorter than half a sample period"):
        simulate_sequence(two_state_model(), cfg)


@pytest.mark.parametrize("n_patients", [0, -3])
def test_cohort_needs_a_patient(n_patients):
    cfg = SimulationConfig(duration_s=10.0, seed=0)
    with pytest.raises(ValueError, match="n_patients must be at least 1"):
        simulate_cohort(two_state_model(), n_patients, cfg)


def test_dtmc_kind_is_refused():
    # a DTMC read from a model file has no dwell fits to draw from
    dtmc = SemiMarkovModel(
        transitions=TransitionMatrix.from_probabilities(
            [(0.9, 0.1), (0.2, 0.8)], AB, kind="dtmc"
        ),
        dwell={},
    )
    cfg = SimulationConfig(duration_s=10.0, seed=0)
    with pytest.raises(KindMismatchError, match="'dtmc'"):
        simulate_sequence(dtmc, cfg)
    chain = MultiChainModel(segments=(two_state_model(), dtmc), boundaries=(5.0,))
    with pytest.raises(KindMismatchError):
        simulate_cohort(chain, 1, cfg)


class TestCohort:
    def test_singleton_matches_sequence(self):
        m = success_model()
        cfg = SimulationConfig(duration_s=30.0, seed=123, output_sampling_rate_hz=2.0)
        [only] = simulate_cohort(m, 1, cfg)
        assert runs_equal(only, simulate_sequence(m, cfg))

    def test_reproducible(self):
        m = failure_model()
        cfg = SimulationConfig(duration_s=40.0, seed=9, output_sampling_rate_hz=2.0)
        a = simulate_cohort(m, 10, cfg)
        b = simulate_cohort(m, 10, cfg)
        assert all(runs_equal(x, y) for x, y in zip(a, b))

    def test_patients_differ(self):
        m = success_model()
        cfg = SimulationConfig(duration_s=40.0, seed=9, output_sampling_rate_hz=2.0)
        a, b = simulate_cohort(m, 2, cfg)
        assert not runs_equal(a, b)
        assert a.id == "sim000" and b.id == "sim001"

    def test_adjacent_base_seeds_share_no_stream(self):
        # with per-patient seeds base + i, patient i + 1 of seed 71 was
        # patient i of seed 72
        m = success_model()
        cfg = SimulationConfig(duration_s=120.0, seed=71, output_sampling_rate_hz=2.0)
        a = simulate_cohort(m, 30, cfg)
        b = simulate_cohort(m, 30, replace(cfg, seed=72))
        assert not any(runs_equal(x, y) for x in a for y in b)

    def test_one_patient_regenerates_alone(self):
        m = failure_model()
        cfg = SimulationConfig(duration_s=60.0, seed=9, output_sampling_rate_hz=2.0)
        cohort = simulate_cohort(m, 5, cfg)
        for i in (0, 3):
            assert runs_equal(simulate_sequence(m, cfg, patient=i), cohort[i])


class TestPinnedCohorts:
    # Any change to the per-patient streams, the pools' block size or draw
    # schedule, the categorical draw, the dwell sampler or the quantization
    # changes these digests.  TestDistribution checks the same draws against
    # the model.

    def test_success_cohort_is_pinned(self):
        # all four dwell families, including the inverse-Gaussian draw
        cfg = SimulationConfig(duration_s=3600.0, seed=20180823, output_sampling_rate_hz=50.0)
        assert cohort_digest(simulate_cohort(success_model(), 10, cfg)) == (
            "31d829202429849d30f64a7e7e798b9fce27a6a1a5702aade7dd4fed5a475916"
        )

    def test_failure_cohort_from_pinned_state_is_pinned(self):
        cfg = SimulationConfig(
            duration_s=3600.0, seed=20180824, output_sampling_rate_hz=50.0,
            initial_state="PAU",
        )
        assert cohort_digest(simulate_cohort(failure_model(), 10, cfg)) == (
            "e5fa67c30913ab33b11208617569361cbce2b0f5b5f2b4457869cd787abd643d"
        )


class TestDistribution:
    """The draws against the model they come from, on one large seeded
    cohort: 40 patients x 1 h at 2 Hz from the success preset, whose dwell
    fits cover all four families.  Each of the ten chi-square tests is at
    level 0.001, so together they fail falsely on at most 1% of seeds."""

    LEVEL = 0.001
    RATE_HZ = 2.0

    @pytest.fixture(scope="class")
    def cohort(self):
        cfg = SimulationConfig(duration_s=3600.0, seed=20180823,
                               output_sampling_rate_hz=self.RATE_HZ)
        return simulate_cohort(success_model(), 40, cfg)

    @pytest.mark.parametrize("state", success_model().alphabet.states)
    def test_run_pairs_follow_the_matrix(self, cohort, state):
        model = success_model()
        i = model.alphabet.index(state)
        pairs = np.zeros(len(model.alphabet))
        for runs in cohort:
            np.add.at(pairs, runs.states[1:][runs.states[:-1] == i], 1)
        others = np.arange(len(pairs)) != i  # the diagonal is a structural zero
        assert pairs[i] == 0
        expected = pairs.sum() * model.transitions.probs[i, others]
        assert expected.min() >= 5
        assert stats.chisquare(pairs[others], expected).pvalue > self.LEVEL

    @pytest.mark.parametrize("state", success_model().alphabet.states)
    def test_run_lengths_follow_the_discretised_dwell(self, cohort, state):
        # a dwell x is redrawn below one sample period and kept as
        # floor(x * rate + 1/2) samples, so P(n = k) is the fit's mass on
        # [(k - 1/2) / rate, (k + 1/2) / rate) above 1/rate, over its mass
        # above 1/rate; each recording's last run is truncated, so left out
        model = success_model()
        i = model.alphabet.index(state)
        fit, rate = model.dwell[state], self.RATE_HZ
        n = np.concatenate([r.durations[:-1][r.states[:-1] == i] for r in cohort])
        floor = cdf(fit, 1.0 / rate)
        upper = [cdf(fit, (k + 0.5) / rate) for k in range(1, n.max() + 1)]
        probs = np.diff([floor, *upper]) / (1.0 - floor)  # P(n = k), k = 1, 2, ...
        expected = len(n) * probs
        bins = int(np.argmax(expected < 5)) if (expected < 5).any() else len(expected)
        while len(n) - expected[:bins].sum() < 5:  # the merged tail needs 5 too
            bins -= 1
        observed = np.bincount(n, minlength=bins + 1)[1:bins + 1]
        observed = np.append(observed, len(n) - observed.sum())
        expected = np.append(expected[:bins], len(n) - expected[:bins].sum())
        assert bins >= 5
        assert stats.chisquare(observed, expected).pvalue > self.LEVEL


ABC = build_alphabet(("A", "B", "C"))


def abc_segment(to_c=False, c_row=True, c_dwell=True):
    """A <-> B, with A also moving to C when to_c; C moves back to A when it
    has a fitted row, and draws its dwell when it has a fit."""
    a_row = [0.0, 0.5, 0.5] if to_c else [0.0, 1.0, 0.0]
    c_row = [1.0, 0.0, 0.0] if c_row else [0.0, 0.0, 0.0]
    tm = TransitionMatrix(probs=np.array([a_row, [1.0, 0.0, 0.0], c_row]), alphabet=ABC,
                          kind="semi_markov")
    fit = DwellFit(EXPONENTIAL, {"mu": 1.0})
    return SemiMarkovModel(tm, {"A": fit, "B": fit, **({"C": fit} if c_dwell else {})})


class TestMultiChain:
    @pytest.mark.parametrize("lacks", [{"c_row": False}, {"c_dwell": False}])
    @pytest.mark.parametrize("edge_in", [0, 1])
    def test_state_usable_only_in_segment_one(self, lacks, edge_in):
        # C has a fitted row and a dwell fit in segment 1 but lacks one of
        # them in segment 2; the edge A -> C lies in either segment
        pinned = SimulationConfig(duration_s=20.0, seed=3, initial_state="A")
        unreachable = MultiChainModel((abc_segment(), abc_segment(**lacks)), (10.0,))
        assert simulate_sequence(unreachable, pinned).total_samples == 20
        # unpinned, C is a start, whether or not the seed picks it
        with pytest.raises(UnreachableAbsentRowError, match="state 'C' is reachable"):
            simulate_sequence(unreachable, replace(pinned, initial_state=None))
        reachable = MultiChainModel(
            (abc_segment(to_c=edge_in == 0), abc_segment(to_c=edge_in == 1, **lacks)), (10.0,))
        with pytest.raises(UnreachableAbsentRowError, match="state 'C' is reachable"):
            simulate_sequence(reachable, pinned)

    @pytest.mark.parametrize("lacks, message", [
        ({"c_row": False}, "'C' has no fitted transition row"),
        ({"c_dwell": False}, "'C' has no dwell distribution"),
    ])
    def test_pinned_state_usable_only_in_segment_two(self, lacks, message):
        # a recording starts in segment 1, so only its table decides a start
        chain = MultiChainModel((abc_segment(**lacks), abc_segment()), (10.0,))
        cfg = SimulationConfig(duration_s=20.0, seed=3, initial_state="C")
        with pytest.raises(InvalidInitialStateError, match=message):
            simulate_sequence(chain, cfg)

    @settings(max_examples=200)
    @given(
        st.lists(st.floats(0.01, 60.0) | st.integers(1, 240).map(lambda k: k / 4),
                 min_size=1, max_size=3, unique=True),
        st.integers(1, 200),
        st.sampled_from([0.5, 1.0, 2.0, 3.0, 7.0, 50.0]),
    )
    def test_switches_match_a_scan_of_segment_at(self, boundaries, n_samples, rate):
        boundaries = sorted(boundaries)
        chain = MultiChainModel((two_state_model(),) * (len(boundaries) + 1), boundaries)
        cfg = SimulationConfig(duration_s=n_samples / rate, seed=0, output_sampling_rate_hz=rate)
        plan = simulate_mod._Plan(chain, cfg)
        n_total = plan.n_total
        segments = [chain.segment_at(e / rate) for e in range(n_total)]
        # segment k ends at the first sample count whose time a later segment owns
        expected = [next((e for e, seg in enumerate(segments) if seg > k), n_total)
                    for k in range(len(boundaries))]
        assert plan.switches == [*expected, n_total]

    def test_degenerate_equals_single(self):
        m = success_model()
        mc = MultiChainModel(segments=(m, m), boundaries=(150.0,))
        cfg = SimulationConfig(duration_s=300.0, seed=61, output_sampling_rate_hz=2.0)
        assert runs_equal(simulate_sequence(mc, cfg), simulate_sequence(m, cfg))

    def test_regime_change_visible(self):
        # segment 1 dwells ~1 s, segment 2 dwells ~20 s: mean run length in
        # the second half must be much larger
        fast = two_state_model(1.0, 1.0)
        slow = two_state_model(20.0, 20.0)
        mc = MultiChainModel(segments=(fast, slow), boundaries=(200.0,))
        cfg = SimulationConfig(duration_s=400.0, seed=17, output_sampling_rate_hz=2.0)
        out = simulate_sequence(mc, cfg)
        starts = np.concatenate(([0], np.cumsum(out.durations)[:-1])) / 2.0
        first = out.durations[starts < 200.0]
        second = out.durations[starts >= 200.0]
        assert second.mean() > 4 * first.mean()

    def test_three_segment_cohort_is_pinned(self):
        # success/failure/success; 211.3 s falls between samples at 2 Hz.
        # Any change to the streams or pools, the segment lookup at a run
        # start or transition, or the quantization changes this digest.
        succ, fail = success_model(), failure_model()
        mc = MultiChainModel(segments=(succ, fail, succ), boundaries=(100.0, 211.3))
        cfg = SimulationConfig(duration_s=300.0, seed=4242, output_sampling_rate_hz=2.0)
        assert cohort_digest(simulate_cohort(mc, 50, cfg)) == (
            "92e420482f82f545f181619312d02bc5b1e0d53e5018a27c96ea927f9a3471ea"
        )

    def test_boundary_validation(self):
        m = success_model()
        with pytest.raises(ValueError):
            MultiChainModel(segments=(m, m), boundaries=())
        with pytest.raises(ValueError):
            MultiChainModel(segments=(m, m, m), boundaries=(100.0, 100.0))
