import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semimarkov.simulate as simulate_mod
from semimarkov.dwell import EXPONENTIAL, DwellFit
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
    monkeypatch.setattr(simulate_mod, "sample_dwell", lambda fit, rng, min_seconds=0.0: 1.0)
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


class TestPinnedCohorts:
    # Any change to the draw order, the categorical draw, the dwell sampler
    # or the quantization changes these digests.

    def test_success_cohort_is_pinned(self):
        # all four dwell families, including the inverse-Gaussian draw
        cfg = SimulationConfig(duration_s=3600.0, seed=20180823, output_sampling_rate_hz=50.0)
        assert cohort_digest(simulate_cohort(success_model(), 10, cfg)) == (
            "d42169df20128c639a17e6db821e0caf82b36c42107159a2801d4c1050810031"
        )

    def test_failure_cohort_from_pinned_state_is_pinned(self):
        cfg = SimulationConfig(
            duration_s=3600.0, seed=20180824, output_sampling_rate_hz=50.0,
            initial_state="PAU",
        )
        assert cohort_digest(simulate_cohort(failure_model(), 10, cfg)) == (
            "b41f77d3d5c9d1542b5ccaa29a8a0fb3d570dfd01f356a9c72890a1b852f96e7"
        )


class TestMultiChain:
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
        # Any change to the draw order, the segment lookup at a run start or
        # transition, or the quantization changes this digest.
        succ, fail = success_model(), failure_model()
        mc = MultiChainModel(segments=(succ, fail, succ), boundaries=(100.0, 211.3))
        cfg = SimulationConfig(duration_s=300.0, seed=4242, output_sampling_rate_hz=2.0)
        assert cohort_digest(simulate_cohort(mc, 50, cfg)) == (
            "c9c2e40493ca159cd2d25b9b515b988f33ea4b1dc9335b8cbdb7e4f7842a0a89"
        )

    def test_boundary_validation(self):
        m = success_model()
        with pytest.raises(ValueError):
            MultiChainModel(segments=(m, m), boundaries=())
        with pytest.raises(ValueError):
            MultiChainModel(segments=(m, m, m), boundaries=(100.0, 100.0))
