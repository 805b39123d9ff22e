"""Seeded generation of synthetic state sequences from fitted models.

``simulate_sequence`` and ``simulate_cohort`` each take either a
``SemiMarkovModel`` or a ``MultiChainModel``; a single model is simulated as
a one-segment chain, so both kinds share one generator loop.

The generator alternates dwell draws and categorical next-state draws,
quantizing each dwell onto the output sampling grid (round half-up, one
sample minimum) so the result is a valid RunSequence.  Each segment's
cumulative transition rows are built once per sequence, as Python lists, so a
next-state draw is one uniform and one ``bisect``.  All randomness comes from
one numpy Generator seeded from the config, so identical inputs give
bit-identical output; cohorts derive per-patient seeds as base_seed + i.
"""

from __future__ import annotations

import bisect
import math
from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from .dwell import sample_dwell
from .errors import (
    InvalidInitialStateError,
    UnreachableAbsentRowError,
)
from .fitting import MultiChainModel, SemiMarkovModel
from .sequences import RunSequence, _run_samples


@dataclass(frozen=True)
class SimulationConfig:
    """Inputs for one simulated recording.

    ``initial_state`` None draws the first state uniformly from the states
    with fitted transition rows (the initial-state distribution is not part
    of the model); a state name pins it.
    """

    duration_s: float
    seed: int
    output_sampling_rate_hz: float = 1.0
    initial_state: str | None = None

    def __post_init__(self) -> None:
        for name in ("duration_s", "output_sampling_rate_hz"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")
        samples = self.duration_s * self.output_sampling_rate_hz
        if not samples + 0.5 < 2.0**63:
            raise ValueError(
                "duration_s * output_sampling_rate_hz must be finite and positive and "
                f"count fewer than 2**63 samples, got {samples!r}"
            )


def _startable_states(model: SemiMarkovModel) -> list[int]:
    fitted = np.flatnonzero(model.transitions.row_fitted)
    names = model.alphabet.states
    return [int(i) for i in fitted if names[i] in model.dwell]


def _check_reachability(
    segments: tuple[SemiMarkovModel, ...], start_states: list[int]
) -> None:
    """Verify no reachable state lacks a transition row or dwell fit.

    Edges are the union of positive-probability transitions over all
    segments (a conservative over-approximation for multi-chain models: a
    state counted reachable here may be unreachable in the segment where it
    is absent, but accepting only union-safe models keeps simulation total).
    """
    alphabet = segments[0].alphabet
    n = len(alphabet)
    adjacency = np.zeros((n, n), dtype=bool)
    usable = np.ones(n, dtype=bool)
    for seg in segments:
        adjacency |= seg.transitions.probs > 0.0
        usable &= seg.transitions.row_fitted
        for i, name in enumerate(alphabet.states):
            if name not in seg.dwell:
                usable[i] = False
    seen = set(start_states)
    queue = deque(start_states)
    while queue:
        s = queue.popleft()
        if not usable[s]:
            raise UnreachableAbsentRowError(
                f"state {alphabet.name(s)!r} is reachable but has no fitted "
                f"transition row or dwell distribution in some segment"
            )
        for t in np.flatnonzero(adjacency[s]).tolist():
            if t not in seen:
                seen.add(t)
                queue.append(t)


def _draw_categorical(cum: list[float], rng: np.random.Generator) -> int:
    """Index drawn from one cumulative transition row (first entry above u * total)."""
    i = bisect.bisect_right(cum, rng.random() * cum[-1])
    return min(i, len(cum) - 1)


def _resolve_initial(
    first_model: SemiMarkovModel,
    config: SimulationConfig,
    rng: np.random.Generator,
) -> int:
    alphabet = first_model.alphabet
    if config.initial_state is not None:
        try:
            idx = alphabet.index(config.initial_state)
        except KeyError:
            raise InvalidInitialStateError(
                f"initial state {config.initial_state!r} not in alphabet"
            ) from None
        if not first_model.transitions.row_fitted[idx]:
            raise InvalidInitialStateError(
                f"initial state {config.initial_state!r} has no fitted transition row"
            )
        if config.initial_state not in first_model.dwell:
            raise InvalidInitialStateError(
                f"initial state {config.initial_state!r} has no dwell distribution"
            )
        return idx
    candidates = _startable_states(first_model)
    if not candidates:
        raise InvalidInitialStateError("model has no startable states")
    return candidates[int(rng.integers(len(candidates)))]


def _simulate_runs(
    chain: MultiChainModel, config: SimulationConfig
) -> tuple[list[int], list[int]]:
    rate = config.output_sampling_rate_hz
    if config.duration_s * rate + 0.5 < 1.0:
        raise ValueError("duration_s is shorter than half a sample period")
    n_total = _run_samples(config.duration_s, rate)
    segments = chain.segments
    rng = np.random.default_rng(config.seed)
    state = _resolve_initial(segments[0], config, rng)
    if config.initial_state is None:
        # validity must not depend on which start the seed happened to pick
        _check_reachability(segments, _startable_states(segments[0]))
    else:
        _check_reachability(segments, [state])
    cum_rows = [np.cumsum(seg.transitions.probs, axis=1).tolist() for seg in segments]
    states: list[int] = []
    durations: list[int] = []
    elapsed = 0  # samples emitted so far
    min_dwell = 1.0 / rate
    while elapsed < n_total:
        model = segments[chain.segment_at(elapsed / rate)]
        name = model.alphabet.states[state]
        dwell_s = sample_dwell(model.dwell[name], rng, min_seconds=min_dwell)
        n = _run_samples(dwell_s, rate)
        n = min(n, n_total - elapsed)  # truncate the final run
        states.append(state)
        durations.append(n)
        elapsed += n
        if elapsed >= n_total:
            break
        state = _draw_categorical(cum_rows[chain.segment_at(elapsed / rate)][state], rng)
    return states, durations


def simulate_sequence(
    model: SemiMarkovModel | MultiChainModel,
    config: SimulationConfig,
    sequence_id: str = "",
) -> RunSequence:
    """Simulate one recording from a semi-Markov or multi-chain model.

    Alternates dwell draws and next-state draws until the configured
    duration is reached; the final run is truncated to fit.  A single model
    is simulated as a one-segment chain.  Every stochastic choice made at
    time t (dwell draw at a run's start, next-state draw at a transition)
    consults the segment owning t, and a run in progress at a boundary
    persists.  Deterministic for a fixed config.
    """
    if isinstance(model, SemiMarkovModel):
        model = MultiChainModel(segments=(model,), boundaries=())
    states, durations = _simulate_runs(model, config)
    return RunSequence(
        states=np.array(states, dtype=np.int64),
        durations=np.array(durations, dtype=np.int64),
        sampling_rate_hz=config.output_sampling_rate_hz,
        id=sequence_id,
    )


def simulate_cohort(
    model: SemiMarkovModel | MultiChainModel,
    n_patients: int,
    config: SimulationConfig,
    id_prefix: str = "sim",
) -> list[RunSequence]:
    """Simulate n_patients independent recordings.

    Patient i uses seed config.seed + i, so the cohort is reproducible and
    any subset of patients can be regenerated independently.
    """
    if n_patients < 1:
        raise ValueError("n_patients must be at least 1")
    out = []
    for i in range(n_patients):
        cfg = replace(config, seed=config.seed + i)
        out.append(simulate_sequence(model, cfg, sequence_id=f"{id_prefix}{i:03d}"))
    return out
