"""Seeded generation of synthetic state sequences from fitted models.

``simulate_sequence`` and ``simulate_cohort`` each take either a
``SemiMarkovModel`` or a ``MultiChainModel``; a single model is simulated as
a one-segment chain, so both share one generator loop.  Only ``semi_markov``
models simulate: a DTMC read from a model file has no dwell fits to draw from.
Before any draw, every state a recording can reach must have a fitted
transition row and a dwell fit in every segment; this is checked once per
simulation, from one table of the usable states per segment.

The generator alternates dwell draws and categorical next-state draws,
quantizing each dwell onto the output sampling grid (round half-up, one
sample minimum) so the result is a valid RunSequence.  All randomness comes
from vector draws in blocks: each distinct dwell fit has a pool of run
lengths, drawn and quantized in blocks that double from 16 to 256 values,
and one more pool holds next-state uniforms.  The per-run loop only pops a
run length, pops a uniform and makes one ``bisect`` on a cumulative
transition row built once per simulation.  Patient i of a cohort draws from
its own numpy Generator, child i of ``np.random.SeedSequence(seed)``, so
identical inputs give bit-identical output and every patient can be
regenerated alone.
"""

from __future__ import annotations

import bisect
import math
from collections import deque
from dataclasses import dataclass
from functools import partial

import numpy as np

from .dwell import sample_dwell
from .errors import (
    InvalidInitialStateError,
    KindMismatchError,
    UnreachableAbsentRowError,
)
from .fitting import SEMI_MARKOV, MultiChainModel, SemiMarkovModel
from .sequences import RunSequence, _run_samples

#: Values a pool draws at once, first and at most: run lengths from one
#: dwell fit, or next-state uniforms.
_FIRST_BLOCK = 16
_BLOCK = 256


@dataclass(frozen=True)
class SimulationConfig:
    """Inputs for one simulated recording.

    ``initial_state`` None draws the first state uniformly from the states
    with a fitted transition row and a dwell fit in the first segment (the
    initial-state distribution is not part of the model); a state name pins
    it, and that state must have both.
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


def _start_states(
    segments: tuple[SemiMarkovModel, ...], config: SimulationConfig
) -> list[int]:
    """The states a recording may start from, checked once for the whole chain.

    A state is usable in a segment when it has a fitted transition row and a
    dwell fit there.  The starts are the pinned initial state, or every state
    usable in the first segment when none is pinned.  Every state reachable
    from the starts over the union of the segments' positive-probability
    transitions must be usable in every segment, so validity does not depend
    on which start the seed picks (a conservative over-approximation: a state
    counted reachable here may be unreachable in the segment where it is
    absent, but accepting only union-safe models keeps simulation total).
    """
    alphabet = segments[0].alphabet
    # usable[k, i]: segment k has a fitted row and a dwell fit for state i
    usable = np.array([seg.transitions.row_fitted & [n in seg.dwell for n in alphabet.states]
                       for seg in segments])
    name = config.initial_state
    if name is None:
        starts = np.flatnonzero(usable[0]).tolist()
        if not starts:
            raise InvalidInitialStateError("model has no startable states")
    else:
        try:
            starts = [alphabet.index(name)]
        except KeyError:
            raise InvalidInitialStateError(f"initial state {name!r} not in alphabet") from None
        if not usable[0, starts[0]]:
            lacks = ("dwell distribution" if segments[0].transitions.row_fitted[starts[0]]
                     else "fitted transition row")
            raise InvalidInitialStateError(f"initial state {name!r} has no {lacks}")
    adjacency = np.logical_or.reduce([seg.transitions.probs > 0.0 for seg in segments])
    usable_everywhere = usable.all(axis=0)
    seen, queue = set(starts), deque(starts)
    while queue:
        s = queue.popleft()
        if not usable_everywhere[s]:
            raise UnreachableAbsentRowError(
                f"state {alphabet.name(s)!r} is reachable but has no fitted "
                f"transition row or dwell distribution in some segment"
            )
        for t in np.flatnonzero(adjacency[s]).tolist():
            if t not in seen:
                seen.add(t)
                queue.append(t)
    return starts


class _Pool(list):
    """Values drawn in blocks by ``draw(size)`` and popped one at a time, in
    draw order.  Blocks double from ``_FIRST_BLOCK`` to ``_BLOCK`` values, so
    a short recording draws few values and a long one draws few blocks."""

    __slots__ = ("draw", "drawn")

    def __init__(self, draw) -> None:
        super().__init__()
        self.draw, self.drawn = draw, 0

    def refill(self) -> None:
        size = min(_BLOCK, _FIRST_BLOCK + self.drawn)
        self.drawn += size
        self.extend(self.draw(size)[::-1].tolist())


class _Plan:
    """What every recording of one simulation shares, checked and built once:
    the start states, each segment's cumulative transition rows, and each
    state's dwell fit, keyed by its distribution."""

    def __init__(self, model: SemiMarkovModel | MultiChainModel,
                 config: SimulationConfig) -> None:
        if isinstance(model, SemiMarkovModel):
            model = MultiChainModel(segments=(model,), boundaries=())
        for seg in model.segments:
            if seg.transitions.kind != SEMI_MARKOV:
                raise KindMismatchError(
                    f"cannot simulate a {seg.transitions.kind!r} model, only semi_markov"
                )
        rate = config.output_sampling_rate_hz
        if config.duration_s * rate + 0.5 < 1.0:
            raise ValueError("duration_s is shorter than half a sample period")
        self.chain, self.config = model, config
        self.n_total = _run_samples(config.duration_s, rate)
        self.candidates = _start_states(model.segments, config)
        # per segment and from-state: the cumulative row without its last
        # entry, so one bisect lands on a state index, and the row total
        self.cum_rows = [
            [(row[:-1], row[-1]) for row in np.cumsum(seg.transitions.probs, axis=1).tolist()]
            for seg in model.segments
        ]
        # per boundary, the first sample count e whose time e / rate, as
        # segment_at sees it, is not before the boundary: the segment changes
        # only where the samples out reach one (n_total stands for never).
        # e / rate never falls as e grows, so bisection finds it
        self.switches = [bisect.bisect_left(range(self.n_total), b, key=lambda e: e / rate)
                         for b in model.boundaries]
        self.switches.append(self.n_total)
        # equal fits, in any segment or state, draw from one pool of run
        # lengths: each distinct fit by its key, and each segment's states'
        # keys (None where a state has no fit)
        self.fits = {_fit_key(fit): fit for seg in model.segments for fit in seg.dwell.values()}
        self.keys = [
            [_fit_key(seg.dwell[name]) if name in seg.dwell else None
             for name in seg.alphabet.states]
            for seg in model.segments
        ]

    def recording(self, patient: int, sequence_id: str) -> RunSequence:
        """Patient ``patient``'s recording, drawn from its own stream."""
        chain, rate, n_total = self.chain, self.config.output_sampling_rate_hz, self.n_total
        # the patient's own stream: child `patient` of the seed's SeedSequence
        rng = np.random.default_rng(
            np.random.SeedSequence(self.config.seed, spawn_key=(patient,)))
        min_dwell, cap = 1.0 / rate, float(n_total)

        def run_lengths(fit, size: int) -> np.ndarray:
            """size run lengths in samples: round half-up, at most the whole
            recording, and at least one sample, as no draw is below min_dwell."""
            x = sample_dwell(fit, rng, min_dwell, size=size)
            return np.minimum(x * rate + 0.5, cap).astype(np.int64)  # truncation floors x > 0

        pools = {key: _Pool(partial(run_lengths, fit)) for key, fit in self.fits.items()}
        lengths_of = [[None if key is None else pools[key] for key in row] for row in self.keys]
        uniforms = _Pool(rng.random)  # next-state uniforms
        cum_rows, candidates, switches = self.cum_rows, self.candidates, self.switches
        if self.config.initial_state is None:
            uniforms.refill()
            state = candidates[min(int(uniforms.pop() * len(candidates)), len(candidates) - 1)]
        else:
            state = candidates[0]
        states: list[int] = []
        durations: list[int] = []
        # the loop's lookups, bound once; the segment's tables at each switch
        add_state, add_duration = states.append, durations.append
        next_uniform, bisect_right = uniforms.pop, bisect.bisect_right
        elapsed = 0  # samples emitted so far
        segment = chain.segment_at(0.0)
        switch = switches[segment]  # the samples out at which the segment next changes
        lengths_by_state, rows = lengths_of[segment], cum_rows[segment]
        while True:
            lengths = lengths_by_state[state]
            if not lengths:
                lengths.refill()
            n = lengths.pop()
            add_state(state)
            elapsed += n
            if elapsed >= n_total:
                add_duration(n - (elapsed - n_total))  # truncate the final run
                break
            add_duration(n)
            if elapsed >= switch:
                segment = chain.segment_at(elapsed / rate)
                switch = switches[segment]
                lengths_by_state, rows = lengths_of[segment], cum_rows[segment]
            if not uniforms:
                uniforms.refill()
            below, total = rows[state]
            state = bisect_right(below, next_uniform() * total)
        return RunSequence(
            states=np.array(states, dtype=np.int64),
            durations=np.array(durations, dtype=np.int64),
            sampling_rate_hz=rate,
            id=sequence_id,
        )


def _fit_key(fit) -> tuple:
    """A dwell fit's distribution: equal keys draw from one pool."""
    return fit.family, tuple(sorted(fit.params.items()))


def simulate_sequence(
    model: SemiMarkovModel | MultiChainModel,
    config: SimulationConfig,
    sequence_id: str = "",
    patient: int = 0,
) -> RunSequence:
    """Simulate one recording from a semi-Markov or multi-chain model.

    Alternates dwell draws and next-state draws until the configured
    duration is reached; the final run is truncated to fit.  A single model
    is simulated as a one-segment chain.  Every stochastic choice made at
    time t (dwell draw at a run's start, next-state draw at a transition)
    consults the segment owning t, and a run in progress at a boundary
    persists.  Deterministic for a fixed config and ``patient``: the
    recording is patient ``patient`` of ``simulate_cohort`` with the same
    config, so any one patient of a cohort can be regenerated alone.
    """
    return _Plan(model, config).recording(patient, sequence_id)


def simulate_cohort(
    model: SemiMarkovModel | MultiChainModel,
    n_patients: int,
    config: SimulationConfig,
) -> list[RunSequence]:
    """Simulate n_patients independent recordings.

    Patient i draws from its own stream, child i of
    ``np.random.SeedSequence(config.seed)``, and gets id ``sim`` + i in three
    digits.  So the cohort is reproducible, any patient can be regenerated
    alone, and cohorts from different base seeds share no stream.
    """
    if n_patients < 1:
        raise ValueError("n_patients must be at least 1")
    plan = _Plan(model, config)
    return [plan.recording(i, f"sim{i:03d}") for i in range(n_patients)]
