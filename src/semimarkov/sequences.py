"""Labeled state sequences, run-length encoding, and segmentation.

Sequences are stored as runs of alphabet indices at a uniform sampling rate;
per-sample labels are expanded only when ``LabeledSequence.labels`` is read.
Run durations are kept in integer samples, so re-encoding is exact;
``durations_by_state`` turns a cohort's runs into the per-state table of
distinct durations in seconds with counts that every dwell fit reads.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import (
    BoundaryOutOfRangeError,
    DuplicateStateError,
    EmptyInputError,
    TooFewStatesError,
)

# Tolerance for deciding whether a boundary time lands exactly on a sample.
_SAMPLE_SNAP_TOL = 1e-9


@dataclass(frozen=True)
class StateAlphabet:
    """Ordered, duplicate-free set of state names.

    The order is fixed at construction and defines row/column indices of
    every transition matrix built over this alphabet.
    """

    states: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.states) < 2:
            raise TooFewStatesError(
                f"alphabet needs at least 2 states, got {len(self.states)}"
            )
        if len(set(self.states)) != len(self.states):
            raise DuplicateStateError(f"duplicate state names in {self.states}")

    def __len__(self) -> int:
        return len(self.states)

    def __contains__(self, name: str) -> bool:
        return name in self.states

    def index(self, name: str) -> int:
        try:
            return self.states.index(name)
        except ValueError:
            raise KeyError(f"state {name!r} not in alphabet {self.states}") from None

    def name(self, index: int) -> str:
        return self.states[index]


def build_alphabet(names: Sequence[str]) -> StateAlphabet:
    """Build a StateAlphabet from an ordered list of unique names."""
    return StateAlphabet(tuple(names))


def _check_rate(rate_hz: float) -> None:
    """ValueError unless rate_hz is a finite sampling rate above 0."""
    if not (math.isfinite(rate_hz) and rate_hz > 0):
        raise ValueError(f"sampling_rate_hz must be finite and positive, got {rate_hz!r}")


def _as_readonly_int_array(values, what: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.int64)
    if arr.ndim != 1:
        raise ValueError(f"{what} must be one-dimensional")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class RunSequence:
    """Run-length encoding: maximal runs of (state index, duration in samples)."""

    states: np.ndarray
    durations: np.ndarray
    sampling_rate_hz: float
    id: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "states", _as_readonly_int_array(self.states, "states"))
        object.__setattr__(
            self, "durations", _as_readonly_int_array(self.durations, "durations")
        )
        if len(self.states) != len(self.durations):
            raise ValueError("states and durations must have equal length")
        if len(self.states) < 1:
            raise ValueError("run sequence must contain at least one run")
        if np.any(self.states < 0):
            raise ValueError("states must be non-negative alphabet indices")
        if np.any(self.durations < 1):
            raise ValueError("run durations must be at least one sample")
        # a total of 2**63 samples wraps int64; summed exactly only where it could
        if (int(self.durations.max()) * len(self.durations) >= 2**63
                and sum(self.durations.tolist()) >= 2**63):
            raise ValueError("run durations must total fewer than 2**63 samples")
        if np.any(self.states[1:] == self.states[:-1]):
            raise ValueError("adjacent runs must have different states")
        _check_rate(self.sampling_rate_hz)

    def __reduce__(self):  # pickle and copy would otherwise restore writeable arrays
        return RunSequence, (self.states, self.durations, self.sampling_rate_hz, self.id)

    def __len__(self) -> int:
        return len(self.states)

    @property
    def runs(self) -> list[tuple[int, int]]:
        """Runs as (state index, duration in samples) pairs."""
        return list(zip(self.states.tolist(), self.durations.tolist()))

    @property
    def total_samples(self) -> int:
        return int(self.durations.sum())


class LabeledSequence:
    """Uniformly sampled state labels, stored as their maximal runs.

    labels are alphabet indices, one per sample, rebuilt on each read; validity
    against a concrete alphabet is checked by the operations that take one.
    """

    __slots__ = ("_runs",)

    def __init__(self, labels, sampling_rate_hz: float, id: str = "") -> None:
        labels = np.asarray(labels, dtype=np.int64)
        if labels.ndim != 1 or len(labels) < 1:
            raise ValueError("labels must be one-dimensional with at least one sample")
        starts = np.concatenate(([0], np.flatnonzero(labels[1:] != labels[:-1]) + 1))
        durations = np.diff(starts, append=len(labels))
        self._runs = RunSequence(labels[starts], durations, sampling_rate_hz, id)

    @property
    def labels(self) -> np.ndarray:
        labels = np.repeat(self._runs.states, self._runs.durations)
        labels.setflags(write=False)
        return labels

    @property
    def sampling_rate_hz(self) -> float:
        return self._runs.sampling_rate_hz

    @property
    def id(self) -> str:
        return self._runs.id

    def __len__(self) -> int:
        return self._runs.total_samples

    @property
    def duration_s(self) -> float:
        return len(self) / self.sampling_rate_hz


def encode_runs(seq: LabeledSequence) -> RunSequence:
    """The maximal (state, duration) runs of a labeled sequence."""
    return seq._runs


def decode_runs(runs: RunSequence) -> LabeledSequence:
    """The labeled sequence these runs encode; no per-sample array is built."""
    seq = object.__new__(LabeledSequence)
    seq._runs = runs
    return seq


def _run_samples(seconds: float, rate_hz: float) -> int:
    """Samples in a run lasting `seconds` at `rate_hz`: rounded half-up, at
    least one."""
    return max(1, math.floor(seconds * rate_hz + 0.5))


def _boundary_to_index(t_s: float, rate_hz: float) -> int:
    """Sample index of the first sample at or after time t (half-open split)."""
    x = t_s * rate_hz
    nearest = round(x)
    if abs(x - nearest) < _SAMPLE_SNAP_TOL:
        return int(nearest)
    return int(math.ceil(x))


def split_at_time(
    seq: LabeledSequence, boundaries: Sequence[float]
) -> list[LabeledSequence]:
    """Partition a sequence at the given times (seconds).

    A sample starting at time t belongs to the segment whose half-open
    window [start, end) contains t, so a run spanning a boundary is cut and
    the boundary sample goes to the later segment.  Concatenating the
    segments reproduces the input exactly.  The cuts are merged into the run
    ends by one ``searchsorted``; no per-sample array is built.
    """
    duration = seq.duration_s
    bounds = list(boundaries)
    if any(b <= a for a, b in zip(bounds, bounds[1:])):
        raise BoundaryOutOfRangeError(f"boundaries must be strictly increasing: {bounds}")
    for b in bounds:
        if not (0.0 < b < duration):
            raise BoundaryOutOfRangeError(
                f"boundary {b} s outside (0, {duration}) s"
            )
    indices = [_boundary_to_index(b, seq.sampling_rate_hz) for b in bounds]
    edges = [0] + indices + [len(seq)]
    if any(e1 >= e2 for e1, e2 in zip(edges, edges[1:])):
        raise BoundaryOutOfRangeError(
            f"boundaries {bounds} produce an empty segment at rate "
            f"{seq.sampling_rate_hz} Hz"
        )
    runs, cuts = encode_runs(seq), np.array(indices, dtype=np.int64)
    run_ends = np.cumsum(runs.durations)
    # cut the runs at the boundaries too; each piece keeps the state of its run.
    # Cut k lies in run inside[k] and adds an end unless it is that run's end
    inside = np.searchsorted(run_ends, cuts)
    new = run_ends[inside] != cuts
    where = inside[new]
    ends = np.insert(run_ends, where, cuts[new])
    states = np.insert(runs.states, where, runs.states[where])
    at = np.searchsorted(ends, cuts, side="right")
    pieces = zip(np.split(states, at), np.split(np.diff(ends, prepend=0), at))
    return [decode_runs(RunSequence(s, d, seq.sampling_rate_hz, seq.id)) for s, d in pieces]


def durations_by_state(runs_list: Sequence[RunSequence]) -> dict[int, tuple]:
    """Per-state dwell table of runs_list, keyed in state order: the sorted
    distinct run durations in seconds, each exactly ``samples / rate`` (equal
    durations at different rates merge), and their int64 counts.

    The runs are grouped by state with one stable sort on the narrowest
    unsigned key that holds every state index; each state's group is then
    one contiguous slice, bounded where the sorted states change, so its
    cost does not grow with the largest index.
    """
    if not runs_list:
        raise EmptyInputError("no run sequences supplied")
    states = np.concatenate([r.states for r in runs_list])
    states = states.astype(np.min_scalar_type(states.max()))
    order = np.argsort(states, kind="stable")
    states = states[order]
    bounds = [0, *(np.flatnonzero(np.diff(states)) + 1).tolist(), len(states)]
    keys = states[bounds[:-1]].tolist()
    del states  # so the order and the seconds, before and after, are all that is live
    seconds = np.concatenate([r.durations / r.sampling_rate_hz for r in runs_list])[order]
    return {s: np.unique(seconds[a:b], return_counts=True)
            for s, a, b in zip(keys, bounds, bounds[1:])}
