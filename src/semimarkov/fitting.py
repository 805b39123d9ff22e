"""Maximum-likelihood fitting of transition structure and dwell distributions.

Three model layers:

* ``fit_dtmc``: per-sample discrete-time Markov chain, T_ij = n_ij / sum_j n_ij.
* ``fit_semi_markov``: transitions over collapsed runs (structural zero
  diagonal) plus one fitted dwell-time distribution per observed state.
* ``fit_multi_chain``: independent semi-Markov models over equal-time
  segments of each sequence, to expose non-stationarity.

Counts are pooled across sequences; transitions are never counted across
sequence boundaries (sequences are independent recordings).
Each model type checks its values once, when built, and is then trusted.
"""

from __future__ import annotations

import bisect
import json
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .dwell import DwellFit, _read_only, select_family
from .dwell import fit_exponential  # noqa: F401  (perfbench/tracing.py wraps this name)
from .errors import (
    BoundaryOutOfRangeError,
    EmptyInputError,
    MixedSamplingRatesError,
    NoTransitionsError,
    SegmentTooShortError,
    SequenceTooShortError,
)
from .sequences import (
    LabeledSequence,
    RunSequence,
    StateAlphabet,
    durations_by_state,
    encode_runs,
    split_at_time,
)

DTMC = "dtmc"
SEMI_MARKOV = "semi_markov"


def _as_readonly_float_matrix(values, n: int, what: str) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.shape != (n, n):
        raise ValueError(f"{what} must be {n}x{n}, got {arr.shape}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class TransitionCounts:
    """Raw pooled transition counts n_ij (row = from-state, column = to-state)."""

    counts: np.ndarray
    alphabet: StateAlphabet

    def __post_init__(self) -> None:
        arr = np.array(self.counts, dtype=np.int64)
        n = len(self.alphabet)
        if arr.shape != (n, n):
            raise ValueError(f"counts must be {n}x{n}, got {arr.shape}")
        if np.any(arr < 0):
            raise ValueError("counts must be non-negative")
        arr.setflags(write=False)
        object.__setattr__(self, "counts", arr)

    def __reduce__(self):  # pickle and copy would otherwise restore a writeable array
        return TransitionCounts, (self.counts, self.alphabet)

    @property
    def total(self) -> int:
        return int(self.counts.sum())


@dataclass(frozen=True, eq=False)
class TransitionMatrix:
    """Transition matrix whose rows each sum to 1 or are all zero.

    ``row_fitted``, derived from the rows, is False for an all-zero row: a
    state never observed with an outgoing transition, whose row is never
    silently imputed.  ``kind`` is "dtmc" for per-sample chains or
    "semi_markov" for run-level chains, whose diagonal is exactly zero by
    construction.
    """

    probs: np.ndarray
    alphabet: StateAlphabet
    kind: str
    row_fitted: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        probs = _as_readonly_float_matrix(self.probs, len(self.alphabet), "probs")
        object.__setattr__(self, "probs", probs)
        if self.kind not in (DTMC, SEMI_MARKOV):
            raise ValueError(f"kind must be {DTMC!r} or {SEMI_MARKOV!r}")
        if not np.all((probs >= 0) & (probs <= 1)):  # NaN fails too
            raise ValueError("probabilities must lie in [0, 1]")
        sums = probs.sum(axis=1)
        fitted = sums > 0.0
        bad = np.flatnonzero(fitted & (np.abs(sums - 1.0) > 1e-12))
        if bad.size:
            i = int(bad[0])
            raise ValueError(f"row {self.alphabet.name(i)} sums to {sums[i]!r}; each "
                             f"row must sum to 1 or be all zero")
        fitted.setflags(write=False)
        object.__setattr__(self, "row_fitted", fitted)
        if self.kind == SEMI_MARKOV and np.any(np.diag(probs) != 0.0):
            raise ValueError("semi_markov matrices must have an exactly zero diagonal")

    def __reduce__(self):  # pickle and copy would otherwise restore writeable arrays
        return TransitionMatrix, (self.probs, self.alphabet, self.kind)

    @classmethod
    def from_probabilities(
        cls, rows, alphabet: StateAlphabet, kind: str = SEMI_MARKOV
    ) -> "TransitionMatrix":
        """Build from rows of non-negative weights: transition counts, or
        probabilities such as published, rounded values.

        Each non-zero row is rescaled to sum exactly to 1, which turns counts
        into maximum-likelihood probabilities and absorbs rounding in
        externally reported matrices.  All-zero rows become absent rows.
        """
        n = len(alphabet)
        arr = np.array(rows, dtype=float)
        if arr.shape != (n, n):
            raise ValueError(f"rows must be {n}x{n}, got {arr.shape}")
        if np.any(arr < 0):
            raise ValueError("row weights must be non-negative")
        totals = arr.sum(axis=1)
        fitted = totals > 0
        arr[fitted] = arr[fitted] / totals[fitted, None]
        return cls(probs=arr, alphabet=alphabet, kind=kind)


@dataclass(frozen=True, eq=False)
class SemiMarkovModel:
    """Run-level transition matrix plus per-state dwell-time distributions.

    ``dwell`` is keyed by state name, holds an entry for every state with at
    least one observed run, and is stored read-only once checked.
    ``metadata`` carries bookkeeping only (per-state run counts, cohort label,
    1-based segment index) and never influences simulation or comparison; it
    must be JSON that a model file can hold (no NaN or infinity) and is stored
    as a deep read-only copy: objects as read-only dicts, arrays as tuples.
    A model with a ``dtmc`` matrix is a per-sample Markov chain, as a model
    file holds it: its dwell is implied by its self-transitions, so it
    carries no dwell fits.
    """

    transitions: TransitionMatrix
    dwell: Mapping[str, DwellFit]
    metadata: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        dwell = dict(self.dwell)
        if self.transitions.kind == DTMC and dwell:
            raise ValueError("a dtmc transition matrix carries no dwell fits")
        unknown = sorted(set(dwell) - set(self.alphabet.states))
        if unknown:
            raise ValueError(f"dwell states {unknown} not in alphabet")
        if not isinstance(self.metadata, Mapping):
            raise TypeError("metadata must be a JSON object")
        metadata = _read_only(self.metadata)
        try:  # as a model file writes it, so that every model built writes
            json.dumps(metadata, sort_keys=True, allow_nan=False)
        except ValueError:
            raise ValueError("metadata must not hold NaN or an infinity") from None
        object.__setattr__(self, "dwell", _read_only(dwell))
        object.__setattr__(self, "metadata", metadata)

    @property
    def alphabet(self) -> StateAlphabet:
        return self.transitions.alphabet


@dataclass(frozen=True, eq=False)
class MultiChainModel:
    """Ordered per-segment semi-Markov models over non-overlapping time spans.

    ``boundaries`` are the segment cut points in seconds (len(segments) - 1
    finite positive times, strictly increasing); segment k governs
    [boundaries[k-1], boundaries[k]) with the convention boundaries[-1] = 0.
    """

    segments: tuple[SemiMarkovModel, ...]
    boundaries: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "segments", tuple(self.segments))
        object.__setattr__(self, "boundaries", tuple(float(b) for b in self.boundaries))
        if len(self.segments) < 1:
            raise ValueError("MultiChainModel needs at least one segment")
        if len(self.segments) != len(self.boundaries) + 1:
            raise ValueError("need exactly len(segments) - 1 boundaries")
        if any(not (b > 0 and math.isfinite(b)) for b in self.boundaries):
            raise ValueError("boundaries must be finite positive times in seconds")
        if any(b2 <= b1 for b1, b2 in zip(self.boundaries, self.boundaries[1:])):
            raise ValueError("boundaries must be strictly increasing")
        first = self.segments[0].alphabet
        if any(seg.alphabet != first for seg in self.segments[1:]):
            raise ValueError("all segments must share one alphabet")

    @property
    def alphabet(self) -> StateAlphabet:
        return self.segments[0].alphabet

    def segment_at(self, t_s: float) -> int:
        """Index of the segment governing time t_s (boundary belongs to the
        later segment; times past the last boundary stay in the last segment)."""
        return bisect.bisect_right(self.boundaries, t_s)


# --- DTMC --------------------------------------------------------------------


def _count_run_pairs(
    runs_list: list[RunSequence], alphabet: StateAlphabet
) -> np.ndarray:
    """Pooled counts of consecutive run pairs (state of run k, state of run k+1)."""
    n = len(alphabet)
    counts = np.zeros((n, n), dtype=np.int64)
    for runs in runs_list:
        if runs.states.max() >= n:
            raise ValueError(f"sequence {runs.id!r} uses states outside the alphabet")
        pairs = runs.states[:-1] * n + runs.states[1:]
        counts += np.bincount(pairs, minlength=n * n).reshape(n, n)
    return counts


def fit_dtmc(
    seqs: list[LabeledSequence], alphabet: StateAlphabet
) -> tuple[TransitionMatrix, TransitionCounts]:
    """Per-sample maximum-likelihood Markov chain: T_ij = n_ij / sum_j n_ij.

    Counted on runs (a run of d samples holds d - 1 self-transitions) and
    pooled across sequences, never across a sequence boundary.  States with
    zero outgoing counts are flagged absent.  All sequences must share the
    sampling rate (per-sample transition probabilities are rate-dependent).
    """
    if not seqs:
        raise EmptyInputError("no sequences supplied")
    rates = {s.sampling_rate_hz for s in seqs}
    if len(rates) > 1:
        raise MixedSamplingRatesError(
            f"sequences mix sampling rates {sorted(rates)}; resample first"
        )
    for seq in seqs:
        if len(seq) < 2:
            raise SequenceTooShortError(
                f"sequence {seq.id!r} has {len(seq)} samples; need at least 2"
            )
    runs_list = [encode_runs(s) for s in seqs]
    counts = _count_run_pairs(runs_list, alphabet)
    for runs in runs_list:
        np.add.at(counts, (runs.states, runs.states), runs.durations - 1)
    tc = TransitionCounts(counts=counts, alphabet=alphabet)
    return TransitionMatrix.from_probabilities(counts, alphabet, kind=DTMC), tc


# --- semi-Markov -------------------------------------------------------------


def fit_semi_markov_transitions(
    runs_list: list[RunSequence], alphabet: StateAlphabet
) -> TransitionMatrix:
    """Run-level transition matrix: counts over consecutive run pairs.

    Adjacent runs differ by construction, so the diagonal is structurally
    zero.  The terminal run of each sequence has no outgoing transition.
    """
    if not runs_list:
        raise EmptyInputError("no run sequences supplied")
    counts = _count_run_pairs(runs_list, alphabet)
    if not counts.any():
        raise NoTransitionsError(
            "every sequence is a single run; no run-level transitions observed"
        )
    return TransitionMatrix.from_probabilities(counts, alphabet, kind=SEMI_MARKOV)


def fit_semi_markov(
    seqs: list[LabeledSequence],
    alphabet: StateAlphabet,
    metadata: dict[str, Any] | None = None,
) -> SemiMarkovModel:
    """Encode each sequence into runs and fit a pooled semi-Markov model:
    run-level transitions plus one dwell distribution per observed state.

    Dwell families are fitted to the cohort's dwell table: each state's
    distinct durations with their counts (``durations_by_state``).
    Sequences may use different sampling rates: run-level transitions and
    dwell times in seconds are invariant to the rate, so mixing is safe here
    (unlike fit_dtmc).  Dwell observations include first runs (possibly
    left-censored) and terminal runs (right-censored): at recording lengths
    of a few hundred dwells per state the censoring bias is small, and
    dropping terminal runs would systematically under-sample long dwells.
    Each state's family is chosen by BIC over all four (``select_family``);
    the exponential always fits, since every duration is a positive number of
    samples at a finite rate.
    """
    if not seqs:
        raise EmptyInputError("no sequences supplied")
    runs_list = [encode_runs(s) for s in seqs]
    transitions = fit_semi_markov_transitions(runs_list, alphabet)
    dwell: dict[str, DwellFit] = {}
    sample_counts: dict[str, int] = {}
    for state, (values, counts) in durations_by_state(runs_list).items():
        name = alphabet.name(state)
        dwell[name] = select_family(values, counts)
        sample_counts[name] = int(counts.sum())
    meta: dict[str, Any] = {"sample_counts": sample_counts}
    if metadata:
        meta.update(metadata)
    return SemiMarkovModel(transitions=transitions, dwell=dwell, metadata=meta)


# --- multi-chain -------------------------------------------------------------


def fit_multi_chain(
    seqs: list[LabeledSequence],
    n_segments: int,
    alphabet: StateAlphabet,
    metadata: dict[str, Any] | None = None,
) -> MultiChainModel:
    """Split each sequence into equal-time segments and fit one model each.

    Segment k pools the k-th segment of every sequence.  Boundaries are
    recorded at fractions of the mean sequence duration (each sequence is cut
    at fractions of its own length, so unequal durations stay balanced).
    """
    if n_segments < 2:
        raise ValueError("n_segments must be at least 2; fit_semi_markov handles 1")
    if not seqs:
        raise EmptyInputError("no sequences supplied")
    parts_by_seq = []
    for seq in seqs:
        try:
            if n_segments > len(seq):  # before a cut list of n_segments floats
                raise BoundaryOutOfRangeError(f"only {len(seq)} samples")
            cuts = [seq.duration_s * j / n_segments for j in range(1, n_segments)]
            parts_by_seq.append(split_at_time(seq, cuts))
        except BoundaryOutOfRangeError as exc:
            raise SegmentTooShortError(
                f"sequence {seq.id!r} ({seq.duration_s:g} s) cannot be cut into "
                f"{n_segments} non-empty segments"
            ) from exc
    mean_dur = float(np.mean([s.duration_s for s in seqs]))
    boundaries = tuple(mean_dur * j / n_segments for j in range(1, n_segments))
    segment_models = []
    for k, group in enumerate(map(list, zip(*parts_by_seq))):
        meta = dict(metadata or {})
        meta["segment_index"] = k + 1
        segment_models.append(fit_semi_markov(group, alphabet, metadata=meta))
    return MultiChainModel(segments=tuple(segment_models), boundaries=boundaries)
