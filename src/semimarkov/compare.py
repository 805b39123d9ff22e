"""Divergence measures between fitted models and cohort descriptive statistics.

The central quantity is the symmetric KL divergence

    D_KLS(p, q) = D_KL(p||q) + D_KL(q||p) = sum_i (p_i - q_i) ln(p_i / q_i)

in nats, applied row-by-row to transition matrices.  Semi-Markov rows are
compared as distributions over the other states (the structural diagonal
zero is shared by both matrices and is removed, not smoothed).  Rows with
incidental zeros are epsilon-smoothed in both matrices so the divergence
stays finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AlphabetMismatchError,
    EmptyInputError,
    KindMismatchError,
    LengthMismatchError,
    UnsupportedPointError,
)
from .fitting import SEMI_MARKOV, TransitionMatrix
from .sequences import LabeledSequence, StateAlphabet, encode_runs


@dataclass(frozen=True)
class CategoricalDistribution:
    """A validated probability vector over a shared index set."""

    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "probs", tuple(float(p) for p in self.probs))
        if not self.probs:
            raise EmptyInputError("distribution must have at least one outcome")
        if any(p < 0 for p in self.probs):
            raise ValueError("probabilities must be non-negative")
        if abs(sum(self.probs) - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {sum(self.probs)!r}, not 1")

    def __len__(self) -> int:
        return len(self.probs)


def _as_prob_array(p) -> np.ndarray:
    if isinstance(p, CategoricalDistribution):
        return np.asarray(p.probs, dtype=float)
    return np.asarray(p, dtype=float)


def kl_divergence(p, q) -> float:
    """D_KL(p || q) = sum p_i ln(p_i / q_i) in nats, with 0 ln(0/q) = 0.

    Raises UnsupportedPointError where p puts mass on a q-zero; callers that
    want smoothing must smooth before calling (compare_transition_matrices
    does).
    """
    pa, qa = _as_prob_array(p), _as_prob_array(q)
    if pa.shape != qa.shape or pa.ndim != 1:
        raise LengthMismatchError(f"shape mismatch: {pa.shape} vs {qa.shape}")
    total = 0.0
    for pi, qi in zip(pa.tolist(), qa.tolist()):
        if pi == 0.0:
            continue
        if qi == 0.0:
            raise UnsupportedPointError(
                "p has mass where q is zero; apply smoothing first"
            )
        total += pi * math.log(pi / qi)
    return total


def symmetric_kl(p, q) -> float:
    """D_KLS(p, q) = D_KL(p||q) + D_KL(q||p); symmetric and non-negative."""
    return kl_divergence(p, q) + kl_divergence(q, p)


@dataclass(frozen=True)
class ComparisonReport:
    """Row-wise symmetric KL between two transition matrices.

    ``per_row`` maps state name to the row divergence in nats; ``aggregate``
    is the unweighted mean over compared rows; ``skipped_rows`` lists states
    absent (no outgoing observations) in either matrix, which are excluded
    from the aggregate.
    """

    per_row: dict[str, float]
    aggregate: float
    skipped_rows: tuple[str, ...]
    smoothing_epsilon: float


def _comparison_rows(tm: TransitionMatrix, i: int) -> np.ndarray:
    """Row i as a distribution for comparison (diagonal dropped for
    semi-Markov kinds, renormalized over the remaining states)."""
    row = tm.probs[i]
    if tm.kind == SEMI_MARKOV:
        keep = np.arange(len(row)) != i
        sub = row[keep]
        return sub / sub.sum()
    return row.copy()


def compare_transition_matrices(
    a: TransitionMatrix, b: TransitionMatrix, epsilon: float = 1e-9
) -> ComparisonReport:
    """Row-wise symmetric KL divergence between two fitted matrices.

    Rules, applied per state fitted in both matrices:

    * semi-Markov rows drop the structural diagonal zero and renormalize
      over the other states (both matrices share that zero; smoothing it
      would inject spurious divergence);
    * if either row then contains a zero, epsilon is added to every entry
      of both rows and each is renormalized;
    * the aggregate is the unweighted mean of the per-row values.

    Rows absent in either matrix are skipped and listed in the report.
    """
    if a.alphabet != b.alphabet:
        raise AlphabetMismatchError("matrices use different alphabets")
    if a.kind != b.kind:
        raise KindMismatchError(f"cannot compare kind {a.kind!r} with {b.kind!r}")
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    per_row: dict[str, float] = {}
    skipped: list[str] = []
    for i, name in enumerate(a.alphabet.states):
        if not (a.row_fitted[i] and b.row_fitted[i]):
            skipped.append(name)
            continue
        pa = _comparison_rows(a, i)
        pb = _comparison_rows(b, i)
        if np.any(pa == 0.0) or np.any(pb == 0.0):
            pa = pa + epsilon
            pa /= pa.sum()
            pb = pb + epsilon
            pb /= pb.sum()
        per_row[name] = symmetric_kl(pa, pb)
    if not per_row:
        raise EmptyInputError("no state is fitted in both matrices")
    aggregate = float(np.mean(list(per_row.values())))
    return ComparisonReport(
        per_row=per_row,
        aggregate=aggregate,
        skipped_rows=tuple(skipped),
        smoothing_epsilon=epsilon,
    )


# --- occupancy statistics ----------------------------------------------------


def time_fractions(
    seq: LabeledSequence, alphabet: StateAlphabet | None = None
) -> dict:
    """Fraction of samples spent in each state, summed over its runs.

    Without an alphabet the map is keyed by observed label index; with one
    it is keyed by state name and covers every alphabet state (zeros
    included), which gives cohorts a common support.
    """
    runs = encode_runs(seq)
    keys = alphabet.states if alphabet is not None else range(runs.states.max() + 1)
    if runs.states.max() >= len(keys):
        raise ValueError("sequence uses label indices outside the alphabet")
    counts = np.zeros(len(keys), dtype=np.int64)
    np.add.at(counts, runs.states, runs.durations)
    n = len(seq)
    return {k: c / n for k, c in zip(keys, counts.tolist()) if c or alphabet is not None}


def bootstrap_group_fractions(
    patients: list[LabeledSequence],
    n_replicates: int,
    seed: int,
    alphabet: StateAlphabet,
) -> dict[str, tuple[float, float]]:
    """Bootstrap mean and standard deviation of cohort time fractions.

    Each replicate resamples patients with replacement (same cohort size)
    and takes the unweighted mean of per-patient time_fractions.  Replicate
    r draws from its own stream seeded seed + r, so results are identical
    regardless of evaluation order.  Reported std is the population standard
    deviation over replicates.
    """
    if not patients:
        raise EmptyInputError("no patients supplied")
    if n_replicates < 1:
        raise ValueError("n_replicates must be at least 1")
    names = alphabet.states
    # time_fractions keys its map by alphabet.states, in that order
    per_patient = np.array([list(time_fractions(p, alphabet).values()) for p in patients])
    n_pat = len(patients)
    reps = np.empty((n_replicates, len(names)))
    for r in range(n_replicates):
        rng = np.random.default_rng(seed + r)
        idx = rng.integers(0, n_pat, size=n_pat)
        reps[r] = per_patient[idx].mean(axis=0)
    means = reps.mean(axis=0)
    stds = reps.std(axis=0)
    return {
        name: (float(means[j]), float(stds[j])) for j, name in enumerate(names)
    }
