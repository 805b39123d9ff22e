"""Divergence measures between fitted models and cohort descriptive statistics.

The central quantity is the symmetric KL divergence

    D_KLS(p, q) = D_KL(p||q) + D_KL(q||p) = sum_i (p_i - q_i) ln(p_i / q_i)

in nats, applied row-by-row to transition matrices.  Semi-Markov rows are
compared as distributions over the other states (the structural diagonal
zero is shared by both matrices and is removed, not smoothed).  Rows with
incidental zeros are smoothed in both matrices by ``SMOOTHING_EPSILON`` so
the divergence stays finite.
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

#: Most bootstrap replicates one call draws: their table takes 8 bytes per
#: state and replicate, so a mistyped count fails before it allocates.
MAX_REPLICATES = 10**6

#: Patient indices a bootstrap draws per block of replicates, so the index
#: table never holds every replicate at once.
_BOOTSTRAP_BLOCK = 2**16

#: Added to every entry of both rows when either holds an incidental zero.
SMOOTHING_EPSILON = 1e-9


def kl_divergence(p, q) -> float:
    """D_KL(p || q) = sum p_i ln(p_i / q_i) in nats, with 0 ln(0/q) = 0.

    Raises UnsupportedPointError where p puts mass on a q-zero; callers that
    want smoothing must smooth before calling (compare_transition_matrices
    does).
    """
    pa, qa = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
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


def _comparison_rows(tm: TransitionMatrix, i: int) -> np.ndarray:
    """Row i as a distribution for comparison (diagonal dropped for
    semi-Markov kinds, renormalized over the remaining states)."""
    row = tm.probs[i]
    if tm.kind == SEMI_MARKOV:
        keep = np.arange(len(row)) != i
        sub = row[keep]
        return sub / sub.sum()
    return row.copy()


def compare_transition_matrices(a: TransitionMatrix, b: TransitionMatrix) -> ComparisonReport:
    """Row-wise symmetric KL divergence between two fitted matrices.

    Rules, applied per state fitted in both matrices:

    * semi-Markov rows drop the structural diagonal zero and renormalize
      over the other states (both matrices share that zero; smoothing it
      would inject spurious divergence);
    * if either row then contains a zero, SMOOTHING_EPSILON is added to
      every entry of both rows and each is renormalized;
    * the aggregate is the unweighted mean of the per-row values.

    Rows absent in either matrix are skipped and listed in the report.
    """
    if a.alphabet != b.alphabet:
        raise AlphabetMismatchError("matrices use different alphabets")
    if a.kind != b.kind:
        raise KindMismatchError(f"cannot compare kind {a.kind!r} with {b.kind!r}")
    per_row: dict[str, float] = {}
    skipped: list[str] = []
    for i, name in enumerate(a.alphabet.states):
        if not (a.row_fitted[i] and b.row_fitted[i]):
            skipped.append(name)
            continue
        pa = _comparison_rows(a, i)
        pb = _comparison_rows(b, i)
        if np.any(pa == 0.0) or np.any(pb == 0.0):
            pa = pa + SMOOTHING_EPSILON
            pa /= pa.sum()
            pb = pb + SMOOTHING_EPSILON
            pb /= pb.sum()
        per_row[name] = symmetric_kl(pa, pb)
    if not per_row:
        raise EmptyInputError("no state is fitted in both matrices")
    aggregate = float(np.mean(list(per_row.values())))
    return ComparisonReport(
        per_row=per_row,
        aggregate=aggregate,
        skipped_rows=tuple(skipped),
    )


# --- occupancy statistics ----------------------------------------------------


def time_fractions(seq: LabeledSequence, alphabet: StateAlphabet) -> dict[str, float]:
    """Fraction of samples spent in each state, summed over its runs.

    The map is keyed by state name and covers every alphabet state (zeros
    included), which gives cohorts a common support.
    """
    runs = encode_runs(seq)
    if runs.states.max() >= len(alphabet):
        raise ValueError("sequence uses label indices outside the alphabet")
    counts = np.zeros(len(alphabet), dtype=np.int64)
    np.add.at(counts, runs.states, runs.durations)
    n = len(seq)
    return {k: c / n for k, c in zip(alphabet.states, counts.tolist())}


def bootstrap_group_fractions(
    patients: list[LabeledSequence],
    n_replicates: int,
    seed: int,
    alphabet: StateAlphabet,
) -> dict[str, tuple[float, float]]:
    """Bootstrap mean and standard deviation of cohort time fractions.

    Each replicate resamples patients with replacement (same cohort size)
    and takes the unweighted mean of per-patient time_fractions.  One numpy
    Generator seeded from ``seed`` draws every replicate's patient indices,
    a block of replicates at a time, so the result depends only on the
    inputs.  Reported std is the population standard deviation over
    replicates.  At most MAX_REPLICATES replicates are drawn.
    """
    if not patients:
        raise EmptyInputError("no patients supplied")
    if not 1 <= n_replicates <= MAX_REPLICATES:
        raise ValueError(
            f"n_replicates must be from 1 to {MAX_REPLICATES}, got {n_replicates}"
        )
    names = alphabet.states
    # time_fractions keys its map by alphabet.states, in that order
    per_patient = np.array([list(time_fractions(p, alphabet).values()) for p in patients])
    n_pat = len(patients)
    rng = np.random.default_rng(seed)
    block = max(1, _BOOTSTRAP_BLOCK // n_pat)
    reps = np.empty((n_replicates, len(names)))
    for start in range(0, n_replicates, block):
        stop = min(start + block, n_replicates)
        idx = rng.integers(0, n_pat, size=(stop - start, n_pat))
        reps[start:stop] = per_patient[idx].mean(axis=1)
    means = reps.mean(axis=0)
    stds = reps.std(axis=0)
    return {
        name: (float(means[j]), float(stds[j])) for j, name in enumerate(names)
    }
