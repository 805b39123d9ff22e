"""Exception hierarchy for sequence modeling, fitting, comparison, and I/O."""

from __future__ import annotations


class SemiMarkovError(Exception):
    """Base class for all domain errors raised by this package."""


# --- sequence construction and segmentation ---

class DuplicateStateError(SemiMarkovError):
    """Alphabet contains a repeated state name."""


class TooFewStatesError(SemiMarkovError):
    """Alphabet needs at least two states."""


class BoundaryOutOfRangeError(SemiMarkovError):
    """Split boundary outside (0, duration) or produces an empty segment."""


# --- fitting ---

class EmptyInputError(SemiMarkovError):
    """No data supplied to an operation that needs at least one element."""


class SequenceTooShortError(SemiMarkovError):
    """Fitting needs sequences of at least two samples."""


class MixedSamplingRatesError(SemiMarkovError):
    """Pooled sequences must share a sampling rate."""


class NoTransitionsError(SemiMarkovError):
    """Every input sequence consists of a single run; no transitions to fit."""


class SegmentTooShortError(SemiMarkovError):
    """A sequence is too short to yield the requested number of segments."""


# --- dwell-distribution fitting ---

class NonPositiveDurationError(SemiMarkovError):
    """Durations must be strictly positive."""


class DegenerateDataError(SemiMarkovError):
    """Observations carry no spread; the estimator is undefined."""


class TooFewObservationsError(SemiMarkovError):
    """Numerical fits need a minimum number of observations."""


class FitDidNotConvergeError(SemiMarkovError):
    """Likelihood optimization failed its stationarity certificate."""


class AllFitsFailedError(SemiMarkovError):
    """Every candidate dwell family was skipped or failed to fit."""


# --- comparison ---

class LengthMismatchError(SemiMarkovError):
    """Distributions being compared differ in length."""


class UnsupportedPointError(SemiMarkovError):
    """p has mass where q has none and smoothing is disabled."""


class AlphabetMismatchError(SemiMarkovError):
    """Models being compared use different alphabets."""


class KindMismatchError(SemiMarkovError):
    """Models being compared are of different kinds (dtmc vs semi_markov)."""


# --- simulation ---

class UnreachableAbsentRowError(SemiMarkovError):
    """A state with no fitted transition row (or no dwell fit) is reachable
    from the initial state, so simulation could dead-end there."""


class InvalidInitialStateError(SemiMarkovError):
    """Requested initial state is unknown or has no fitted transition row."""


# --- I/O ---

class MalformedCsvError(SemiMarkovError):
    """CSV file does not match the expected header or row format."""


class NonUniformSamplingError(SemiMarkovError):
    """Label CSV timestamps are not ascending with uniform spacing."""


class UnknownStateError(SemiMarkovError):
    """State name not present in the manifest alphabet."""


class RateMismatchError(SemiMarkovError):
    """Sampling rate inferred from a file disagrees with the manifest."""


class MalformedJsonError(SemiMarkovError):
    """JSON file cannot be parsed or lacks required fields."""


class SchemaVersionMismatchError(SemiMarkovError):
    """Model document schema version is not supported."""


# --- warnings ---

class MinimumDwellWarning(UserWarning):
    """Dwell sampling hit its rejection bound and returned the minimum."""


class DataNormalizationWarning(UserWarning):
    """Input data was normalized on ingest (e.g. adjacent equal runs merged)."""
