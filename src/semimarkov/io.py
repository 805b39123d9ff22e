"""File formats: cohort manifests, sequence CSVs, model JSON, histograms.

Everything written here is canonical and timestamp-free so identical inputs
produce byte-identical files (the determinism contract the CLI tests rely
on).  JSON is emitted with sorted keys, no whitespace, and floats printed to
17 significant digits (enough to round-trip an IEEE double exactly), with a
trailing ".0" kept so floats never reparse as ints.

Two sequence formats exist because the sampling rate of per-sample label
streams matters for DTMC fitting but not for semi-Markov fitting:

* label CSV, header ``time_s,state``: one row per sample on a uniform grid;
* run-length CSV, header ``state,duration_s``: one row per run.

Both are plain comma-separated text in UTF-8 with LF, CRLF or CR line ends;
blank lines are skipped, and every other line holds exactly one comma.
There is no quoting: a field that starts with ``"`` is read as it stands, so
it fails as a bad time or duration, an unknown state or a wrong field count,
and the error names its ``path:line`` instead of the field being misparsed.
For the same reason no field length limit applies, and a NUL character fails
the time or state check like any other stray character.
"""

from __future__ import annotations

import itertools
import json
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from .dwell import DwellFit, dwell_log_pdf
from .errors import (
    DataNormalizationWarning,
    EmptyInputError,
    KindMismatchError,
    MalformedCsvError,
    MalformedJsonError,
    NonPositiveDurationError,
    NonUniformSamplingError,
    RateMismatchError,
    SchemaVersionMismatchError,
    UnknownStateError,
)
from .fitting import SEMI_MARKOV, SemiMarkovModel, TransitionMatrix
from .sequences import (
    LabeledSequence,
    RunSequence,
    StateAlphabet,
    _check_rate,
    _run_samples,
    build_alphabet,
    decode_runs,
)

SCHEMA_VERSION = 1

# Absolute tolerance (seconds) for uniform sample spacing in label CSVs and
# relative tolerance for the cross-check of that spacing against the rate.
_SPACING_TOL_S = 1e-6
_RATE_REL_TOL = 1e-6
# Run-length durations must quantize to a sample count that fits in int64.
_INT64_LIMIT = 2.0**63


# --- canonical JSON ----------------------------------------------------------


def float_text(x: float) -> str:
    """17-significant-digit decimal text that round-trips the double exactly
    and always reparses as a float (never an int)."""
    if not math.isfinite(x):
        raise ValueError(f"non-finite float {x!r} cannot be serialized")
    s = f"{x:.17g}"
    if "." not in s and "e" not in s and "E" not in s:
        s += ".0"
    return s


def _serialize(obj) -> str:
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: kv[0])
        inner = ",".join(f"{json.dumps(str(k))}:{_serialize(v)}" for k, v in items)
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_serialize(v) for v in obj) + "]"
    if isinstance(obj, np.ndarray):
        return _serialize(obj.tolist())
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return float_text(float(obj))
    if obj is None:
        return "null"
    raise TypeError(f"cannot canonicalize {type(obj).__name__}")


def canonical_json(obj) -> str:
    """Deterministic JSON text: sorted keys, compact, canonical floats."""
    return _serialize(obj) + "\n"


def write_json(obj, path) -> None:
    Path(path).write_text(canonical_json(obj), encoding="ascii")


def _not_utf8(path, exc: UnicodeDecodeError) -> str:
    """Message naming the file, and the line of its first byte that is not UTF-8.

    A text stream reports ``exc`` relative to the chunk it was decoding, so
    the file is decoded again in full to find the line.
    """
    data = Path(path).read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as first:
        head = data[: first.start]  # lines end in LF, CRLF or CR
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        return f"{path}:{line}: not valid UTF-8: {first.reason} (byte {first.start})"
    return f"{path}: not valid UTF-8: {exc.reason}"  # changed after the failed read


def read_json(path):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise MalformedJsonError(f"{path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise MalformedJsonError(_not_utf8(path, exc)) from None


# --- cohort manifests --------------------------------------------------------


@dataclass(frozen=True)
class CohortManifest:
    """One cohort: a label, its sampling rate, alphabet, and member files.

    ``patient_files`` are stored as written in the manifest (usually
    relative); ``base_dir`` is the manifest's directory, against which
    relative paths resolve.
    """

    group_label: str
    sampling_rate_hz: float
    alphabet: StateAlphabet
    patient_files: tuple[str, ...]
    base_dir: Path = field(default_factory=Path)

    def __post_init__(self) -> None:
        object.__setattr__(self, "patient_files", tuple(self.patient_files))
        object.__setattr__(self, "base_dir", Path(self.base_dir))
        if not self.patient_files:
            raise EmptyInputError("manifest lists no patient files")
        _check_rate(self.sampling_rate_hz)

    def resolved_paths(self) -> list[Path]:
        return [self.base_dir / f for f in self.patient_files]


def _strings(value, what: str) -> tuple[str, ...]:
    """A JSON list of strings as a tuple; raises TypeError for anything else."""
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise TypeError(f"{what} must be a list of strings")
    return tuple(value)


def _number(value, what: str) -> float:
    """A JSON number as a float; raises TypeError for anything else, bools too."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{what} must be a number")
    return float(value)


def _number_or_null(value, what: str) -> float | None:
    return None if value is None else _number(value, what)


def _count(value, what: str) -> int:
    """A JSON integer >= 0; raises TypeError for anything else, bools too."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise TypeError(f"{what} must be a non-negative integer")
    return value


def _boolean(value, what: str) -> bool:
    """A JSON true or false; raises TypeError for anything else."""
    if not isinstance(value, bool):
        raise TypeError(f"{what} must be true or false")
    return value


def read_manifest(path) -> CohortManifest:
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise MalformedJsonError(f"{path}: manifest must be a JSON object")
    try:
        if not isinstance(doc["group_label"], str):
            raise TypeError("group_label must be a string")
        return CohortManifest(
            group_label=doc["group_label"],
            sampling_rate_hz=_number(doc["sampling_rate_hz"], "sampling_rate_hz"),
            alphabet=build_alphabet(_strings(doc["alphabet"], "alphabet")),
            patient_files=_strings(doc["patient_files"], "patient_files"),
            base_dir=Path(path).parent,
        )
    except KeyError as exc:
        raise MalformedJsonError(f"{path}: manifest missing key {exc}") from exc
    except (AttributeError, TypeError, OverflowError) as exc:
        raise MalformedJsonError(f"{path}: ill-typed manifest field: {exc}") from exc
    except ValueError as exc:  # e.g. a rate that is not a finite number > 0
        raise MalformedJsonError(f"{path}: {exc}") from exc


def write_manifest(manifest: CohortManifest, path) -> None:
    write_json(
        {
            "group_label": manifest.group_label,
            "sampling_rate_hz": manifest.sampling_rate_hz,
            "alphabet": list(manifest.alphabet.states),
            "patient_files": list(manifest.patient_files),
        },
        path,
    )


# --- sequence CSVs -----------------------------------------------------------


_LABEL_HEADER = ("time_s", "state")
_RUNLENGTH_HEADER = ("state", "duration_s")


def _header(line: str) -> tuple[str, ...]:
    return tuple(h.strip() for h in line.split(","))


def _read_columns(path, header: tuple[str, str]):
    """The two columns of a sequence CSV, read once and split column-wise.

    Returns ``(first, second, at, fault)``: the columns as lists of strings,
    ``at(i)``, the ``path:line`` of data row i (blank lines are skipped but
    counted), and ``fault``, the error for the first row that does not hold
    exactly two fields, or None.  The columns stop before that row, so the
    caller checks the rows ahead of it first and raises ``fault`` only if
    they pass, as a row-by-row reader would.
    """
    try:
        with open(path, encoding="utf-8") as fh:  # universal newlines
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise MalformedCsvError(_not_utf8(path, exc)) from None
    if not text:
        raise MalformedCsvError(f"{path}: empty file")
    first, _, body = text.partition("\n")
    del text
    if _header(first) != header:
        raise MalformedCsvError(
            f"{path}: expected header {','.join(header)!r}, got {first!r}"
        )
    body = body.removesuffix("\n")  # ends the last row; opens no blank line
    # Line ends and commas by byte offset ("\n" and "," are one byte each in
    # UTF-8), so no per-line string is built.
    buf = np.frombuffer(body.encode(), np.uint8)
    ends = np.append(np.flatnonzero(buf == 10), buf.size)
    commas = np.diff(np.searchsorted(np.flatnonzero(buf == 44), ends), prepend=0)
    kept = np.diff(ends, prepend=-1) > 1  # the line is not blank
    del buf
    line_of = np.flatnonzero(kept) + 2
    commas = commas[kept]
    n = line_of.size
    if not n:
        raise MalformedCsvError(f"{path}: no data rows")

    def at(i: int) -> str:
        return f"{path}:{line_of[i]}"

    fault = None
    bad = np.flatnonzero(commas != 1)
    if bad.size:
        n = int(bad[0])
        fault = MalformedCsvError(f"{at(n)}: expected 2 fields, got {commas[n] + 1}")
    if n < kept.size:  # blank lines or a faulty row: keep the rows ahead of it
        body = "\n".join(itertools.islice(filter(None, body.split("\n")), n))
    joined = body.replace("\n", ",")
    del body
    fields = joined.split(",") if joined else []
    del joined
    return fields[0::2], fields[1::2], at, fault


def _first_float_failure(texts: list[str]) -> int:
    for i, text in enumerate(texts):
        try:
            float(text)
        except ValueError:
            return i
    return len(texts)


def parse_label_csv(path, alphabet: StateAlphabet, sampling_rate_hz: float) -> LabeledSequence:
    """Read a per-sample label CSV (header ``time_s,state``), whose id is the
    file's stem.

    Timestamps must ascend with uniform spacing (tolerance 1e-6 s), and the
    rate that spacing implies must match ``sampling_rate_hz`` (the manifest's)
    to a relative 1e-6.  The sequence carries ``sampling_rate_hz``, which is
    exact where the text timestamps are rounded.
    """
    texts, names, at, fault = _read_columns(path, _LABEL_HEADER)
    n = len(texts)
    try:
        times = np.fromiter(map(float, texts), float, n)
    except ValueError:
        times = None
    index = {name: i for i, name in enumerate(alphabet.states)}
    labels = np.fromiter(
        map(index.get, map(str.strip, names), itertools.repeat(-1)), np.int64, n
    )
    # the first faulty row, as a row-by-row reader meets it: time, then state
    bad_time = n if times is not None else _first_float_failure(texts)
    unknown = np.flatnonzero(labels < 0)
    bad_state = int(unknown[0]) if unknown.size else n
    if bad_time < n and bad_time <= bad_state:
        raise MalformedCsvError(f"{at(bad_time)}: bad time {texts[bad_time]!r}")
    if bad_state < n:
        name = names[bad_state].strip()
        raise UnknownStateError(f"{at(bad_state)}: state {name!r} not in alphabet")
    if fault is not None:
        raise fault
    # NaN compares false, so the spacing checks below would not catch it
    bad = np.flatnonzero(~np.isfinite(times))
    if bad.size:
        i = int(bad[0])
        raise MalformedCsvError(f"{at(i)}: non-finite time {texts[i]!r}")
    if len(times) >= 2:
        spacing = np.diff(times)
        if spacing.min() <= 0:
            raise NonUniformSamplingError(f"{path}: timestamps must strictly ascend")
        if spacing.max() - spacing.min() > _SPACING_TOL_S:
            raise NonUniformSamplingError(
                f"{path}: sample spacing varies by "
                f"{spacing.max() - spacing.min():.3g} s (tolerance {_SPACING_TOL_S} s)"
            )
        inferred = 1.0 / float(np.mean(spacing))
        if abs(inferred - sampling_rate_hz) > _RATE_REL_TOL * sampling_rate_hz:
            raise RateMismatchError(
                f"{path}: spacing implies {inferred:.6g} Hz but the manifest "
                f"says {sampling_rate_hz:.6g} Hz"
            )
    return LabeledSequence(
        labels=labels, sampling_rate_hz=sampling_rate_hz, id=Path(path).stem
    )


def parse_runlength_csv(path, alphabet: StateAlphabet, sampling_rate_hz: float) -> RunSequence:
    """Read a run-length CSV (header ``state,duration_s``), whose id is the
    file's stem.

    Durations are quantized to samples by rounding half-up with a one-sample
    floor.  Adjacent rows with equal states are merged (in seconds, before
    quantization) with a normalization warning.
    """
    _check_rate(sampling_rate_hz)
    names, texts, at, fault = _read_columns(path, _RUNLENGTH_HEADER)
    states: list[int] = []
    seconds: list[float] = []
    durations: list[int] = []
    total = 0  # samples in all runs so far
    merged = False
    for i, (name, text) in enumerate(zip(names, texts)):
        name = name.strip()
        if name not in alphabet:
            raise UnknownStateError(f"{at(i)}: state {name!r} not in alphabet")
        try:
            dur = float(text)
        except ValueError:
            raise MalformedCsvError(f"{at(i)}: bad duration {text!r}") from None
        if not dur > 0:
            raise NonPositiveDurationError(f"{at(i)}: duration {dur!r} not > 0")
        state = alphabet.index(name)
        if states and states[-1] == state:
            seconds[-1] += dur
            total -= durations.pop()
            merged = True
        else:
            states.append(state)
            seconds.append(dur)
        samples = seconds[-1] * sampling_rate_hz + 0.5
        run = _run_samples(seconds[-1], sampling_rate_hz) if samples < _INT64_LIMIT else math.inf
        # the run's sample count and the file's total must fit in int64; an
        # infinite duration fails too
        if not total + run < _INT64_LIMIT:
            raise MalformedCsvError(
                f"{at(i)}: duration {text!r} is non-finite or takes the "
                f"sample count past int64 at {sampling_rate_hz:g} Hz"
            )
        durations.append(run)
        total += run
    if fault is not None:
        raise fault
    if merged:
        warnings.warn(
            f"{path}: merged adjacent runs with equal states",
            DataNormalizationWarning,
            stacklevel=2,
        )
    return RunSequence(
        states=np.array(states, dtype=np.int64),
        durations=np.array(durations, dtype=np.int64),
        sampling_rate_hz=sampling_rate_hz,
        id=Path(path).stem,
    )


def _sniff_header(path) -> tuple[str, ...]:
    try:
        with open(path, encoding="utf-8") as fh:
            first = fh.readline()
    except UnicodeDecodeError as exc:
        raise MalformedCsvError(_not_utf8(path, exc)) from None
    return _header(first)


def load_sequences(manifest: CohortManifest) -> list[LabeledSequence]:
    """Load every patient file in a manifest as labeled sequences.

    The format of each file is recognized by its header; run-length files
    are quantized onto the manifest's sampling grid.
    """
    out = []
    for p in manifest.resolved_paths():
        header = _sniff_header(p)
        if header == _LABEL_HEADER:
            out.append(parse_label_csv(p, manifest.alphabet, manifest.sampling_rate_hz))
        elif header == _RUNLENGTH_HEADER:
            runs = parse_runlength_csv(
                p, manifest.alphabet, sampling_rate_hz=manifest.sampling_rate_hz
            )
            out.append(decode_runs(runs))
        else:
            raise MalformedCsvError(
                f"{p}: unrecognized header {','.join(header)!r}; expected "
                f"'time_s,state' or 'state,duration_s'"
            )
    return out


def write_label_csv(seq: LabeledSequence, alphabet: StateAlphabet, path) -> None:
    """Write a per-sample label CSV with timestamps on the uniform grid."""
    rate = seq.sampling_rate_hz
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("time_s,state\n")
        for i, lab in enumerate(seq.labels.tolist()):
            fh.write(f"{i / rate:.6f},{alphabet.name(lab)}\n")


def write_runlength_csv(runs: RunSequence, alphabet: StateAlphabet, path) -> None:
    """Write a run-length CSV; durations are exact sample counts in seconds."""
    rate = runs.sampling_rate_hz
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("state,duration_s\n")
        for state, dur in runs.runs:
            fh.write(f"{alphabet.name(state)},{float_text(dur / rate)}\n")


# --- model documents ---------------------------------------------------------


@dataclass(frozen=True)
class ModelDocument:
    """In-memory form of a persisted model file.

    Covers both kinds: a DTMC document has an empty ``dwell`` map.  The
    document round-trips byte-identically through write/read because the
    serialization is canonical.
    """

    transitions: TransitionMatrix
    dwell: dict[str, DwellFit]
    metadata: dict[str, Any]

    def to_semi_markov(self) -> SemiMarkovModel:
        if self.transitions.kind != SEMI_MARKOV:
            raise KindMismatchError(
                f"document holds a {self.transitions.kind!r} model, not semi_markov"
            )
        return SemiMarkovModel(
            transitions=self.transitions, dwell=dict(self.dwell), metadata=dict(self.metadata)
        )


def _dwell_to_dict(fit: DwellFit) -> dict[str, Any]:
    return {
        "family": fit.family,
        "params": {k: float(v) for k, v in fit.params.items()},
        "n_obs": fit.n_obs,
        "log_likelihood": fit.log_likelihood,
        "bic": fit.bic,
        "fallback": fit.fallback,
    }


def _dwell_from_dict(name: str, doc: dict[str, Any]) -> DwellFit:
    what = f"dwell {name}"
    # files written before left-truncated fits were removed hold "truncation_s": 0.0
    if _number(doc.get("truncation_s", 0.0), f"{what} truncation_s") != 0.0:
        raise ValueError(
            f"{what}: truncation_s {doc['truncation_s']!r} unsupported; only "
            f"untruncated dwell fits (0.0) are read"
        )
    return DwellFit(
        family=doc["family"],
        params={k: _number(v, f"{what} parameter {k}") for k, v in doc["params"].items()},
        n_obs=_count(doc["n_obs"], f"{what} n_obs"),
        log_likelihood=_number_or_null(doc["log_likelihood"], f"{what} log_likelihood"),
        bic=_number_or_null(doc["bic"], f"{what} bic"),
        fallback=_boolean(doc.get("fallback", False), f"{what} fallback"),
    )


def document_to_dict(doc: SemiMarkovModel | ModelDocument) -> dict[str, Any]:
    """JSON-ready form of any record with ``transitions``, ``dwell`` and
    ``metadata``."""
    tm = doc.transitions
    return {
        "schema_version": SCHEMA_VERSION,
        "alphabet": list(tm.alphabet.states),
        "kind": tm.kind,
        "transitions": [[float(x) for x in row] for row in tm.probs],
        "row_fitted": [bool(b) for b in tm.row_fitted],
        "dwell": {name: _dwell_to_dict(fit) for name, fit in doc.dwell.items()},
        "metadata": doc.metadata,
    }


def document_from_dict(raw: dict[str, Any], source: str = "<dict>") -> ModelDocument:
    try:
        version = _count(raw["schema_version"], "schema_version")
        if version != SCHEMA_VERSION:
            raise SchemaVersionMismatchError(
                f"{source}: schema_version {version!r} unsupported (expected "
                f"{SCHEMA_VERSION})"
            )
        alphabet = build_alphabet(_strings(raw["alphabet"], "alphabet"))
        tm = TransitionMatrix(
            probs=[[_number(p, "transition entries") for p in row]
                   for row in raw["transitions"]],
            alphabet=alphabet,
            row_fitted=[_boolean(b, "row_fitted entries") for b in raw["row_fitted"]],
            kind=raw["kind"],
        )
        dwell = {name: _dwell_from_dict(name, d) for name, d in raw["dwell"].items()}
        unknown = sorted(set(dwell) - set(alphabet.states))
        if unknown:
            raise MalformedJsonError(f"{source}: dwell states {unknown} not in alphabet")
        if not isinstance(raw["metadata"], dict):
            raise TypeError("metadata must be a JSON object")
        return ModelDocument(transitions=tm, dwell=dwell, metadata=dict(raw["metadata"]))
    except KeyError as exc:
        raise MalformedJsonError(f"{source}: model document missing key {exc}") from exc
    except (AttributeError, TypeError, OverflowError) as exc:
        raise MalformedJsonError(f"{source}: ill-typed model document field: {exc}") from exc
    except ValueError as exc:  # e.g. a matrix whose rows do not sum to 1
        raise MalformedJsonError(f"{source}: {exc}") from exc


def write_model_json(model: SemiMarkovModel | ModelDocument, path) -> None:
    """Write a SemiMarkovModel, or a ModelDocument (a DTMC's has no dwell fits)."""
    write_json(document_to_dict(model), path)


def read_model_json(path) -> ModelDocument:
    raw = read_json(path)
    if not isinstance(raw, dict):
        raise MalformedJsonError(f"{path}: model document must be a JSON object")
    return document_from_dict(raw, source=str(path))


# --- histograms --------------------------------------------------------------

MAX_HISTOGRAM_BINS = 10**6  # rows of one histogram CSV


def histogram_bin_count(max_duration_s: float, bin_width_s: float) -> int:
    """Number of bins of width bin_width_s from 0 up to max_duration_s.

    Raises ValueError for a non-positive width or more than
    MAX_HISTOGRAM_BINS bins.
    """
    if not bin_width_s > 0:
        raise ValueError("bin_width_s must be positive")
    span = float(max_duration_s) / bin_width_s
    if not span <= MAX_HISTOGRAM_BINS:
        raise ValueError(f"binning up to {max_duration_s:g} s takes {span:.4g} bins of "
                         f"{bin_width_s:g} s, more than {MAX_HISTOGRAM_BINS}")
    return max(1, int(math.ceil(span)))


def emit_histogram_csv(
    durations,
    bin_width_s: float,
    path,
    overlay: DwellFit | None = None,
    counts=None,
) -> None:
    """Write a normalized histogram of durations as plot-ready CSV.

    ``counts``, if given, holds each duration's multiplicity.  Columns
    ``bin_left_s,bin_right_s,density`` with sum(density)*bin_width equal to 1;
    with an overlay fit, a fourth column ``overlay_pdf`` holds the fitted
    density at each bin midpoint, from one evaluation of the fit's log-density
    over all midpoints.  At most MAX_HISTOGRAM_BINS bins are written.
    """
    arr = np.asarray(list(durations), dtype=float)
    if arr.size == 0:
        raise EmptyInputError("no durations to bin")
    weights = np.ones(arr.size, dtype=np.int64) if counts is None else np.asarray(counts)
    n_bins = histogram_bin_count(arr.max(), bin_width_s)
    edges = np.arange(n_bins + 1) * bin_width_s
    hist, _ = np.histogram(arr, bins=edges, weights=weights)
    density = hist / (int(weights.sum()) * bin_width_s)
    header = "bin_left_s,bin_right_s,density"
    columns = [edges[:-1].tolist(), edges[1:].tolist(), density.tolist()]
    if overlay is not None:
        header += ",overlay_pdf"
        log_pdf = dwell_log_pdf(overlay, 0.5 * (edges[:-1] + edges[1:]))
        columns.append([math.exp(v) for v in log_pdf.tolist()])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for row in zip(*columns):
            fh.write(",".join(map(float_text, row)) + "\n")


# --- comparison reports ------------------------------------------------------


def comparison_to_dict(report, context: dict[str, Any]) -> dict[str, Any]:
    """JSON-ready form of a ComparisonReport (aggregation rule stated inline)
    with the context that names what was compared."""
    return {
        "per_row_symmetric_kl_nats": dict(report.per_row),
        "aggregate_symmetric_kl_nats": report.aggregate,
        "aggregation": "unweighted mean over rows fitted in both matrices",
        "skipped_rows": list(report.skipped_rows),
        "smoothing_epsilon": report.smoothing_epsilon,
        "context": context,
    }
