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
"""

from __future__ import annotations

import csv
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
    _run_samples,
    build_alphabet,
    decode_runs,
)

SCHEMA_VERSION = 1

# Absolute tolerance (seconds) for uniform sample spacing in label CSVs and
# relative tolerance for the manifest-vs-inferred rate cross-check.
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
        line = data.count(b"\n", 0, first.start) + 1
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
        if not self.sampling_rate_hz > 0:
            raise ValueError("sampling_rate_hz must be positive")

    def resolved_paths(self) -> list[Path]:
        return [self.base_dir / f for f in self.patient_files]


def _strings(value, what: str) -> tuple[str, ...]:
    """A JSON list of strings as a tuple; raises TypeError for anything else."""
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise TypeError(f"{what} must be a list of strings")
    return tuple(value)


def read_manifest(path) -> CohortManifest:
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise MalformedJsonError(f"{path}: manifest must be a JSON object")
    try:
        return CohortManifest(
            group_label=doc["group_label"],
            sampling_rate_hz=float(doc["sampling_rate_hz"]),
            alphabet=build_alphabet(_strings(doc["alphabet"], "alphabet")),
            patient_files=_strings(doc["patient_files"], "patient_files"),
            base_dir=Path(path).parent,
        )
    except KeyError as exc:
        raise MalformedJsonError(f"{path}: manifest missing key {exc}") from exc
    except (AttributeError, TypeError, OverflowError) as exc:
        raise MalformedJsonError(f"{path}: ill-typed manifest field: {exc}") from exc


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


def _read_csv_rows(path, expected_header: tuple[str, ...]) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            rows = [row for row in reader if row]
        except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
            raise MalformedCsvError(f"{path}:{reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise MalformedCsvError(_not_utf8(path, exc)) from None
    if header is None:
        raise MalformedCsvError(f"{path}: empty file")
    if [h.strip() for h in header] != list(expected_header):
        raise MalformedCsvError(
            f"{path}: expected header {','.join(expected_header)!r}, "
            f"got {','.join(header)!r}"
        )
    if not rows:
        raise MalformedCsvError(f"{path}: no data rows")
    return rows


def parse_label_csv(
    path,
    alphabet: StateAlphabet,
    expected_rate_hz: float | None = None,
    sequence_id: str | None = None,
) -> LabeledSequence:
    """Read a per-sample label CSV (header ``time_s,state``).

    Timestamps must ascend with uniform spacing (tolerance 1e-6 s).  The
    sampling rate is inferred from the spacing; when ``expected_rate_hz`` is
    given (from the manifest) the two are cross-checked to a relative 1e-6
    and the manifest rate is used, since it is exact where the text
    timestamps are rounded.
    """
    rows = _read_csv_rows(path, ("time_s", "state"))
    times = np.empty(len(rows))
    labels = np.empty(len(rows), dtype=np.int64)
    for i, row in enumerate(rows):
        if len(row) != 2:
            raise MalformedCsvError(f"{path}:{i + 2}: expected 2 fields, got {len(row)}")
        try:
            times[i] = float(row[0])
        except ValueError:
            raise MalformedCsvError(f"{path}:{i + 2}: bad time {row[0]!r}") from None
        name = row[1].strip()
        if name not in alphabet:
            raise UnknownStateError(f"{path}:{i + 2}: state {name!r} not in alphabet")
        labels[i] = alphabet.index(name)
    # NaN compares false, so the spacing checks below would not catch it
    bad = np.flatnonzero(~np.isfinite(times))
    if bad.size:
        i = int(bad[0])
        raise MalformedCsvError(f"{path}:{i + 2}: non-finite time {rows[i][0]!r}")
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
        if expected_rate_hz is not None:
            if abs(inferred - expected_rate_hz) > _RATE_REL_TOL * expected_rate_hz:
                raise RateMismatchError(
                    f"{path}: spacing implies {inferred:.6g} Hz but the manifest "
                    f"says {expected_rate_hz:.6g} Hz"
                )
            rate = expected_rate_hz
        else:
            rate = inferred
    elif expected_rate_hz is not None:
        rate = expected_rate_hz
    else:
        raise MalformedCsvError(
            f"{path}: cannot infer a sampling rate from a single row; "
            f"supply one via a manifest"
        )
    seq_id = sequence_id if sequence_id is not None else Path(path).stem
    return LabeledSequence(labels=labels, sampling_rate_hz=rate, id=seq_id)


def parse_runlength_csv(
    path,
    alphabet: StateAlphabet,
    sampling_rate_hz: float,
    sequence_id: str | None = None,
) -> RunSequence:
    """Read a run-length CSV (header ``state,duration_s``).

    Durations are quantized to samples by rounding half-up with a one-sample
    floor.  Adjacent rows with equal states are merged (in seconds, before
    quantization) with a normalization warning.
    """
    if not sampling_rate_hz > 0:
        raise ValueError("sampling_rate_hz must be positive")
    rows = _read_csv_rows(path, ("state", "duration_s"))
    states: list[int] = []
    seconds: list[float] = []
    durations: list[int] = []
    total = 0  # samples in all runs so far
    merged = False
    for i, row in enumerate(rows):
        if len(row) != 2:
            raise MalformedCsvError(f"{path}:{i + 2}: expected 2 fields, got {len(row)}")
        name = row[0].strip()
        if name not in alphabet:
            raise UnknownStateError(f"{path}:{i + 2}: state {name!r} not in alphabet")
        try:
            dur = float(row[1])
        except ValueError:
            raise MalformedCsvError(f"{path}:{i + 2}: bad duration {row[1]!r}") from None
        if not dur > 0:
            raise NonPositiveDurationError(f"{path}:{i + 2}: duration {dur!r} not > 0")
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
                f"{path}:{i + 2}: duration {row[1]!r} is non-finite or takes the "
                f"sample count past int64 at {sampling_rate_hz:g} Hz"
            )
        durations.append(run)
        total += run
    if merged:
        warnings.warn(
            f"{path}: merged adjacent runs with equal states",
            DataNormalizationWarning,
            stacklevel=2,
        )
    seq_id = sequence_id if sequence_id is not None else Path(path).stem
    return RunSequence(
        states=np.array(states, dtype=np.int64),
        durations=np.array(durations, dtype=np.int64),
        sampling_rate_hz=sampling_rate_hz,
        id=seq_id,
    )


def _sniff_header(path) -> tuple[str, ...]:
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            first = fh.readline()
    except UnicodeDecodeError as exc:
        raise MalformedCsvError(_not_utf8(path, exc)) from None
    return tuple(h.strip() for h in first.strip().split(","))


def load_sequences(manifest: CohortManifest) -> list[LabeledSequence]:
    """Load every patient file in a manifest as labeled sequences.

    The format of each file is recognized by its header; run-length files
    are quantized onto the manifest's sampling grid.
    """
    out = []
    for p in manifest.resolved_paths():
        header = _sniff_header(p)
        if header == ("time_s", "state"):
            out.append(
                parse_label_csv(
                    p, manifest.alphabet, expected_rate_hz=manifest.sampling_rate_hz
                )
            )
        elif header == ("state", "duration_s"):
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
    schema_version: int = SCHEMA_VERSION

    def to_semi_markov(self) -> SemiMarkovModel:
        if self.transitions.kind != SEMI_MARKOV:
            raise KindMismatchError(
                f"document holds a {self.transitions.kind!r} model, not semi_markov"
            )
        return SemiMarkovModel(
            transitions=self.transitions, dwell=dict(self.dwell), metadata=dict(self.metadata)
        )


def model_to_document(
    model: SemiMarkovModel | TransitionMatrix, metadata: dict[str, Any] | None = None
) -> ModelDocument:
    if isinstance(model, SemiMarkovModel):
        meta = dict(model.metadata)
        if metadata:
            meta.update(metadata)
        return ModelDocument(
            transitions=model.transitions, dwell=dict(model.dwell), metadata=meta
        )
    return ModelDocument(transitions=model, dwell={}, metadata=dict(metadata or {}))


def _dwell_to_dict(fit: DwellFit) -> dict[str, Any]:
    return {
        "family": fit.family,
        "params": {k: float(v) for k, v in fit.params.items()},
        "n_obs": fit.n_obs,
        "log_likelihood": fit.log_likelihood,
        "bic": fit.bic,
        "truncation_s": fit.truncation_s,
        "fallback": fit.fallback,
    }


def _dwell_from_dict(doc: dict[str, Any]) -> DwellFit:
    return DwellFit(
        family=doc["family"],
        params={k: float(v) for k, v in doc["params"].items()},
        n_obs=int(doc["n_obs"]),
        log_likelihood=doc["log_likelihood"],
        bic=doc["bic"],
        truncation_s=float(doc.get("truncation_s", 0.0)),
        fallback=bool(doc.get("fallback", False)),
    )


def document_to_dict(doc: ModelDocument) -> dict[str, Any]:
    tm = doc.transitions
    return {
        "schema_version": doc.schema_version,
        "alphabet": list(tm.alphabet.states),
        "kind": tm.kind,
        "transitions": [[float(x) for x in row] for row in tm.probs],
        "row_fitted": [bool(b) for b in tm.row_fitted],
        "dwell": {name: _dwell_to_dict(fit) for name, fit in doc.dwell.items()},
        "metadata": doc.metadata,
    }


def document_from_dict(raw: dict[str, Any], source: str = "<dict>") -> ModelDocument:
    try:
        version = raw["schema_version"]
        if version != SCHEMA_VERSION:
            raise SchemaVersionMismatchError(
                f"{source}: schema_version {version!r} unsupported (expected "
                f"{SCHEMA_VERSION})"
            )
        alphabet = build_alphabet(_strings(raw["alphabet"], "alphabet"))
        tm = TransitionMatrix(
            probs=np.array(raw["transitions"], dtype=float),
            alphabet=alphabet,
            row_fitted=np.array(raw["row_fitted"], dtype=bool),
            kind=raw["kind"],
        )
        dwell = {name: _dwell_from_dict(d) for name, d in raw["dwell"].items()}
        unknown = sorted(set(dwell) - set(alphabet.states))
        if unknown:
            raise MalformedJsonError(f"{source}: dwell states {unknown} not in alphabet")
        if not isinstance(raw["metadata"], dict):
            raise TypeError("metadata must be a JSON object")
        return ModelDocument(
            transitions=tm,
            dwell=dwell,
            metadata=dict(raw["metadata"]),
            schema_version=int(version),
        )
    except KeyError as exc:
        raise MalformedJsonError(f"{source}: model document missing key {exc}") from exc
    except (AttributeError, TypeError, OverflowError) as exc:
        raise MalformedJsonError(f"{source}: ill-typed model document field: {exc}") from exc


def write_model_json(
    model: SemiMarkovModel | TransitionMatrix | ModelDocument, path
) -> None:
    doc = model if isinstance(model, ModelDocument) else model_to_document(model)
    write_json(document_to_dict(doc), path)


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


def comparison_to_dict(report, context: dict[str, Any] | None = None) -> dict[str, Any]:
    """JSON-ready form of a ComparisonReport (aggregation rule stated inline)."""
    out = {
        "per_row_symmetric_kl_nats": dict(report.per_row),
        "aggregate_symmetric_kl_nats": report.aggregate,
        "aggregation": "unweighted mean over rows fitted in both matrices",
        "skipped_rows": list(report.skipped_rows),
        "smoothing_epsilon": report.smoothing_epsilon,
    }
    if context:
        out["context"] = context
    return out
