"""Fuzzing of the file readers.

Property: every input either parses or raises one of the three exception
types that ``cli.main`` reports as a one-line data error (exit 1):
SemiMarkovError, ValueError or OSError.  Anything else would reach the user
as a traceback.  The JSON readers are held to more: they raise only
MalformedJsonError or SchemaVersionMismatchError, with a message that starts
with the file's path.

The sequence CSV readers are also checked against a row-by-row reference
built on ``csv.reader``: on files without quotes both give the same sequence,
warnings and error, also when the readers scan the files in blocks of a few
bytes, so that line ends, blank lines, faults and runs cross block boundaries.
"""

import copy
import csv
import json
import math
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from semimarkov import io
from semimarkov.errors import (
    DataNormalizationWarning,
    MalformedCsvError,
    MalformedJsonError,
    NonPositiveDurationError,
    NonUniformSamplingError,
    RateMismatchError,
    SchemaVersionMismatchError,
    SemiMarkovError,
    UnknownStateError,
)
from semimarkov.io import (
    document_to_dict,
    parse_label_csv,
    parse_runlength_csv,
    read_manifest,
    read_model_json,
)
from semimarkov.presets import success_model
from semimarkov.sequences import LabeledSequence, RunSequence, build_alphabet, encode_runs

DATA_ERRORS = (SemiMarkovError, ValueError, OSError)
JSON_ERRORS = (MalformedJsonError, SchemaVersionMismatchError)
AB = build_alphabet(("A", "B"))

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.just(10**401)  # too large for a float
    | st.floats()
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=8,
)

MODEL = document_to_dict(success_model())
MANIFEST = {
    "group_label": "success",
    "sampling_rate_hz": 2.0,
    "alphabet": ["A", "B"],
    "patient_files": ["a.csv", "b.csv"],
}


def _paths(node, prefix=()):
    """Every position in a JSON document, the root included."""
    yield prefix
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from _paths(child, prefix + (key,))


def _put(doc, path, value):
    """A copy of doc with the node at path replaced by value."""
    if not path:
        return value
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def _reads_or_reports(reader, *args):
    try:
        reader(*args)
    except DATA_ERRORS:
        pass


def _reads_or_names_the_file(reader, path):
    try:
        reader(path)
    except JSON_ERRORS as exc:
        assert str(exc).startswith(f"{path}: "), exc


# JSON text that json.dumps cannot write: nesting deeper than the
# interpreter's stack, and integers past Python's 4300-digit limit
raw_json_values = (
    st.integers(1, 3000).map(lambda n: "[" * n + "]" * n)
    | st.integers(4200, 4400).map(lambda n: "7" * n)
)
_HOLE = "\x00hole"


def _text_with(doc, path, value, raw: str | None):
    """doc as JSON text with the node at path replaced by value, or by the
    raw JSON text raw."""
    if raw is None:
        return json.dumps(_put(doc, path, value))
    return json.dumps(_put(doc, path, _HOLE)).replace(json.dumps(_HOLE), raw)


@given(st.sampled_from(list(_paths(MODEL))), json_values,
       st.none() | raw_json_values)
def test_model_file_with_one_arbitrary_field(tmp_path_factory, path, value, raw):
    p = tmp_path_factory.mktemp("model") / "m.json"
    p.write_text(_text_with(MODEL, path, value, raw), encoding="utf-8")
    _reads_or_names_the_file(read_model_json, p)


@given(st.sampled_from(list(_paths(MANIFEST))), json_values,
       st.none() | raw_json_values)
def test_manifest_with_one_arbitrary_field(tmp_path_factory, path, value, raw):
    p = tmp_path_factory.mktemp("manifest") / "m.json"
    p.write_text(_text_with(MANIFEST, path, value, raw), encoding="utf-8")
    _reads_or_names_the_file(read_manifest, p)


# fields over csv.field_size_limit() (131072 characters) have to be built on
# purpose: random text never gets that long
csv_fields = (
    st.text(max_size=10)
    | st.sampled_from(["A", "B", "0.5", "1", "nan", "1e400", "\x00", "1\x002"])
    | st.builds(lambda c, n: c * n, st.sampled_from(["1", "A", "\x00"]),
                st.integers(131_000, 131_200))
)


@st.composite
def csv_bytes(draw, header):
    rows = draw(st.lists(st.lists(csv_fields, min_size=1, max_size=3), max_size=5))
    if draw(st.booleans()):
        header = draw(csv_fields)
    text = "\n".join([header] + [",".join(row) for row in rows]) + "\n"
    data = text.encode("utf-8", errors="surrogatepass")
    if draw(st.booleans()):  # a byte that is not valid UTF-8
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\x80"])) + data[at:]
    return data


@given(csv_bytes("time_s,state"))
def test_label_csv_bytes(tmp_path_factory, data):
    p = tmp_path_factory.mktemp("labels") / "x.csv"
    p.write_bytes(data)
    _reads_or_reports(parse_label_csv, p, AB, 1.0)


@given(csv_bytes("state,duration_s"))
def test_runlength_csv_bytes(tmp_path_factory, data):
    p = tmp_path_factory.mktemp("runs") / "r.csv"
    p.write_bytes(data)
    _reads_or_reports(parse_runlength_csv, p, AB, 1.0)


# --- the row-by-row reference --------------------------------------------------


def _reference_rows(path, expected_header):
    """Data rows and their file lines, as csv.reader reads them."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        rows = [(row, reader.line_num) for row in reader if row]
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


def reference_label_csv(path, alphabet, sampling_rate_hz):
    rows = _reference_rows(path, ("time_s", "state"))
    times, labels = [], []
    for row, line in rows:
        if len(row) != 2:
            raise MalformedCsvError(f"{path}:{line}: expected 2 fields, got {len(row)}")
        try:
            times.append(float(row[0]))
        except ValueError:
            raise MalformedCsvError(f"{path}:{line}: bad time {row[0]!r}") from None
        name = row[1].strip()
        if name not in alphabet:
            raise UnknownStateError(f"{path}:{line}: state {name!r} not in alphabet")
        labels.append(alphabet.index(name))
    for t, (row, line) in zip(times, rows):
        if not math.isfinite(t):
            raise MalformedCsvError(f"{path}:{line}: non-finite time {row[0]!r}")
    if len(times) >= 2:
        spacing = np.diff(times)
        if spacing.min() <= 0:
            raise NonUniformSamplingError(f"{path}: timestamps must strictly ascend")
        if spacing.max() - spacing.min() > 1e-6:
            raise NonUniformSamplingError(
                f"{path}: sample spacing varies by "
                f"{spacing.max() - spacing.min():.3g} s (tolerance 1e-06 s)"
            )
        inferred = 1.0 / float(np.mean(spacing))
        if abs(inferred - sampling_rate_hz) > 1e-6 * sampling_rate_hz:
            raise RateMismatchError(
                f"{path}: spacing implies {inferred:.6g} Hz but the manifest "
                f"says {sampling_rate_hz:.6g} Hz"
            )
    return LabeledSequence(labels, sampling_rate_hz, Path(path).stem)


def reference_runlength_csv(path, alphabet, sampling_rate_hz):
    states, seconds, durations, total = [], [], [], 0
    merged = False
    for row, line in _reference_rows(path, ("state", "duration_s")):
        if len(row) != 2:
            raise MalformedCsvError(f"{path}:{line}: expected 2 fields, got {len(row)}")
        name = row[0].strip()
        if name not in alphabet:
            raise UnknownStateError(f"{path}:{line}: state {name!r} not in alphabet")
        try:
            dur = float(row[1])
        except ValueError:
            raise MalformedCsvError(f"{path}:{line}: bad duration {row[1]!r}") from None
        if not dur > 0:
            raise NonPositiveDurationError(f"{path}:{line}: duration {dur!r} not > 0")
        if states and states[-1] == alphabet.index(name):
            seconds[-1] += dur
            total -= durations.pop()
            merged = True
        else:
            states.append(alphabet.index(name))
            seconds.append(dur)
        samples = seconds[-1] * sampling_rate_hz + 0.5
        run = max(1, math.floor(samples)) if samples < 2.0**63 else math.inf
        if not total + run < 2.0**63:
            raise MalformedCsvError(
                f"{path}:{line}: duration {row[1]!r} is non-finite or takes the "
                f"sample count past int64 at {sampling_rate_hz:g} Hz"
            )
        durations.append(run)
        total += run
    if merged:
        warnings.warn(f"{path}: merged adjacent runs with equal states",
                      DataNormalizationWarning)
    return RunSequence(np.array(states, dtype=np.int64),
                       np.array(durations, dtype=np.int64), sampling_rate_hz,
                       Path(path).stem)


# --- files that mix good rows with every kind of fault ----------------------------

_RATE_HZ = 4.0
# no '"': quoting is not part of the format; no NUL: csv.reader rejects it on
# Python 3.10 only; no surrogates: the files are valid UTF-8
_text = st.text(st.characters(exclude_characters='"\x00', exclude_categories=("Cs",)),
                max_size=4)


@st.composite
def _csv_text(draw, header, row):
    """A CSV file holding up to two faults, each in a field picked at random."""
    faults = draw(st.integers(0, 2))

    def pick(good, bad):
        nonlocal faults
        if not faults or draw(st.integers(0, 1)):
            return draw(st.sampled_from(good))
        faults -= 1
        return draw(st.sampled_from(bad) if draw(st.integers(0, 3)) else _text)

    headers = [header, header.replace(",", " , ")] * 8 + [header + ",", header[:6], ""]
    lines = [draw(st.sampled_from(headers))]
    for _ in range(draw(st.integers(0, 8))):
        if draw(st.integers(0, 5)) == 0:
            lines.append(pick([""], [" ", "\t", ","]))
        else:
            first, second = row(pick, len([line for line in lines[1:] if line]))
            lines.append(first + pick([",", " , "], ["", ",,", ", ,"])
                         + second)
    eol = draw(st.sampled_from(["\n", "\r\n", "\r", None]))  # None: mixed
    ends = [eol or draw(st.sampled_from(["\n", "\r\n", "\r"])) for _ in lines]
    if draw(st.booleans()):
        ends[-1] = ""
    return "".join(line + end for line, end in zip(lines, ends))


_states = (["A", "B", " A", "B\t", "\u3000A "], ["C", "a", ""])


def _label_row(pick, k):
    t = f"{k / _RATE_HZ}"
    bad_times = [f"{(k + 0.5) / _RATE_HZ}", "nan", "inf", "-1e400", "1e400", "x", "", t + "x"]
    return pick([t, f" {t} ", t + "0", "+" + t], bad_times), pick(*_states)


def _runlength_row(pick, k):
    bad_durations = ["1e300", "inf", "0", "-1", "nan", "x", ""]
    return pick(*_states), pick(["0.25", "1", "0.5", " 2.5 ", "1e-9"], bad_durations)


def _outcome(parse, *args):
    """What a reader gives: (sequence runs, rate, id) or the error, and warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            seq = parse(*args)
        except SemiMarkovError as exc:
            result = (type(exc), str(exc))
        else:
            runs = seq if isinstance(seq, RunSequence) else encode_runs(seq)
            result = (runs.runs, seq.sampling_rate_hz, seq.id)
    return result, [(w.category, str(w.message)) for w in caught]


@settings(max_examples=300)
@given(_csv_text("time_s,state", _label_row), st.sampled_from([_RATE_HZ, 2.0]))
def test_label_csv_matches_row_by_row_reference(tmp_path_factory, text, rate):
    p = tmp_path_factory.mktemp("labels") / "x.csv"
    p.write_bytes(text.encode("utf-8"))
    assert _outcome(parse_label_csv, p, AB, rate) == _outcome(
        reference_label_csv, p, AB, rate)


@settings(max_examples=300)
@given(_csv_text("state,duration_s", _runlength_row))
def test_runlength_csv_matches_row_by_row_reference(tmp_path_factory, text):
    p = tmp_path_factory.mktemp("runs") / "r.csv"
    p.write_bytes(text.encode("utf-8"))
    assert _outcome(parse_runlength_csv, p, AB, _RATE_HZ) == _outcome(
        reference_runlength_csv, p, AB, _RATE_HZ)


# blocks of 1 byte hold one line each, and blocks of a few dozen bytes a few
@settings(max_examples=300)
@given(_csv_text("time_s,state", _label_row), st.sampled_from([_RATE_HZ, 2.0]),
       st.integers(1, 40))
def test_label_csv_in_small_blocks_matches_reference(tmp_path_factory, text, rate, block):
    p = tmp_path_factory.mktemp("labels") / "x.csv"
    p.write_bytes(text.encode("utf-8"))
    with mock.patch.object(io, "_BLOCK_BYTES", block):
        assert _outcome(parse_label_csv, p, AB, rate) == _outcome(
            reference_label_csv, p, AB, rate)


@settings(max_examples=300)
@given(_csv_text("state,duration_s", _runlength_row), st.integers(1, 40))
def test_runlength_csv_in_small_blocks_matches_reference(tmp_path_factory, text, block):
    p = tmp_path_factory.mktemp("runs") / "r.csv"
    p.write_bytes(text.encode("utf-8"))
    with mock.patch.object(io, "_BLOCK_BYTES", block):
        assert _outcome(parse_runlength_csv, p, AB, _RATE_HZ) == _outcome(
            reference_runlength_csv, p, AB, _RATE_HZ)
