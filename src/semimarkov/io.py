"""File formats: cohort manifests, sequence CSVs, model JSON, histograms.

Everything written here is canonical and timestamp-free so identical inputs
produce byte-identical files (the determinism contract the CLI tests rely
on).  JSON is emitted by ``json.dumps`` with sorted keys and no whitespace,
and every float, in JSON and CSV alike, is printed as ``repr`` prints it: the
shortest text that round-trips the double, which always holds a "." or an
"e", so a float never reparses as an int.  Short decimals take exact numpy
kernels instead, with the same bytes and values: a block of label CSV times
is printed from its digits (``_decimal_rows``), and one of times or
durations, at most 8 bytes each, parsed from them (``_decimal_times``); any
other block goes through ``repr`` and ``float()``.  A model file reads back
as the ``SemiMarkovModel`` the fitters return; a DTMC file is one with no
dwell fits.

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
the time or state check like any other stray character.  The readers check
the rows in one pass over each block's fields (``_field_pass``) and raise
the fault a row-by-row reader meets first, the first in the file;
the writers refuse, before the file is opened, a state outside the alphabet
and a name the readers could not read back (one holding a comma, a line end
or a surrogate, which UTF-8 cannot encode, or with whitespace around it).
A byte that is not UTF-8 fails with the file, line and byte that one decode
of the bytes read names, and no file is read again to find them.
``load_sequences`` picks the reader by a file's header line, read alone.

Memory grows with a file's bytes and its runs, not with per-row objects: the
sequence readers scan the file's bytes in blocks that end just past the first
line end at or beyond 128 KiB, keeping only per-run state from block to
block, and the writers format 4096 rows at a time.  Each function's docstring
gives its figure.
"""

from __future__ import annotations

import codecs
import json
import math
import re
import warnings
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, NamedTuple

import numpy as np

from .compare import SMOOTHING_EPSILON
from .dwell import DwellFit, log_pdf
from .errors import (
    DataNormalizationWarning,
    EmptyInputError,
    MalformedCsvError,
    MalformedJsonError,
    NonPositiveDurationError,
    NonUniformSamplingError,
    RateMismatchError,
    SchemaVersionMismatchError,
    SemiMarkovError,
    UnknownStateError,
)
from .fitting import SemiMarkovModel, TransitionMatrix
from .sequences import (
    LabeledSequence,
    RunSequence,
    StateAlphabet,
    _check_rate,
    _run_samples,
    build_alphabet,
    decode_runs,
    encode_runs,
)

SCHEMA_VERSION = 1

# Absolute tolerance (seconds) for uniform sample spacing in label CSVs and
# relative tolerance for the cross-check of that spacing against the rate.
_SPACING_TOL_S = 1e-6
_RATE_REL_TOL = 1e-6
# Run-length durations must quantize to a sample count that fits in int64.
_INT64_LIMIT = 2.0**63
# Bytes of a sequence CSV scanned at once (about 11 k rows of a 50 Hz label
# file), and rows of a label or histogram CSV formatted at once.
_BLOCK_BYTES = 1 << 17
_ROWS_PER_BLOCK = 1 << 12
_LINE_END = re.compile(rb"[\r\n]")


# --- canonical JSON ----------------------------------------------------------


def float_text(x: float) -> str:
    """The shortest decimal text that round-trips the double exactly; it
    always reparses as a float (never an int)."""
    if not math.isfinite(x):
        raise ValueError(f"non-finite float {x!r} cannot be serialized")
    return repr(float(x))


def canonical_json(obj) -> str:
    """Deterministic JSON text: sorted keys, compact, shortest round-trip floats."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


def write_json(obj, path) -> None:
    Path(path).write_text(canonical_json(obj), encoding="ascii")


def _require_utf8(path, data: bytes, error: type[SemiMarkovError]) -> None:
    """Raise ``error`` naming ``path`` and the line (LF, CR and CRLF end one)
    and byte of the first byte of ``data`` that is not UTF-8, as one decode of
    all of ``data`` names them; the decoder takes a block at a time."""
    if data.isascii():
        return
    decoder, view = codecs.getincrementaldecoder("utf-8")(), memoryview(data)
    for lo in range(0, len(data), _BLOCK_BYTES):
        held = len(decoder.getstate()[0])
        try:
            decoder.decode(view[lo:lo + _BLOCK_BYTES], final=lo + _BLOCK_BYTES >= len(data))
        except UnicodeDecodeError as exc:
            at = lo - held + exc.start  # held: a cut character's bytes, from before lo
            crlf = data.count(b"\r\n", 0, at)
            line = 1 + data.count(b"\n", 0, at) + data.count(b"\r", 0, at) - crlf
            raise error(f"{path}:{line}: not valid UTF-8: {exc.reason} (byte {at})") from None


def read_json(path):
    data = Path(path).read_bytes()
    _require_utf8(path, data, MalformedJsonError)
    try:  # with LF line ends, as text mode reads them, for the error positions
        return json.loads(data.decode().replace("\r\n", "\n").replace("\r", "\n"))
    # ValueError: not JSON, or an integer past Python's digit limit;
    # RecursionError: nesting deeper than the interpreter's stack
    except (ValueError, RecursionError) as exc:
        raise MalformedJsonError(f"{path}: {exc}") from exc


@contextmanager
def _fields_of(source, what: str):
    """Report a missing, ill-typed or invalid field of a JSON document (``what``)
    as one MalformedJsonError that names the file ``source``."""
    try:
        yield
    except KeyError as exc:
        raise MalformedJsonError(f"{source}: {what} missing key {exc}") from exc
    except (AttributeError, TypeError, OverflowError) as exc:
        raise MalformedJsonError(f"{source}: ill-typed {what} field: {exc}") from exc
    except SchemaVersionMismatchError:
        raise
    # e.g. a rate that is not a finite number > 0, a matrix whose rows do not
    # sum to 1, a one-state alphabet
    except (ValueError, SemiMarkovError) as exc:
        raise MalformedJsonError(f"{source}: {exc}") from exc


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
        if not isinstance(self.group_label, str):
            raise ValueError(  # worded as read_manifest words its ill-typed fields
                "ill-typed manifest field: group_label must be a string, not "
                + type(self.group_label).__name__
            )
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


def _finite_or_null(value, what: str) -> float | None:
    """A finite JSON number as a float, or None for null; raises TypeError for
    any other type and ValueError for NaN or an infinity."""
    if value is None:
        return None
    x = _number(value, what)
    if not math.isfinite(x):
        raise ValueError(f"{what} must be a finite number or null, got {value!r}")
    return x


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
    with _fields_of(path, "manifest"):
        return CohortManifest(
            group_label=doc["group_label"],
            sampling_rate_hz=_number(doc["sampling_rate_hz"], "sampling_rate_hz"),
            alphabet=build_alphabet(_strings(doc["alphabet"], "alphabet")),
            patient_files=_strings(doc["patient_files"], "patient_files"),
            base_dir=Path(path).parent,
        )


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


def _after_line_end(data: bytes, k: int) -> int:
    """The offset just past the line end at ``data[k]``, a CRLF pair whole."""
    return k + 1 + (data[k:k + 2] == b"\r\n")


def _block_end(data: bytes, pos: int) -> int:
    """Where the block of ``data`` that starts at ``pos`` ends: just past the
    first line end at or beyond ``pos + _BLOCK_BYTES`` (a CRLF pair whole, so
    one that straddles that offset too), else at the end of the data."""
    found = _LINE_END.search(data, pos + _BLOCK_BYTES)
    return len(data) if found is None else _after_line_end(data, found.start())


class _Block(NamedTuple):
    """The data rows of one block of a sequence CSV: bytes that hold the
    block from offset ``begin`` on, with every line end ``"\\n"``; the offsets
    of each row's start, its one comma and its end in them, every comma at
    least 8 bytes in; the index in the file of the block's first row; and the
    file's lines ahead of the block."""

    path: Any
    data: bytes
    begin: int
    starts: np.ndarray
    commas: np.ndarray
    ends: np.ndarray
    first: int
    line: int

    def at(self, i: int) -> str:
        """The ``path:line`` of the block's row i."""
        line = self.line + 1 + self.data.count(b"\n", self.begin, self.starts[i])
        return f"{self.path}:{line}"


def _scan(data: bytes, begin: int, end: int):
    """The rows of ``data[begin:end]``, whose lines all end in ``"\\n"``, up
    to the first that does not hold two fields: their starts, commas and ends
    in ``data``, the line count, and that row's line index and field count
    (None if every row holds two fields)."""
    # "\n" and "," are one byte each in UTF-8 and never part of another
    # character
    buf = np.frombuffer(data, np.uint8, end - begin, begin)
    ends = np.flatnonzero(buf == 10)
    ends += begin
    commas = np.flatnonzero(buf == 44)
    commas += begin
    starts = np.empty_like(ends)
    starts[0] = begin  # the block starts after a line end
    np.add(ends[:-1], 1, out=starts[1:])
    # the common block, whose k-th comma is in line k for every k: every line
    # holds one comma, so none is blank or faulty and no array is gathered
    if commas.size == ends.size and (commas < ends).all() and (commas >= starts).all():
        return starts, commas, ends, ends.size, None
    before = np.searchsorted(commas, ends)  # the commas ahead of each line's end
    count = np.diff(before, prepend=0)  # each line's commas
    bad = np.flatnonzero((count != 1) & (ends > starts))  # blank lines hold none
    cut = int(bad[0]) if bad.size else ends.size
    rows = np.flatnonzero(count[:cut] == 1)
    fault = (cut, int(count[cut]) + 1) if bad.size else None
    return starts[rows], commas[before[rows] - 1], ends[rows], ends.size, fault


class _Rows:
    """The data rows of a sequence CSV, scanned in blocks that each end just
    past the first line end at or beyond _BLOCK_BYTES bytes (``_block_end``).

    Building one reads the file's bytes once and checks them: valid UTF-8 (a
    fault names the line and byte that one decode of those bytes names), not
    empty, the expected header.  Iterating yields each block's rows as a
    ``_Block``; blank lines are skipped but counted.  The rows stop before the
    first row that does not hold exactly two fields, and the iteration after
    the rows ahead of it raises its error, so the caller checks those rows
    first, as a row-by-row reader would.  A file with no data rows raises when
    the scan ends.  Beyond the file's bytes, no array spans more than one
    block and no per-row object is built: a block is copied only to make its
    line ends ``"\\n"``.
    """

    def __init__(self, path, header: tuple[str, str]) -> None:
        self.path = path
        self.data = data = Path(path).read_bytes()
        _require_utf8(path, data, MalformedCsvError)
        if not data:
            raise MalformedCsvError(f"{path}: empty file")
        found = _LINE_END.search(data)  # lines end in LF, CRLF or CR
        self.body = len(data) if found is None else _after_line_end(data, found.start())
        first = data[:len(data) if found is None else found.start()].decode()
        if _header(first) != header:
            raise MalformedCsvError(
                f"{path}: expected header {','.join(header)!r}, got {first!r}"
            )

    def __iter__(self) -> Iterator[_Block]:
        data, path = self.data, self.path
        pos, line, row = self.body, 1, 0  # line: the file's lines ahead of the block
        while pos < len(data):
            block, begin, end = data, pos, _block_end(data, pos)
            pos = end
            if data.find(b"\r", begin, end) >= 0 or data[end - 1] != 10:
                # 8 bytes of slack ahead of the rows, as the header is in the
                # file, so that every comma is at least 8 bytes in
                block = bytes(8) + data[begin:end]
                block = block.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
                if not block.endswith(b"\n"):
                    block += b"\n"  # every line ends in "\n", the last one too
                begin, end = 8, len(block)
            starts, commas, ends, n_lines, fault = _scan(block, begin, end)
            n = starts.size
            if n:
                yield _Block(path, block, begin, starts, commas, ends, row, line)
            del starts, commas, ends  # before the next block is scanned
            if fault is not None:
                raise MalformedCsvError(
                    f"{path}:{line + 1 + fault[0]}: expected 2 fields, got {fault[1]}")
            line, row = line + n_lines, row + n
        if not row:
            raise MalformedCsvError(f"{path}: no data rows")


def _texts(data: bytes, lo: np.ndarray, hi: np.ndarray) -> list[str]:
    """The fields ``data[lo[i]:hi[i]]`` as strings."""
    return [data[a:b].decode() for a, b in zip(lo.tolist(), hi.tolist())]


# 64-bit words whose eight bytes are all one byte
_ASCII_0, _DOT, _HIGH_NIBBLES, _LOW7, _SIX, _ONES = (
    np.uint64(b * 0x0101010101010101) for b in (0x30, 0x2E, 0xF0, 0x7F, 0x06, 0x01))
_ALL_BITS = np.uint64(2**64 - 1)
_LONE_DOT = np.uint64(0x2E30303030303030)  # "." padded with "0"s, as "0." is
_TWO_DOTS = np.uint64(2 << 56)
# mask-multiply-shift steps that combine eight ASCII digits, the first in the
# lowest byte, into pairs, fours and the whole number
_COMBINE = tuple(tuple(map(np.uint64, step)) for step in (
    (0x0F0F0F0F0F0F0F0F, 10 << 8 | 1, 8),
    (0x00FF00FF00FF00FF, 100 << 16 | 1, 16),
    (0x0000FFFF0000FFFF, 10000 << 32 | 1, 32)))
_DIVISORS = 10.0 ** np.arange(8, -1, -1)  # 10**(8 - p), p bytes ahead of the "."


def _decimal_times(data: bytes, lo: np.ndarray, hi: np.ndarray) -> np.ndarray | None:
    """The numbers ``data[lo[i]:hi[i]]``, each ``hi`` at least 8 bytes in, or
    None unless every one is 1 to 8 bytes of ASCII digits and at most one
    ".", with a digit.

    The 8 bytes that end at each ``hi`` are read as one little-endian word,
    the bytes ahead of the number are set to "0", and the "." is found by an
    exact zero-byte test and dropped.  The digits combine into k < 10**8
    by three mask-multiply-shift steps, and the number is k / 10**f, f the
    digits after the ".".  Both are exact doubles, so the quotient is the
    decimal correctly rounded, which is what ``float()`` returns.  Everything
    else ``float()`` reads (signs, exponents, spaces, "_", other digits,
    "inf", "nan"), and the texts "." and "0." alike, is declined.  Beyond
    the numbers, memory is two words a row.
    """
    scratch = hi - 8
    word = np.ndarray(len(data) - 7, "<u8", data, strides=(1,))[scratch]
    np.subtract(hi, lo, out=scratch)
    if scratch.min() < 1 or scratch.max() > 8:
        return None
    mask = scratch.view(np.uint64)
    np.subtract(8, mask, out=mask)
    mask <<= np.uint64(3)
    np.left_shift(_ALL_BITS, mask, out=mask)  # the number's bytes
    word ^= _ASCII_0
    word &= mask
    word ^= _ASCII_0  # "0" ahead of the number
    if (word == _LONE_DOT).any():
        return None
    # the exact zero-byte test on word ^ _DOT, whose top bits are word's: the
    # top bit of a byte ends up set unless the byte is "."
    dots = mask
    np.bitwise_xor(word, _DOT, out=dots)
    dots &= _LOW7
    dots += _LOW7
    dots |= word
    np.invert(dots, out=dots)
    dots >>= np.uint64(7)
    dots &= _ONES  # 1 in each "." byte
    word += dots
    word += dots  # "." (0x2E) becomes "0" (0x30)
    times = np.empty(word.size)
    check = times.view(np.uint64)
    np.bitwise_and(word, _HIGH_NIBBLES, out=check)
    if (check != _ASCII_0).any():
        return None
    np.add(word, _SIX, out=check)
    check &= _HIGH_NIBBLES
    if (check != _ASCII_0).any():  # a byte 0x3A-0x3F
        return None
    dots *= _ONES  # byte j: the "."s in bytes 0..j; the top byte, all of them
    if (dots >= _TWO_DOTS).any():
        return None
    # drop the ".": the bytes after it move down one, and a 0 enters at the top
    dots *= np.uint64(0xFF)  # the bytes from the "." on
    np.right_shift(word, np.uint64(8), out=check)
    check &= dots
    np.invert(dots, out=dots)  # the bytes ahead of the "."; all 8 without one
    word &= dots
    word |= check
    for keep, multiplier, shift in _COMBINE:
        word &= keep
        word *= multiplier
        word >>= shift
    # p, the bytes ahead of the "." (8 without one): the word is k * 10**(8 - p - f)
    dots &= _ONES
    dots *= _ONES
    dots >>= np.uint64(56)
    np.take(_DIVISORS, scratch, out=times, mode="clip")
    np.divide(word, times, out=times)
    return times


def _float_times(data: bytes, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The numbers ``data[lo[i]:hi[i]]`` as ``float()`` reads them, up to the
    first one it refuses: the result is shorter than ``lo`` exactly when one
    does."""
    numbers = np.empty(lo.size)
    for i, text in enumerate(_texts(data, lo, hi)):
        try:
            numbers[i] = float(text)
        except ValueError:
            return numbers[:i]
    return numbers


def _run_heads(data: bytes, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The rows whose field ``data[lo:hi]`` differs from the row before's,
    row 0 and every empty field included.

    The rows are grouped by field length, and each group's fields are
    gathered once as byte strings of that length, so no array holds more than
    those fields' own bytes.  numpy compares byte strings of one length byte
    for byte.
    """
    lens = hi - lo
    head = np.ones(lens.size, bool)
    if lens.min() == lens.max():  # one length, as with names of one length
        if lens[0]:
            fields = _fields(data, int(lens[0]), lo)
            head[1:] = fields[1:] != fields[:-1]
        return np.flatnonzero(head)
    order = np.argsort(lens, kind="stable")  # the rows of each length, in file order
    for rows in np.split(order, np.flatnonzero(np.diff(lens[order])) + 1):
        width = int(lens[rows[0]])
        if width:
            fields = _fields(data, width, lo[rows])
            head[rows[1:]] = (np.diff(rows) != 1) | (fields[1:] != fields[:-1])
    return np.flatnonzero(head)


def _fields(data: bytes, width: int, lo: np.ndarray) -> np.ndarray:
    """The ``width`` bytes from each offset in ``lo``, as byte strings."""
    return np.ndarray(len(data) - width + 1, f"S{width}", data, 0, strides=(1,))[lo]


def _field_pass(block: _Block, names, numbers, alphabet: StateAlphabet, what: str):
    """One pass over a block's state names, at the offsets ``names`` (lo,
    hi), and its numbers, at ``numbers``: the rows where the name's text
    changes (row 0 included) and their states (-1 if not in ``alphabet``), the
    numbers of the rows ahead of the block's first fault, and its error, or
    None.  A fault is a number ``float()`` refuses (a bad ``what``) or an
    unknown state, whichever comes first in the file."""
    data, index = block.data, {name: i for i, name in enumerate(alphabet.states)}
    values = _decimal_times(data, *numbers)
    if values is None:
        values = _float_times(data, *numbers)
    heads = _run_heads(data, *names)
    texts = [name.strip() for name in _texts(data, names[0][heads], names[1][heads])]
    states = np.array([index.get(name, -1) for name in texts], np.int64)
    fault, stop, at = None, values.size, len(data)  # the first fault's row and offset
    if stop < numbers[0].size:  # float() refused the number of row stop
        at = numbers[0][stop]
        fault = MalformedCsvError(
            f"{block.at(stop)}: bad {what} {data[at:numbers[1][stop]].decode()!r}")
    unknown = np.flatnonzero(states < 0)
    if unknown.size and names[0][heads[unknown[0]]] < at:
        k = int(unknown[0])
        stop = int(heads[k])
        fault = UnknownStateError(f"{block.at(stop)}: state {texts[k]!r} not in alphabet")
    return heads, states, values[:stop], fault


def parse_label_csv(path, alphabet: StateAlphabet, sampling_rate_hz: float) -> LabeledSequence:
    """Read a per-sample label CSV (header ``time_s,state``), whose id is the
    file's stem.

    Timestamps must ascend with uniform spacing (tolerance 1e-6 s), and the
    rate that spacing implies must match ``sampling_rate_hz`` (the manifest's)
    to a relative 1e-6.  The sequence carries ``sampling_rate_hz``, which is
    exact where the text timestamps are rounded.  Each block's fields are
    read in one pass (``_field_pass``): times as ``float()`` parses them,
    exactly in numpy when every time of the block is a decimal of at most 8
    bytes (digits and one "."), otherwise by ``float()`` row by row, and each
    state name looked up once per run of rows that spell it alike.  Memory
    beyond the file's bytes is one block, 8 bytes per row for the times (16
    while they are joined), and the runs.
    """
    _check_rate(sampling_rate_hz)
    heads, states, times = [], [], []  # per block; _Rows yields one at least or raises
    nonfinite = None  # the error of the first NaN or infinite time
    for block in _Rows(path, _LABEL_HEADER):
        starts, commas = block.starts, block.commas
        block_heads, block_states, block_times, fault = _field_pass(
            block, (commas + 1, block.ends), (starts, commas), alphabet, "time")
        if fault is not None:
            raise fault
        bad = np.flatnonzero(~np.isfinite(block_times))
        if nonfinite is None and bad.size:
            j = int(bad[0])
            nonfinite = MalformedCsvError(f"{block.at(j)}: non-finite time "
                                          f"{block.data[starts[j]:commas[j]].decode()!r}")
        heads.append(block_heads + block.first)
        states.append(block_states)
        times.append(block_times)
        # before the next block is scanned; after the last, the file's bytes
        # go with the rows, before the spacing takes 8 bytes a row
        del block, starts, commas
    # NaN compares false, so the spacing checks below would not catch it
    if nonfinite is not None:
        raise nonfinite
    heads, states, times = np.concatenate(heads), np.concatenate(states), np.concatenate(times)
    if times.size >= 2:
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
    # rows that spell one state differently (" A" after "A"), and a run that
    # a block edge cuts, join one run
    keep = np.append(True, states[1:] != states[:-1])
    durations = np.diff(heads[keep], append=times.size)
    return decode_runs(RunSequence(states[keep], durations, sampling_rate_hz, Path(path).stem))


def parse_runlength_csv(path, alphabet: StateAlphabet, sampling_rate_hz: float) -> RunSequence:
    """Read a run-length CSV (header ``state,duration_s``), whose id is the
    file's stem.

    Durations and states are read as ``parse_label_csv`` reads times and
    states, and quantized to samples by rounding half-up with a one-sample
    floor.  Adjacent rows with equal states are merged (in seconds, before
    quantization) with a normalization warning.  Memory beyond the file's
    bytes is one block and the runs.
    """
    _check_rate(sampling_rate_hz)
    states: list[int] = []
    seconds: list[float] = []
    durations: list[int] = []
    total = 0  # samples in all runs so far
    merged = False
    for block in _Rows(path, _RUNLENGTH_HEADER):
        starts, commas, ends = block.starts, block.commas, block.ends
        heads, names, values, fault = _field_pass(
            block, (starts, commas), (commas + 1, ends), alphabet, "duration")
        row_states = np.repeat(names, np.diff(heads, append=commas.size))
        # the rows ahead of the block's fault, where values stops
        for i, (state, dur) in enumerate(zip(row_states.tolist(), values.tolist())):
            if not dur > 0:
                raise NonPositiveDurationError(f"{block.at(i)}: duration {dur!r} not > 0")
            if states and states[-1] == state:
                seconds[-1] += dur
                total -= durations.pop()
                merged = True
            else:
                states.append(state)
                seconds.append(dur)
            samples = seconds[-1] * sampling_rate_hz + 0.5
            run = (_run_samples(seconds[-1], sampling_rate_hz) if samples < _INT64_LIMIT
                   else math.inf)
            # the run's sample count and the file's total must fit in int64; an
            # infinite duration fails too
            if not total + run < _INT64_LIMIT:
                raise MalformedCsvError(
                    f"{block.at(i)}: duration {block.data[commas[i] + 1:ends[i]].decode()!r} is "
                    f"non-finite or takes the sample count past int64 at {sampling_rate_hz:g} Hz"
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
    return RunSequence(states, durations, sampling_rate_hz, Path(path).stem)


def _sniff_header(path) -> tuple[str, ...]:
    """The header of a sequence CSV, read and checked from its first line alone."""
    chunks = []  # a block at a time, up to the first LF or CR
    with open(path, "rb") as fh:
        while chunk := fh.read(_BLOCK_BYTES):
            found = _LINE_END.search(chunk)
            if found is not None:
                # with its line end, so that a character the line end cuts fails as in the file
                chunks.append(chunk[:found.start() + 1])
                break
            chunks.append(chunk)
    first = b"".join(chunks)
    _require_utf8(path, first, MalformedCsvError)
    return _header(first.decode())


def load_sequences(manifest: CohortManifest) -> list[LabeledSequence]:
    """Load every patient file in a manifest as labeled sequences.

    The format of each file is recognized by its header line, read alone;
    run-length files are quantized onto the manifest's sampling grid.
    """
    out, alphabet, rate = [], manifest.alphabet, manifest.sampling_rate_hz
    for p in manifest.resolved_paths():
        header = _sniff_header(p)
        if header == _LABEL_HEADER:
            out.append(parse_label_csv(p, alphabet, rate))
        elif header == _RUNLENGTH_HEADER:
            out.append(decode_runs(parse_runlength_csv(p, alphabet, rate)))
        else:
            raise MalformedCsvError(
                f"{p}: unrecognized header {','.join(header)!r}; expected "
                f"'time_s,state' or 'state,duration_s'"
            )
    return out


def _is_decimal(times: np.ndarray, places: int) -> bool:
    """Whether every time is a decimal with `places` digits after the point."""
    scale = 10.0**places
    return bool((np.rint(times * scale) / scale == times).all())


def _decimal_rows(times: np.ndarray, states: np.ndarray, ends: list[bytes]) -> bytes | None:
    """The rows ``float_text(t)`` + ``ends[state]`` (UTF-8) of times t >= 0
    other than -0.0, or None unless every t is 0 or at least 1e-4 (below it
    ``repr`` writes an exponent) and, for one d, a decimal k / 10**d with
    k < 10**15.

    Then each row is k's digits with a "." inserted d places from the right,
    trailing fraction zeros dropped but one kept, which is ``repr``'s text:
    k / 10**d is correctly rounded, so equality proves the decimal reads back
    as t, and two decimals of at most 15 significant digits never share a
    double, so no shorter text does.  The digits come from float arithmetic,
    exact on integers below 2**53, into one byte matrix padded with 0xFF,
    which UTF-8 never holds.
    """
    top = float(times.max())
    if not (top < 1e15 and ((times == 0) | (times >= 1e-4)).all()):
        return None
    whole = len(str(int(top))) if top >= 1 else 0  # digits before the point
    if not _is_decimal(times, 15 - whole):
        return None  # then no smaller d works either
    places = next(d for d in range(16 - whole) if _is_decimal(times, d))
    q = np.rint(times * 10.0**places)
    point = max(whole, 1)  # the column of the "."
    suffix = point + 1 + max(places, 1)  # the first column of the row end
    width = max(map(len, ends))
    table = np.array([end.ljust(width, b"\xff") for end in ends])
    out = np.empty((len(times), suffix + width), np.uint8)
    out[:, suffix:] = table[states].view(np.uint8).reshape(len(times), width)
    out[:, point], out[:, point + 1] = ord("."), ord("0")
    seen = np.zeros(len(times), bool)  # a digit other than 0 at or after c
    for c in range(point + places, point, -1):
        rest = np.floor(q / 10)
        digit = q - 10 * rest
        seen |= (digit != 0) | (c == point + 1)
        out[:, c] = np.where(seen, digit + 48, 255)
        q = rest
    for c in range(point - 1, -1, -1):
        rest = np.floor(q / 10)
        out[:, c] = np.where((q != 0) | (c == point - 1), q - 10 * rest + 48, 255)
        q = rest
    return out.tobytes().translate(None, b"\xff")


def _check_writable(runs: RunSequence, alphabet: StateAlphabet, samples: int, what: str) -> None:
    """ValueError, before a sequence CSV is opened, unless the readers can
    read back every row: each state an index into ``alphabet``, every name
    UTF-8 text free of commas and line ends, with no whitespace around it,
    and ``samples`` (``what``) a finite number of seconds."""
    for name in alphabet.states:
        if name != name.strip() or any(c in ",\r\n" or "\ud800" <= c <= "\udfff" for c in name):
            raise ValueError(f"state name {name!r} cannot be written to a CSV: it holds a "
                             f"comma, a line end or a surrogate, or whitespace around it")
    top = int(runs.states.max())
    if top >= len(alphabet):
        raise ValueError(f"state index {top} is outside the alphabet of "
                         f"{len(alphabet)} states {alphabet.states}")
    if not math.isfinite(samples / runs.sampling_rate_hz):
        raise ValueError(f"{what}, {samples} samples at {runs.sampling_rate_hz!r} Hz, "
                         f"is not a finite number of seconds")


def write_label_csv(seq: LabeledSequence, alphabet: StateAlphabet, path) -> None:
    """Write a per-sample label CSV with sample i at time i / rate.

    Each time is printed as ``float_text`` prints it, a block of
    _ROWS_PER_BLOCK (4096) rows at a time: as exact decimal digits when every
    time of the block is a decimal of at most 15 significant digits (as at 2,
    50, 100 or 1000 Hz; the exact rule is ``_decimal_rows``'s), otherwise by
    one ``repr`` of the block's times, with each run's rows one join.  Both
    give the same bytes.  Either way, beyond the runs, memory is one block's
    text, well under 1 MB, however long the recording.
    """
    runs = encode_runs(seq)
    rate, total = runs.sampling_rate_hz, runs.total_samples
    _check_writable(runs, alphabet, total - 1, "the last time")
    ends = [f",{name}\n".encode() for name in alphabet.states]
    starts = np.concatenate(([0], np.cumsum(runs.durations)))  # run i starts at row starts[i]
    with open(path, "wb") as fh:
        fh.write(b"time_s,state\n")
        for lo in range(0, total, _ROWS_PER_BLOCK):
            hi = min(lo + _ROWS_PER_BLOCK, total)
            first, stop = np.searchsorted(starts, (lo, hi - 1), side="right")
            states = runs.states[first - 1:stop]  # the runs of rows lo..hi - 1
            cuts = np.clip(starts[first - 1:stop + 1], lo, hi) - lo
            times = np.arange(lo, hi) / rate
            text = _decimal_rows(times, np.repeat(states, np.diff(cuts)), ends)
            if text is None:
                texts = repr(times.tolist()).encode()[1:-1].split(b", ")
                pieces = zip(states.tolist(), cuts.tolist(), cuts[1:].tolist())
                text = b"".join(ends[k].join(texts[i:j]) + ends[k] for k, i, j in pieces)
            fh.write(text)


def write_runlength_csv(runs: RunSequence, alphabet: StateAlphabet, path) -> None:
    """Write a run-length CSV; durations are exact sample counts in seconds."""
    _check_writable(runs, alphabet, int(runs.durations.max()), "the longest run")
    rate = runs.sampling_rate_hz
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("state,duration_s\n")
        for state, dur in runs.runs:
            fh.write(f"{alphabet.name(state)},{float_text(dur / rate)}\n")


# --- model documents ---------------------------------------------------------


def _dwell_to_dict(fit: DwellFit) -> dict[str, Any]:
    return {
        "family": fit.family,
        "params": {k: float(v) for k, v in fit.params.items()},
        "n_obs": fit.n_obs,
        "log_likelihood": fit.log_likelihood,
        "bic": fit.bic,
    }


def _dwell_from_dict(name: str, doc: dict[str, Any]) -> DwellFit:
    what = f"dwell {name}"
    # files written before left-truncated fits and fallback fits were removed
    # hold "truncation_s": 0.0 and a "fallback" flag
    _boolean(doc.get("fallback", False), f"{what} fallback")
    if _number(doc.get("truncation_s", 0.0), f"{what} truncation_s") != 0.0:
        raise ValueError(
            f"{what}: truncation_s {doc['truncation_s']!r} unsupported; only "
            f"untruncated dwell fits (0.0) are read"
        )
    return DwellFit(
        family=doc["family"],
        params={k: _number(v, f"{what} parameter {k}") for k, v in doc["params"].items()},
        n_obs=_count(doc["n_obs"], f"{what} n_obs"),
        log_likelihood=_finite_or_null(doc["log_likelihood"], f"{what} log_likelihood"),
        bic=_finite_or_null(doc["bic"], f"{what} bic"),
    )


def document_to_dict(model: SemiMarkovModel) -> dict[str, Any]:
    """JSON-ready form of a model of either kind."""
    tm = model.transitions
    return {
        "schema_version": SCHEMA_VERSION,
        "alphabet": list(tm.alphabet.states),
        "kind": tm.kind,
        "transitions": tm.probs.tolist(),
        "row_fitted": tm.row_fitted.tolist(),
        "dwell": {name: _dwell_to_dict(fit) for name, fit in model.dwell.items()},
        "metadata": model.metadata,  # read-only; json.dumps writes its tuples as lists
    }


def document_from_dict(raw: dict[str, Any], source: str = "<dict>") -> SemiMarkovModel:
    with _fields_of(source, "model document"):
        version = _count(raw["schema_version"], "schema_version")
        if version != SCHEMA_VERSION:
            raise SchemaVersionMismatchError(
                f"{source}: schema_version {version!r} unsupported (expected "
                f"{SCHEMA_VERSION})"
            )
        alphabet = build_alphabet(_strings(raw["alphabet"], "alphabet"))
        probs = [[_number(p, "transition entries") for p in row] for row in raw["transitions"]]
        row_fitted = [_boolean(b, "row_fitted entries") for b in raw["row_fitted"]]
        tm = TransitionMatrix(probs=probs, alphabet=alphabet, kind=raw["kind"])
        if row_fitted != tm.row_fitted.tolist():  # written as derived, so a mismatch is corrupt
            raise ValueError(f"row_fitted {row_fitted} must be true exactly for the rows "
                             f"with mass, {tm.row_fitted.tolist()}")
        dwell = {name: _dwell_from_dict(name, d) for name, d in raw["dwell"].items()}
        return SemiMarkovModel(transitions=tm, dwell=dwell, metadata=raw["metadata"])


def write_model_json(model: SemiMarkovModel, path) -> None:
    """Write a model of either kind (a DTMC's has no dwell fits)."""
    write_json(document_to_dict(model), path)


def read_model_json(path) -> SemiMarkovModel:
    raw = read_json(path)
    if not isinstance(raw, dict):
        raise MalformedJsonError(f"{path}: model document must be a JSON object")
    return document_from_dict(raw, source=str(path))


# --- histograms --------------------------------------------------------------

MAX_HISTOGRAM_BINS = 10**6  # rows of one histogram CSV


def histogram_bin_count(max_duration_s: float, bin_width_s: float) -> int:
    """The smallest number n of bins of width bin_width_s whose last edge,
    n * bin_width_s, reaches max_duration_s (at least one).

    Raises ValueError for a width that is not a finite number > 0, or for
    more than MAX_HISTOGRAM_BINS bins.
    """
    if not (math.isfinite(bin_width_s) and bin_width_s > 0):
        raise ValueError(f"bin_width_s must be finite and positive, got {bin_width_s!r}")
    span = float(max_duration_s) / bin_width_s
    n = max(1, math.ceil(span)) if span <= MAX_HISTOGRAM_BINS else MAX_HISTOGRAM_BINS + 1
    # span is rounded, so its ceiling can be one bin off either way; a span
    # that is NaN or too large keeps n above the limit
    if n > 1 and (n - 1) * bin_width_s >= max_duration_s:
        n -= 1
    elif n * bin_width_s < max_duration_s:
        n += 1
    if n > MAX_HISTOGRAM_BINS:
        raise ValueError(f"binning up to {max_duration_s:g} s takes {span:.4g} bins of "
                         f"{bin_width_s:g} s, more than {MAX_HISTOGRAM_BINS}")
    return n


def emit_histogram_csv(durations, bin_width_s: float, path, overlay: DwellFit, counts) -> None:
    """Write a normalized histogram of durations, each with its multiplicity
    in ``counts``, as plot-ready CSV.

    Columns ``bin_left_s,bin_right_s,density,overlay_pdf``: sum(density) *
    bin_width is 1, and ``overlay_pdf`` holds the overlay fit's density at each
    bin midpoint, from one evaluation of its log-density over all midpoints.
    At most MAX_HISTOGRAM_BINS bins are written, 4096 rows at a time.
    """
    arr = np.asarray(list(durations), dtype=float)
    if arr.size == 0:
        raise EmptyInputError("no durations to bin")
    weights = np.asarray(counts)
    n_bins = histogram_bin_count(arr.max(), bin_width_s)
    edges = np.arange(n_bins + 1) * bin_width_s
    hist, _ = np.histogram(arr, bins=edges, weights=weights)
    density = hist / (int(weights.sum()) * bin_width_s)
    log_density = log_pdf(overlay, 0.5 * (edges[:-1] + edges[1:]))
    columns = [edges[:-1].tolist(), edges[1:].tolist(), density.tolist(),
               [math.exp(v) for v in log_density.tolist()]]
    for column in columns:  # float_text's check, once per column, before any write
        finite = np.isfinite(column)
        if not finite.all():
            float_text(column[int(finite.argmin())])  # raises, naming the value
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("bin_left_s,bin_right_s,density,overlay_pdf\n")
        # each value as float_text prints it, by one repr per column and block
        for lo in range(0, n_bins, _ROWS_PER_BLOCK):
            texts = [repr(c[lo:lo + _ROWS_PER_BLOCK])[1:-1].split(", ") for c in columns]
            fh.writelines(map("{},{},{},{}\n".format, *texts))


# --- comparison reports ------------------------------------------------------


def comparison_to_dict(report, context: dict[str, Any]) -> dict[str, Any]:
    """JSON-ready form of a ComparisonReport (aggregation rule and smoothing
    constant stated inline) with the context that names what was compared."""
    return {
        "per_row_symmetric_kl_nats": dict(report.per_row),
        "aggregate_symmetric_kl_nats": report.aggregate,
        "aggregation": "unweighted mean over rows fitted in both matrices",
        "skipped_rows": list(report.skipped_rows),
        "smoothing_epsilon": SMOOTHING_EPSILON,
        "context": context,
    }
