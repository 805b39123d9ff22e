"""The run-length CSV reader against the row-by-row reference on cohort-sized files.

``test_fuzz_readers.py`` compares ``parse_runlength_csv`` with its
``csv.reader`` reference on files of at most 8 rows.  Here the files are what
``write_runlength_csv`` writes for a simulated 50 Hz cohort, about 1500 runs
each, and each variant changes one thing about them: the line ends, blank
lines, state names longer than 7 bytes, durations that only ``float()``
reads, one run written as two rows, or one faulty row deep in the file.
Both readers must give the same runs, warnings and error, also when the file
is scanned in blocks of 1 to 40 bytes.
"""

from decimal import Decimal

import pytest

from semimarkov import io, presets
from semimarkov.errors import DataNormalizationWarning
from semimarkov.io import parse_runlength_csv, write_runlength_csv
from semimarkov.sequences import build_alphabet
from semimarkov.simulate import SimulationConfig, simulate_cohort
from test_fuzz_readers import _outcome, reference_runlength_csv

RATE_HZ = 50.0
ALPHABET = presets.PATTERNS
# names of 9 to 13 bytes: two whose lengths differ by one, and two of one
# length that differ in a middle byte only
LONG = "L" * 12
LONG_ALPHABET = build_alphabet(
    (LONG, "L" + LONG, LONG[:6] + "K" + LONG[7:], "SYB" * 3, "UNKNOWN_X"))
SPLIT_ROW = 1000  # the row written as two rows of its state


@pytest.fixture(scope="module")
def cohort(tmp_path_factory):
    """Three simulated 2-hour recordings at 50 Hz: each one's runs and the
    text ``write_runlength_csv`` writes for it."""
    config = SimulationConfig(duration_s=7200.0, seed=7, output_sampling_rate_hz=RATE_HZ)
    d = tmp_path_factory.mktemp("cohort")
    recordings = []
    for runs in simulate_cohort(presets.success_model(), 3, config):
        path = d / f"{runs.id}.csv"
        write_runlength_csv(runs, ALPHABET, path)
        recordings.append((runs, path.read_text(encoding="utf-8")))
    return recordings


def _rows(text: str) -> list[str]:
    return text.split("\n")  # the header is row 0


def _edit_rows(text: str, rows, edit) -> str:
    lines = _rows(text)
    for row in rows:
        lines[row] = ",".join(edit(*lines[row].split(",")))
    return "\n".join(lines)


def _underscored(duration: str) -> str:
    head, _, tail = duration.partition(".")
    return head[0] + "_" + head[1:] + "." + tail if len(head) > 1 else duration


def _long_names(text: str) -> str:
    for old, new in zip(ALPHABET.states, LONG_ALPHABET.states):
        text = text.replace(f"\n{old},", f"\n{new},")
    return text


def _odd_durations(text: str) -> str:
    text = _edit_rows(text, range(300, 400), lambda s, d: (s, f" {d} "))
    text = _edit_rows(text, range(500, 600), lambda s, d: (s, d + "e0"))
    return _edit_rows(text, range(700, 900), lambda s, d: (s, _underscored(d)))


def _split_run(text: str) -> str:
    """SPLIT_ROW written as two rows of its state whose durations sum to
    its duration in decimal (in seconds, to within a rounding)."""
    lines = _rows(text)
    state, duration = lines[SPLIT_ROW].split(",")
    first = (Decimal(duration) / 2).quantize(Decimal("0.01"))
    lines[SPLIT_ROW:SPLIT_ROW + 1] = [f"{state},{first}", f"{state},{Decimal(duration) - first}"]
    return "\n".join(lines)


VARIANTS = {
    "lf": (lambda text: text, ALPHABET),
    "crlf": (lambda text: text.replace("\n", "\r\n"), ALPHABET),
    "cr": (lambda text: text.replace("\n", "\r"), ALPHABET),
    "blank lines after rows 700 and 1400": (
        lambda text: "\n".join(_rows(text)[:701] + [""] + _rows(text)[701:1401] + ["", ""]
                               + _rows(text)[1401:]),
        ALPHABET),
    "states longer than 7 bytes": (_long_names, LONG_ALPHABET),
    "spaced, exponent and underscored durations": (_odd_durations, ALPHABET),
    "one run written as two rows": (_split_run, ALPHABET),
    "unknown state at row 1100": (
        lambda text: _edit_rows(text, [1100], lambda s, d: ("XYZ", d)), ALPHABET),
    "bad duration at row 1150": (
        lambda text: _edit_rows(text, [1150], lambda s, d: (s, d + "s")), ALPHABET),
    "zero duration at row 1200": (
        lambda text: _edit_rows(text, [1200], lambda s, d: (s, "0")), ALPHABET),
    "nan at row 1250": (lambda text: _edit_rows(text, [1250], lambda s, d: (s, "nan")), ALPHABET),
    "inf at row 1300": (lambda text: _edit_rows(text, [1300], lambda s, d: (s, "inf")), ALPHABET),
    # 1e18 s is 5e19 samples at 50 Hz, past int64
    "duration past int64 at row 1350": (
        lambda text: _edit_rows(text, [1350], lambda s, d: (s, "1e18")), ALPHABET),
    # the state is written first, so it is the fault reported
    "unknown state and bad duration at row 1400": (
        lambda text: _edit_rows(text, [1400], lambda s, d: ("XYZ", "x")), ALPHABET),
}
FAULT = {  # the faulty row's line and its error's type
    "unknown state at row 1100": (1101, "UnknownStateError"),
    "bad duration at row 1150": (1151, "MalformedCsvError"),
    "zero duration at row 1200": (1201, "NonPositiveDurationError"),
    "nan at row 1250": (1251, "NonPositiveDurationError"),
    "inf at row 1300": (1301, "MalformedCsvError"),
    "duration past int64 at row 1350": (1351, "MalformedCsvError"),
    "unknown state and bad duration at row 1400": (1401, "UnknownStateError"),
}


def _check(variant, runs, path, outcome):
    """The outcome is the reference's, and the runs or the faulty line."""
    _, alphabet = VARIANTS[variant]
    assert outcome == _outcome(reference_runlength_csv, path, alphabet, RATE_HZ)
    result, caught = outcome
    if variant in FAULT:
        line, error = FAULT[variant]
        assert result[0].__name__ == error
        assert result[1].startswith(f"{path}:{line}: ")
    else:  # the file reads to the runs it was written from
        assert result == (runs.runs, RATE_HZ, runs.id)
        merged = [(DataNormalizationWarning, f"{path}: merged adjacent runs with equal states")]
        assert caught == (merged if variant == "one run written as two rows" else [])


@pytest.mark.parametrize("variant", VARIANTS)
def test_runlength_csv_matches_reference_at_cohort_size(cohort, tmp_path, variant):
    change, alphabet = VARIANTS[variant]
    for runs, text in cohort:
        assert len(_rows(text)) > 1450
        path = tmp_path / f"{runs.id}.csv"
        path.write_bytes(change(text).encode("utf-8"))
        _check(variant, runs, path, _outcome(parse_runlength_csv, path, alphabet, RATE_HZ))


@pytest.mark.parametrize("block_bytes", [1, 9, 40])
@pytest.mark.parametrize("variant", VARIANTS)
def test_runlength_csv_in_small_blocks_matches_reference(cohort, tmp_path, monkeypatch,
                                                         variant, block_bytes):
    # the first recording only: its line ends, blank lines, faulty row and
    # split run cross block boundaries
    monkeypatch.setattr(io, "_BLOCK_BYTES", block_bytes)
    change, alphabet = VARIANTS[variant]
    runs, text = cohort[0]
    path = tmp_path / f"{runs.id}.csv"
    path.write_bytes(change(text).encode("utf-8"))
    _check(variant, runs, path, _outcome(parse_runlength_csv, path, alphabet, RATE_HZ))


@pytest.mark.parametrize("eol", ["\n", "\r\n"])
def test_run_split_at_a_block_edge_merges_in_seconds(cohort, tmp_path, monkeypatch, eol):
    # the first block ends just past the first of the two rows, so the
    # merge carries over from one block to the next
    runs, text = cohort[0]
    data = _split_run(text).replace("\n", eol).encode("utf-8")
    body = data.index(b"\n") + 1
    first_half_end = body
    for _ in range(SPLIT_ROW):
        first_half_end = data.index(b"\n", first_half_end) + 1
    monkeypatch.setattr(io, "_BLOCK_BYTES", first_half_end - len(eol) - body)
    path = tmp_path / f"{runs.id}.csv"
    path.write_bytes(data)
    blocks = list(io._Rows(path, io._RUNLENGTH_HEADER))
    assert blocks[0].first + blocks[0].commas.size == SPLIT_ROW
    _check("one run written as two rows", runs, path,
           _outcome(parse_runlength_csv, path, ALPHABET, RATE_HZ))
