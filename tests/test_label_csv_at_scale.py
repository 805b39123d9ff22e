"""The label CSV reader against the row-by-row reference on cohort-sized files.

``test_fuzz_readers.py`` compares ``parse_label_csv`` with its ``csv.reader``
reference on files of at most 8 rows.  Here the files are what
``write_label_csv`` writes for a simulated 50 Hz cohort, 21 k rows each, and
each variant changes one thing about them: the line ends, a blank line, state
names longer than 64 bytes, times that only ``float()`` reads, or one faulty
row deep in the file.  Both readers must give the same sequence or the
same error, also when the file is scanned in blocks of a few dozen bytes.

The reader and the writer are also held to their memory bounds on a
210 k-row file: the reader to a small multiple of the file's bytes, the
writer to one block of rows.
"""

import tracemalloc

import pytest

from semimarkov import io, presets
from semimarkov.io import parse_label_csv, write_label_csv
from semimarkov.sequences import build_alphabet, decode_runs, encode_runs
from semimarkov.simulate import SimulationConfig, simulate_cohort
from test_fuzz_readers import _outcome, reference_label_csv

RATE_HZ = 50.0
ALPHABET = presets.PATTERNS
# names that share their first and last 8 bytes: two whose lengths differ by
# one, and two of one length that differ in a middle byte only
LONG = "L" * 70
LONG_ALPHABET = build_alphabet((LONG, "L" + LONG, LONG[:35] + "K" + LONG[36:], "SYB", "UNK"))
FULL_WIDTH = str.maketrans("0123456789", "".join(map(chr, range(0xFF10, 0xFF1A))))


@pytest.fixture(scope="module")
def cohort(tmp_path_factory):
    """Three simulated 7-minute recordings at 50 Hz: each one's runs and the
    text ``write_label_csv`` writes for it."""
    config = SimulationConfig(duration_s=420.0, seed=5, output_sampling_rate_hz=RATE_HZ)
    d = tmp_path_factory.mktemp("cohort")
    recordings = []
    for runs in simulate_cohort(presets.success_model(), 3, config):
        path = d / f"{runs.id}.csv"
        write_label_csv(decode_runs(runs), ALPHABET, path)
        recordings.append((runs, path.read_text(encoding="utf-8")))
    return recordings


def _rows(text: str) -> list[str]:
    return text.split("\n")  # the header is row 0


def _edit_rows(text: str, rows, edit) -> str:
    lines = _rows(text)
    for row in rows:
        lines[row] = ",".join(edit(*lines[row].split(",")))
    return "\n".join(lines)


def _underscored(time: str) -> str:
    head, _, tail = time.partition(".")
    return head[0] + "_" + head[1:] + "." + tail if len(head) > 1 else time


def _long_names(text: str) -> str:
    for old, new in zip(ALPHABET.states, LONG_ALPHABET.states):
        text = text.replace(f",{old}\n", f",{new}\n")
    return text


def _odd_times(text: str) -> str:
    text = _edit_rows(text, range(5000, 5100), lambda t, s: (_underscored(t), s))
    return _edit_rows(text, range(7000, 7100), lambda t, s: (t.translate(FULL_WIDTH), s))


VARIANTS = {
    "lf": (lambda text: text, ALPHABET),
    "crlf": (lambda text: text.replace("\n", "\r\n"), ALPHABET),
    "cr": (lambda text: text.replace("\n", "\r"), ALPHABET),
    "blank line after row 10k": (
        lambda text: "\n".join(_rows(text)[:10_001] + [""] + _rows(text)[10_001:]),
        ALPHABET),
    "states longer than 64 bytes": (_long_names, LONG_ALPHABET),
    "underscored and full-width times": (_odd_times, ALPHABET),
    # numpy strips this separator from around a number; float() refuses it
    "unit separator after the time at row 12k": (
        lambda text: _edit_rows(text, [12_000], lambda t, s: (t + "\x1f", s)), ALPHABET),
    "nan at row 15k": (
        lambda text: _edit_rows(text, [15_000], lambda t, s: ("nan", s)), ALPHABET),
    "unknown state at row 18k": (
        lambda text: _edit_rows(text, [18_000], lambda t, s: (t, "XYZ")), ALPHABET),
    "three fields at row 16k": (
        lambda text: _edit_rows(text, [16_000], lambda t, s: (t, s, "")), ALPHABET),
}
FAULT_LINE = {"unit separator after the time at row 12k": 12_001,
              "nan at row 15k": 15_001, "unknown state at row 18k": 18_001,
              "three fields at row 16k": 16_001}


@pytest.mark.parametrize("variant", VARIANTS)
def test_label_csv_matches_reference_at_cohort_size(cohort, tmp_path, variant):
    change, alphabet = VARIANTS[variant]
    for runs, text in cohort:
        assert len(_rows(text)) > 20_000
        path = tmp_path / f"{runs.id}.csv"
        path.write_bytes(change(text).encode("utf-8"))
        outcome = _outcome(parse_label_csv, path, alphabet, RATE_HZ)
        assert outcome == _outcome(reference_label_csv, path, alphabet, RATE_HZ)
        result, _ = outcome
        if variant in FAULT_LINE:  # the error names the faulty row's line
            assert result[1].startswith(f"{path}:{FAULT_LINE[variant]}: ")
        else:  # the file reads to the runs it was written from
            assert result == (runs.runs, RATE_HZ, runs.id)


# about five rows of a block; a row with a long state name fills more than one
SMALL_BLOCK_BYTES = 64


@pytest.mark.parametrize("variant", VARIANTS)
def test_label_csv_in_small_blocks_matches_reference(cohort, tmp_path, monkeypatch, variant):
    # the first recording only: its line ends, blank line, faulty row and
    # every run cross block boundaries
    monkeypatch.setattr(io, "_BLOCK_BYTES", SMALL_BLOCK_BYTES)
    change, alphabet = VARIANTS[variant]
    runs, text = cohort[0]
    path = tmp_path / f"{runs.id}.csv"
    path.write_bytes(change(text).encode("utf-8"))
    outcome = _outcome(parse_label_csv, path, alphabet, RATE_HZ)
    assert outcome == _outcome(reference_label_csv, path, alphabet, RATE_HZ)
    result, _ = outcome
    if variant in FAULT_LINE:
        assert result[1].startswith(f"{path}:{FAULT_LINE[variant]}: ")
    else:
        assert result == (runs.runs, RATE_HZ, runs.id)


def _no_fallback(data, starts, commas):
    raise AssertionError("a block's times went to io._float_times")


@pytest.mark.parametrize("block_bytes", [None, SMALL_BLOCK_BYTES],
                         ids=["default-blocks", "small-blocks"])
@pytest.mark.parametrize("variant", ["lf", "crlf", "cr"])
def test_written_times_never_take_the_fallback(cohort, tmp_path, monkeypatch, variant,
                                               block_bytes):
    # every time write_label_csv writes at 50 Hz is a decimal of at most 8
    # bytes, which io._decimal_times parses, whatever the line ends
    monkeypatch.setattr(io, "_float_times", _no_fallback)
    if block_bytes:
        monkeypatch.setattr(io, "_BLOCK_BYTES", block_bytes)
    change, alphabet = VARIANTS[variant]
    for runs, text in cohort[:1] if block_bytes else cohort:
        path = tmp_path / f"{runs.id}.csv"
        path.write_bytes(change(text).encode("utf-8"))
        seq = parse_label_csv(path, alphabet, RATE_HZ)
        assert encode_runs(seq).runs == runs.runs


def _peak_bytes(call) -> int:
    """The most memory traced while call() runs, beyond what was traced before."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def long_recording():
    """One 70-minute recording at 50 Hz: 210 k samples in about 800 runs."""
    config = SimulationConfig(duration_s=4200.0, seed=6, output_sampling_rate_hz=RATE_HZ)
    (runs,) = simulate_cohort(presets.success_model(), 1, config)
    assert runs.total_samples == 210_000
    return runs


def test_writer_memory_is_one_block(long_recording, tmp_path):
    seq = decode_runs(long_recording)
    path = tmp_path / "p.csv"
    peak = _peak_bytes(lambda: write_label_csv(seq, ALPHABET, path))
    assert peak < 2_000_000, f"{peak} B traced writing {path.stat().st_size} B"


@pytest.mark.parametrize("eol", ["\n", "\r\n"])
def test_reader_memory_is_about_the_file(long_recording, tmp_path, eol):
    path = tmp_path / "p.csv"
    write_label_csv(decode_runs(long_recording), ALPHABET, path)
    path.write_bytes(path.read_bytes().replace(b"\n", eol.encode()))
    size = path.stat().st_size
    read = []
    peak = _peak_bytes(lambda: read.append(parse_label_csv(path, ALPHABET, RATE_HZ)))
    assert encode_runs(read[0]).runs == long_recording.runs
    assert peak < 3 * size, f"{peak} B traced reading {size} B"
