"""The label CSV reader against the row-by-row reference on cohort-sized files.

``test_fuzz_readers.py`` compares ``parse_label_csv`` with its ``csv.reader``
reference on files of at most 8 rows.  Here the files are what
``write_label_csv`` writes for a simulated 50 Hz cohort, 21 k rows each, and
each variant changes one thing about them: the line ends, a blank line, state
names longer than 64 bytes, times that only ``float()`` reads, or one faulty
row deep in the file.  Both readers must give the same sequence or the
same error.
"""

import pytest

from semimarkov import presets
from semimarkov.io import parse_label_csv, write_label_csv
from semimarkov.sequences import build_alphabet, decode_runs
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
}
FAULT_LINE = {"unit separator after the time at row 12k": 12_001,
              "nan at row 15k": 15_001, "unknown state at row 18k": 18_001}


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
