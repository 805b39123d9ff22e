"""The label CSV reader's time column: the decimal kernel and its fallback.

``io._decimal_times`` parses a block's times when each is 1 to 8 bytes of
ASCII digits and at most one ".", and declines the block otherwise; a file
with a declined row takes ``io._time_column`` (``np.loadtxt``, then
``float()`` row by row) for its whole column.  Here the kernel is held to
``float()`` bit for bit, and files it declines are held to the row-by-row
reference, at the default block size and in blocks of 64 bytes.
"""

import itertools
import random
import re

import numpy as np
import pytest

from semimarkov import io
from semimarkov.io import float_text, parse_label_csv, write_label_csv
from semimarkov.sequences import LabeledSequence, build_alphabet, encode_runs
from test_fuzz_readers import _outcome, reference_label_csv

AB = build_alphabet(("A", "B"))
HEADER = b"time_s,state\n"


def _kernel(texts):
    """What ``_decimal_times`` gives for the block of rows ``text,A``."""
    data = HEADER + b"".join(text + b",A\n" for text in texts)
    starts, commas, _, _, fault = io._scan(data, len(HEADER), len(data))
    assert fault is None and starts.size == len(texts)
    return io._decimal_times(data, starts, commas)


def _float(text: bytes):
    try:
        return float(text)
    except ValueError:
        return None


def _bits(values) -> list[int]:
    return np.asarray(values, np.float64).view(np.uint64).tolist()


def _accepts(text: bytes) -> bool:
    """Whether the kernel should parse the text: at most 8 bytes, digits and
    one "." at most, a digit among them, and not "0*." (padded with "0"s
    ahead of it, "." looks like "0.", so both are declined)."""
    return bool(re.fullmatch(rb"[0-9]*\.?[0-9]*", text)) and re.search(rb"[0-9]", text) \
        and len(text) <= 8 and not re.fullmatch(rb"0*\.", text)


def _check_texts(texts):
    """Each text alone is declined or read as float() reads it, and every
    text the kernel should parse is, alone and all in one block."""
    accepted = []
    for text in texts:
        got = _kernel([text])
        if _accepts(text):
            assert got is not None, text
            assert _bits(got) == _bits([float(text)]), text
            accepted.append(text)
        else:
            assert got is None, text
    together = _kernel(accepted)
    assert _bits(together) == _bits([float(t) for t in accepted])
    return accepted


def test_every_short_text_is_declined_or_read_as_float_reads_it():
    texts = [bytes(t) for k in range(1, 5) for t in itertools.product(b"0123456789.", repeat=k)]
    accepted = _check_texts(texts)
    # all but the 673 with two "."s, and ".", "0.", "00." and "000."
    assert (len(texts), len(accepted)) == (16104, 15427)


def test_random_texts_of_five_to_eight_bytes_are_declined_or_read_as_float_reads_them():
    rng = random.Random(20180823)
    texts = [bytes(rng.choice(b"0123456789.") for _ in range(rng.randint(5, 8)))
             for _ in range(3000)]
    texts += [str(rng.randrange(10**8)).encode() for _ in range(200)]  # 8 digits, no "."
    _check_texts(texts)


@pytest.mark.parametrize("text", [
    "+1", "-0.5", "1e3", " 1", "1 ", "1_0", "１２", "nan", "inf", ".", "1.2.3",
    "123456789", "12.34\x1f", "", "0.", "0000000.", "١",
    # bytes next to the digits, 0x2F and 0x3A-0x3F
    "1/2", "1:30", "2;", "<1", "1=", ">", "9?"])
def test_kernel_declines(text):
    assert _float(text.encode()) is None or not _accepts(text.encode())
    assert _kernel([text.encode()]) is None
    # one such row declines the whole block
    assert _kernel([b"0.5"] * 50 + [text.encode()] + [b"1.5"] * 50) is None


def _spy_on_fallback(monkeypatch):
    calls = []
    time_column = io._time_column

    def spy(rows, n):
        calls.append(n)
        return time_column(rows, n)

    monkeypatch.setattr(io, "_time_column", spy)
    return calls


def _labels(n):
    return [(i // 7) % 2 for i in range(n)]


@pytest.mark.parametrize("block_bytes", [None, 64], ids=["default-blocks", "64-byte-blocks"])
@pytest.mark.parametrize("rate", [3.0, 7.0])
def test_times_with_more_digits_take_the_fallback(tmp_path, monkeypatch, block_bytes, rate):
    if block_bytes:
        monkeypatch.setattr(io, "_BLOCK_BYTES", block_bytes)
    calls = _spy_on_fallback(monkeypatch)
    seq = LabeledSequence(_labels(600), rate, "p")
    path = tmp_path / "p.csv"
    write_label_csv(seq, AB, path)
    outcome = _outcome(parse_label_csv, path, AB, rate)
    assert outcome == _outcome(reference_label_csv, path, AB, rate)
    assert outcome[0] == (encode_runs(seq).runs, rate, "p")
    assert calls == [600]


@pytest.mark.parametrize("block_bytes", [None, 64], ids=["default-blocks", "64-byte-blocks"])
def test_times_that_grow_past_8_bytes_switch_the_file_to_the_fallback(
        tmp_path, monkeypatch, block_bytes):
    if block_bytes:
        monkeypatch.setattr(io, "_BLOCK_BYTES", block_bytes)
    calls = _spy_on_fallback(monkeypatch)
    # 50 Hz from 99 990 s: "99999.98" is 8 bytes and "100000.02" 9
    times = [float_text(k / 50) for k in range(4_999_500, 5_000_600)]
    assert {len(times[499]), len(times[500]), len(times[501])} == {8, 9}
    labels = _labels(len(times))
    path = tmp_path / "late.csv"
    path.write_bytes(HEADER + "".join(
        f"{t},{'AB'[label]}\n" for t, label in zip(times, labels)).encode())
    outcome = _outcome(parse_label_csv, path, AB, 50.0)
    assert outcome == _outcome(reference_label_csv, path, AB, 50.0)
    assert outcome[0] == (encode_runs(LabeledSequence(labels, 50.0)).runs, 50.0, "late")
    assert calls == [len(times)]


# texts that float() and numpy's loadtxt might read differently, each the
# time of row 1 of a 1 Hz file: each file gives what the reference gives
GRAMMAR = [
    "\x1c1", "1\x1d", "1\x1e", "\x1f1", " 1", "1 ", "\t1", "1\t", " \t1\t ", "1\x0b",
    "\x0c1", "1\xa0", "　1", "+1", "+1.0", "-1", "--1", "+-1", "1e0", "1E0", "10e-1",
    "0.1e1", "1e", "e1", "1e+", "inf", "-inf", "+inf", "Inf", "Infinity", "-Infinity",
    "iNfInItY", "infinit", "nan", "NaN", "-nan", "+nan", "nan(1)", "1_0", "1__0", "_1",
    "1_", "１", "١", "", "0x1", "1.0.0", ".", "1d0", "1j"]


@pytest.mark.parametrize("text", GRAMMAR, ids=repr)
def test_fallback_grammar_matches_the_reference(tmp_path, monkeypatch, text):
    calls = _spy_on_fallback(monkeypatch)
    path = tmp_path / "g.csv"
    path.write_bytes(HEADER + f"0.0,A\n{text},B\n2.0,A\n".encode())
    outcome = _outcome(parse_label_csv, path, AB, 1.0)
    assert outcome == _outcome(reference_label_csv, path, AB, 1.0)
    assert len(calls) == 1
