import json
import math
import re
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from semimarkov import io as io_module
from semimarkov.dwell import EXPONENTIAL, GEV, GPD, INVERSE_GAUSSIAN, DwellFit, log_pdf
from semimarkov.errors import (
    DataNormalizationWarning,
    MalformedCsvError,
    MalformedJsonError,
    NonPositiveDurationError,
    NonUniformSamplingError,
    RateMismatchError,
    SchemaVersionMismatchError,
    UnknownStateError,
)
from semimarkov.fitting import SemiMarkovModel, fit_dtmc
from semimarkov.io import (
    CohortManifest,
    canonical_json,
    document_from_dict,
    document_to_dict,
    emit_histogram_csv,
    float_text,
    histogram_bin_count,
    load_sequences,
    parse_label_csv,
    parse_runlength_csv,
    read_manifest,
    read_model_json,
    write_label_csv,
    write_manifest,
    write_model_json,
    write_runlength_csv,
)
from semimarkov.presets import PATTERNS, success_model
from semimarkov.sequences import (
    LabeledSequence,
    RunSequence,
    build_alphabet,
    decode_runs,
    encode_runs,
)

FIXTURES = Path(__file__).resolve().parent / "fixtures"

AB = build_alphabet(("A", "B"))


def seq(labels, rate=1.0, id=""):
    return LabeledSequence(labels=np.array(labels), sampling_rate_hz=rate, id=id)


# row ends for io._decimal_rows, of unequal lengths, one not ASCII
ENDS = [b",A\n", ",\u00e9t\u00e9\n".encode(), b",\x00,PAU\n"]
STATES = st.integers(0, len(ENDS) - 1)
TIMES = st.one_of(
    st.builds(lambda k, d: k / 10**d, st.integers(0, 10**15 - 1), st.integers(0, 22)),
    st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
    st.just(0.0),
    st.sampled_from([float(np.nextafter(x, to)) for x in (1e-4, 1e15) for to in (0, np.inf)]),
    # 16 significant digits, where rint(t * 1e16) is one off repr's digits
    st.sampled_from([0.9938997041984357, 0.9222882683443993]),
    st.builds(  # 15 and 16 significant digits
        lambda k, e: float(f"{k}e{e}"),
        st.integers(10**14, 10**15 - 1) | st.integers(10**15, 10**16 - 1),
        st.integers(-20, 2),
    ),
)
SHORT_DECIMALS = st.integers(0, 15).flatmap(  # k / 10**d with k < 10**15, one d
    lambda d: st.lists(st.integers(0, 10**15 - 1), min_size=1, max_size=40).map(
        lambda ks: [k / 10**d for k in ks]
    )
)


def float_text_rows(times, states):
    return b"".join(float_text(t).encode() + ENDS[k] for t, k in zip(times, states))


class TestCanonicalJson:
    def test_floats_keep_a_decimal_point(self):
        assert float_text(2.0) == "2.0"
        assert float_text(-0.0) == "-0.0"
        assert "e" in float_text(1e300)

    def test_non_finite_float_is_refused(self):
        for x in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="non-finite float"):
                float_text(x)

    def test_float_roundtrip_is_exact(self):
        for x in (0.27, 2.51, 1.0 / 3.0, 5e-324, 1.7976931348623157e308):
            assert json.loads(float_text(x)) == x

    def test_ints_stay_ints(self):
        text = canonical_json({"n": 3, "x": 3.0})
        assert '"n":3' in text and '"x":3.0' in text
        back = json.loads(text)
        assert isinstance(back["n"], int) and isinstance(back["x"], float)

    def test_keys_sorted(self):
        assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}\n'

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            canonical_json({"x": math.inf})
        with pytest.raises(ValueError):
            canonical_json({"x": math.nan})


class TestLabelCsv:
    def test_roundtrip(self, tmp_path):
        s = seq([0, 0, 1, 0], rate=2.0, id="p0")
        p = tmp_path / "p0.csv"
        write_label_csv(s, AB, p)
        back = parse_label_csv(p, AB, 2.0)
        assert np.array_equal(back.labels, s.labels)
        assert back.sampling_rate_hz == 2.0
        assert back.id == "p0"

    @pytest.mark.parametrize("rate", [2.0, 3.0, 50.0, 3e4, 44100.0, 7e4, 3e5])
    def test_roundtrip_at_any_rate(self, tmp_path, rate):
        # times printed to 6 decimals would vary in spacing by 1e-6 s at the
        # three high rates; the shortest round-trip text does not
        s = seq([0, 0, 1, 0, 1, 1] * 50, rate=rate)
        p = tmp_path / "p.csv"
        write_label_csv(s, AB, p)
        assert p.read_text().splitlines()[:3] == ["time_s,state", "0.0,A", f"{1 / rate!r},A"]
        back = parse_label_csv(p, AB, rate)
        assert np.array_equal(back.labels, s.labels)

    # 50 Hz times are short decimals and 3 Hz times are not; at 3e4 Hz they
    # reach 1e-4 (below it repr writes an exponent) at row 3, inside block 0
    @pytest.mark.parametrize(
        "rows_per_block,rate",
        [
            pytest.param(n, rate, id=f"{n}" if rate == 50.0 else f"{n}-{rate}")
            for rate in (50.0, 3.0, 3e4)
            for n in (1, 3, 7, 4096)
        ],
    )
    def test_blocks_write_each_row_as_float_text(
        self, tmp_path, monkeypatch, rows_per_block, rate
    ):
        # runs shorter and longer than a block, and run ends on block ends
        labels = [0] * 7 + [1] + [0] * 2 + [1] * 20 + [0] * 3 + [1]
        s = seq(labels, rate=rate)
        monkeypatch.setattr(io_module, "_ROWS_PER_BLOCK", rows_per_block)
        p = tmp_path / "p.csv"
        write_label_csv(s, AB, p)
        rows = [f"{float_text(i / rate)},{AB.name(k)}\n" for i, k in enumerate(labels)]
        assert p.read_bytes() == ("time_s,state\n" + "".join(rows)).encode()

    @given(st.lists(TIMES, min_size=1, max_size=40), st.data())
    def test_decimal_rows_match_float_text(self, times, data):
        states = data.draw(st.lists(STATES, min_size=len(times), max_size=len(times)))
        got = io_module._decimal_rows(np.array(times), np.array(states), ENDS)
        assert got in (None, float_text_rows(times, states))

    @given(SHORT_DECIMALS, st.data())
    def test_decimal_rows_decline_short_decimals_only_below_1e_4(self, times, data):
        states = data.draw(st.lists(STATES, min_size=len(times), max_size=len(times)))
        got = io_module._decimal_rows(np.array(times), np.array(states), ENDS)
        exponent = any(0 < t < 1e-4 for t in times)  # as repr writes it
        assert got == (None if exponent else float_text_rows(times, states))

    def test_spec_example(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("time_s,state\n0.0,A\n0.5,A\n1.0,B\n")
        s = parse_label_csv(p, AB, 2.0)
        assert s.labels.tolist() == [0, 0, 1]
        assert s.sampling_rate_hz == 2.0

    def test_nonuniform_spacing(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("time_s,state\n0.0,A\n0.5,A\n1.1,B\n")
        with pytest.raises(NonUniformSamplingError):
            parse_label_csv(p, AB, 2.0)

    def test_descending_times(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("time_s,state\n0.5,A\n0.0,B\n")
        with pytest.raises(NonUniformSamplingError):
            parse_label_csv(p, AB, 2.0)

    def test_unknown_state(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("time_s,state\n0.0,A\n1.0,XYZ\n")
        with pytest.raises(UnknownStateError):
            parse_label_csv(p, AB, 1.0)

    def test_rate_mismatch(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("time_s,state\n0.0,A\n0.5,B\n")
        with pytest.raises(RateMismatchError):
            parse_label_csv(p, AB, 1.0)

    def test_bad_header(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("t,state\n0.0,A\n")
        with pytest.raises(MalformedCsvError):
            parse_label_csv(p, AB, 2.0)

    def test_single_row_needs_manifest_rate(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("time_s,state\n0.0,A\n")
        s = parse_label_csv(p, AB, 4.0)
        assert len(s) == 1 and s.sampling_rate_hz == 4.0

    def test_empty_file(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("")
        with pytest.raises(MalformedCsvError):
            parse_label_csv(p, AB, 2.0)

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_time(self, tmp_path, text):
        # NaN compares false, so the spacing checks alone would let it through
        p = tmp_path / "x.csv"
        p.write_text(f"time_s,state\n0.0,A\n{text},B\n1.0,A\n")
        with pytest.raises(MalformedCsvError, match=r"x\.csv:3: non-finite time"):
            parse_label_csv(p, AB, 2.0)


_BLANK_LINES = [
    ("label", "time_s,state\n0.0,A\n\n\n0.5,A\n1.0,XXX\n",
     lambda p: parse_label_csv(p, AB, 2.0)),
    ("runlength", "state,duration_s\nA,1.0\n\nB,1.0\nXXX,1.0\n",
     lambda p: parse_runlength_csv(p, AB, 1.0)),
]


@pytest.mark.parametrize(
    "text,parse",
    [
        pytest.param(text.replace("\n", newline), parse, id=name + suffix)
        for suffix, newline in [("", "\n"), ("-CRLF", "\r\n"), ("-CR", "\r")]
        for name, text, parse in _BLANK_LINES
    ],
)
def test_error_after_blank_lines_names_the_file_line(tmp_path, text, parse):
    # blank lines are skipped, but still counted: the bad row is the last line
    p = tmp_path / "x.csv"
    p.write_bytes(text.encode())
    bad_line = len(text.splitlines())
    with pytest.raises(UnknownStateError, match=rf"x\.csv:{bad_line}: state 'XXX'"):
        parse(p)


@pytest.mark.parametrize("bad_line", [3, 1003])  # 1003 lies past the first read chunk
@pytest.mark.parametrize(
    "header,row,parse,newline",
    [
        ("time_s,state", "{t}.0,A", lambda p: parse_label_csv(p, AB, 1.0), "\n"),
        ("state,duration_s", "{ab},1.0", lambda p: parse_runlength_csv(p, AB, 1.0), "\n"),
        ("time_s,state", "{t}.0,A", lambda p: parse_label_csv(p, AB, 1.0), "\r"),
        ("state,duration_s", "{ab},1.0", lambda p: parse_runlength_csv(p, AB, 1.0), "\r"),
    ],
    ids=["label", "runlength", "label-CR", "runlength-CR"],
)
def test_csv_that_is_not_utf8_names_file_and_line(
    tmp_path, header, row, parse, newline, bad_line
):
    lines = [header] + [row.format(t=i, ab="AB"[i % 2]) for i in range(1500)]
    lines[bad_line - 1] += "\xff"
    p = tmp_path / "x.csv"
    p.write_bytes((newline.join(lines) + newline).encode("latin-1"))
    with pytest.raises(MalformedCsvError, match=rf"x\.csv:{bad_line}: not valid UTF-8"):
        parse(p)


@pytest.mark.parametrize("block", [1, 2, 7, 40])
@pytest.mark.parametrize("header,parse", [
    ("time_s,state", lambda p: parse_label_csv(p, AB, 1.0)),
    ("state,duration_s", lambda p: parse_runlength_csv(p, AB, 1.0)),
], ids=["label", "runlength"])
def test_csv_that_is_not_utf8_in_small_blocks(tmp_path, monkeypatch, header, parse, block):
    # two- and three-byte characters ahead of the bad byte are cut across blocks
    text = header + "\n" + "".join(f"{i}.0,A\u00e9\u20ac\n" for i in range(40))
    p = tmp_path / "x.csv"
    p.write_bytes(text.encode("utf-8").replace(b"\n30.0", b"\n30.0\xff"))
    with pytest.raises(MalformedCsvError) as whole:
        parse(p)
    monkeypatch.setattr(io_module, "_BLOCK_BYTES", block)
    with pytest.raises(MalformedCsvError) as blocks:
        parse(p)
    assert str(blocks.value) == str(whole.value)
    assert str(whole.value).startswith(f"{p}:32: not valid UTF-8: invalid start byte")


# pieces of a file that is not UTF-8: ASCII, 2-4-byte characters, faults (a
# stray byte, cut or overlong characters, a surrogate, a code point past
# U+10FFFF) and LF, CRLF and CR line ends
UTF8_PIECES = st.sampled_from([
    b"time_s,state", b"0.5,A", b"x", b",", b" ", b"\xc3\xa9", b"\xe2\x82\xac",
    b"\xf0\x9f\x98\x80", b"\xff", b"\x80", b"\xc3", b"\xe2\x82", b"\xf0\x9f\x98",
    b"\xc0\xaf", b"\xed\xa0\x80", b"\xf4\x90\x80\x80", b"\n", b"\r\n", b"\r",
])


def _whole_decode_fault(path, data: bytes) -> str:
    """The message one ``bytes.decode`` of the whole file implies."""
    with pytest.raises(UnicodeDecodeError) as fault:
        data.decode("utf-8")
    head = data[:fault.value.start].replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    line = head.count(b"\n") + 1
    return f"{path}:{line}: not valid UTF-8: {fault.value.reason} (byte {fault.value.start})"


@given(pieces=st.lists(UTF8_PIECES, max_size=40), block=st.sampled_from([1, 2, 3, 5, 64]),
       at=st.integers(0, 40), fault=st.sampled_from([b"\xff", b"\xe2\x82", b"\xed\xa0\x80"]))
def test_utf8_fault_is_named_as_a_whole_file_decode_names_it(
        tmp_path_factory, pieces, block, at, fault):
    pieces.insert(min(at, len(pieces)), fault)
    data = b"".join(pieces)
    p = tmp_path_factory.mktemp("utf8") / "f.csv"
    p.write_bytes(data)
    message = _whole_decode_fault(p, data)
    with mock.patch.object(io_module, "_BLOCK_BYTES", block):
        for read, error in [(io_module.read_json, MalformedJsonError),
                            (lambda q: parse_label_csv(q, AB, 1.0), MalformedCsvError),
                            (lambda q: parse_runlength_csv(q, AB, 1.0), MalformedCsvError)]:
            with pytest.raises(error) as raised:
                read(p)
            assert type(raised.value) is error and str(raised.value) == message


def _manifest_of(path) -> CohortManifest:
    return CohortManifest("g", 1.0, AB, (path.name,), path.parent)


@pytest.mark.parametrize("offset", [100, 20_000])  # inside and past an 8 KiB text buffer
def test_unknown_header_is_reported_whatever_follows_it(tmp_path, offset):
    body = "".join(f"{i}.0,A\n" for i in range(5000)).encode()
    p = tmp_path / "f.csv"
    p.write_bytes(b"time,state\n" + body[:offset] + b"\xff" + body[offset:])
    with pytest.raises(MalformedCsvError) as raised:
        load_sequences(_manifest_of(p))
    assert str(raised.value) == (f"{p}: unrecognized header 'time,state'; expected "
                                 f"'time_s,state' or 'state,duration_s'")


@pytest.mark.parametrize("end", [b"\n", b"\r\n", b"\r"])
@pytest.mark.parametrize("cut", [b"\xc3", b"\xe2\x82", b"\xf0\x9f\x98"])
def test_header_character_cut_by_its_line_end(tmp_path, end, cut):
    data = b"time_s,st" + cut + end + b"0.0,A" + end + b"1.0,\xff" + end
    p = tmp_path / "f.csv"
    p.write_bytes(data)
    message = _whole_decode_fault(p, data)
    assert message == f"{p}:1: not valid UTF-8: invalid continuation byte (byte 9)"
    for read in (lambda: load_sequences(_manifest_of(p)), lambda: parse_label_csv(p, AB, 1.0)):
        with pytest.raises(MalformedCsvError) as raised:
            read()
        assert str(raised.value) == message


@pytest.mark.parametrize("end", ["\r\n", "\r"])
def test_json_error_counts_crlf_and_cr_as_one_line_end(tmp_path, end):
    text = '{\n"a": 1,\n"b": [1, 2,\n]}\n'
    p = tmp_path / "m.json"
    p.write_bytes(text.replace("\n", end).encode())
    with pytest.raises(MalformedJsonError) as raised:
        io_module.read_json(p)
    assert str(raised.value) == f"{p}: Expecting value: line 4 column 1 (char 22)"


def test_block_ends_past_the_first_line_end_at_or_beyond_block_bytes(monkeypatch):
    monkeypatch.setattr(io_module, "_BLOCK_BYTES", 8)
    straddle = b"1.0,AAA\r\n2.0,A\n"  # its CRLF pair is bytes 7 and 8
    assert io_module._block_end(straddle, 0) == 9
    assert io_module._block_end(b"x" + straddle, 1) == 10
    long = b"1.0,ABCDEFGHIJKLMNOP\n2.0,A\n"  # its first line is longer than a block
    assert io_module._block_end(long, 0) == 21
    assert io_module._block_end(long, 21) == len(long)  # no line end 8 bytes on
    assert io_module._block_end(b"1.0,AAA\r\r2.0,A\n", 0) == 9  # two lone CRs, two line ends


class TestRunlengthCsv:
    def test_spec_example(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("state,duration_s\nA,3.0\nB,2.0\n")
        r = parse_runlength_csv(p, AB, sampling_rate_hz=1.0)
        assert r.runs == [(0, 3), (1, 2)]

    def test_adjacent_equal_states_merge_with_warning(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("state,duration_s\nA,1.0\nA,2.0\nB,1.0\n")
        with pytest.warns(DataNormalizationWarning):
            r = parse_runlength_csv(p, AB, sampling_rate_hz=1.0)
        assert r.runs == [(0, 3), (1, 1)]

    def test_zero_duration(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("state,duration_s\nA,0.0\n")
        with pytest.raises(NonPositiveDurationError):
            parse_runlength_csv(p, AB, sampling_rate_hz=1.0)

    @pytest.mark.parametrize(
        "rows",
        [
            "A,1.0\nB,inf",
            "A,1.0\nB,1e400",
            "A,1.0\nB,1e300",  # finite, but its sample count overflows int64
            "A,5e18\nA,5e18",  # each fits in int64, their merged run does not
            "A,5e18\nB,5e18",  # each run fits in int64, the file's total does not
        ],
    )
    def test_non_finite_or_oversized_duration(self, tmp_path, rows):
        p = tmp_path / "r.csv"
        p.write_text(f"state,duration_s\n{rows}\n")
        with pytest.raises(MalformedCsvError, match=r"r\.csv:3: duration"):
            parse_runlength_csv(p, AB, sampling_rate_hz=1.0)

    def test_quantization_rounds_half_up_with_floor(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("state,duration_s\nA,0.2\nB,0.75\nA,1.24\n")
        r = parse_runlength_csv(p, AB, sampling_rate_hz=2.0)
        # 0.4 samples -> floor 1; 1.5 -> 2; 2.48 -> 2
        assert r.durations.tolist() == [1, 2, 2]

    def test_roundtrip(self, tmp_path):
        r = encode_runs(seq([0, 0, 1, 0, 0, 0], rate=2.0, id="q"))
        p = tmp_path / "r.csv"
        write_runlength_csv(r, AB, p)
        back = parse_runlength_csv(p, AB, sampling_rate_hz=2.0)
        assert np.array_equal(back.states, r.states)
        assert np.array_equal(back.durations, r.durations)


@pytest.mark.parametrize("write", [write_label_csv, write_runlength_csv])
def test_writer_refuses_times_past_a_double_and_writes_nothing(tmp_path, write):
    # at 1e-308 Hz a second sample lies at 1e308 s and a third past any double
    s = seq([0, 1, 1, 0, 0, 0], rate=1e-308)
    p = tmp_path / "tiny.csv"
    with pytest.raises(ValueError, match="not a finite number of seconds"):
        write(s if write is write_label_csv else encode_runs(s), AB, p)
    assert not p.exists()


@pytest.mark.parametrize("write", [write_label_csv, write_runlength_csv])
def test_writer_refuses_a_state_outside_the_alphabet_and_writes_nothing(tmp_path, write):
    runs = RunSequence([0, 5], [2, 3], 2.0)
    p = tmp_path / "out.csv"
    with pytest.raises(ValueError, match=r"state index 5 is outside the alphabet of 2 states"):
        write(decode_runs(runs) if write is write_label_csv else runs, AB, p)
    assert not p.exists()


@pytest.mark.parametrize("name", ["A,B", ",", "A\rB", "A\nB", "A\r\n", " A", "A ", "\tA",
                                  "A\x1c", "\u3000A", "A\x85", " ", "\ud800", "A\udfffB"])
@pytest.mark.parametrize("write", [write_label_csv, write_runlength_csv])
def test_writer_refuses_a_name_the_readers_cannot_read_back(tmp_path, write, name):
    alphabet = build_alphabet((name, "B"))
    s = seq([0, 0, 1, 1, 1, 0])
    p = tmp_path / "out.csv"
    with pytest.raises(ValueError, match="cannot be written to a CSV"):
        write(s if write is write_label_csv else encode_runs(s), alphabet, p)
    assert not p.exists()


@pytest.mark.parametrize("name", ["A B", "", '"A"', "\u00e9t\u00e9", "A\x00", "A;B", "A\x0bB"])
@pytest.mark.parametrize("kind", ["label", "runlength"])
def test_names_next_to_the_refused_ones_read_back(tmp_path, kind, name):
    alphabet = build_alphabet((name, "B"))
    s = seq([0, 0, 1, 1, 1, 0], rate=2.0, id="n")
    p = tmp_path / "n.csv"
    if kind == "label":
        write_label_csv(s, alphabet, p)
        back = encode_runs(parse_label_csv(p, alphabet, 2.0))
    else:
        write_runlength_csv(encode_runs(s), alphabet, p)
        back = parse_runlength_csv(p, alphabet, 2.0)
    assert back.runs == encode_runs(s).runs


@pytest.mark.parametrize("rate", [0.0, -2.0, math.nan, math.inf])
@pytest.mark.parametrize("parse", [parse_label_csv, parse_runlength_csv])
def test_readers_refuse_a_rate_that_is_not_finite_and_positive(tmp_path, parse, rate):
    s = seq([0, 0, 1, 1, 1, 0])
    p = tmp_path / "x.csv"
    if parse is parse_label_csv:
        write_label_csv(s, AB, p)
    else:
        write_runlength_csv(encode_runs(s), AB, p)
    with pytest.raises(ValueError, match="sampling_rate_hz must be finite and positive") as exc:
        parse(p, AB, rate)
    assert type(exc.value) is ValueError


class TestManifest:
    def test_roundtrip_and_resolution(self, tmp_path):
        m = CohortManifest(
            group_label="success",
            sampling_rate_hz=2.0,
            alphabet=AB,
            patient_files=("a.csv", "b.csv"),
        )
        p = tmp_path / "m.json"
        write_manifest(m, p)
        back = read_manifest(p)
        assert back.group_label == "success"
        assert back.alphabet == AB
        assert back.resolved_paths()[0] == tmp_path / "a.csv"

    def test_missing_key(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text('{"group_label":"x"}')
        with pytest.raises(MalformedJsonError):
            read_manifest(p)

    @pytest.mark.parametrize(
        "field", [{"group_label": 5}, {"sampling_rate_hz": True}, {"sampling_rate_hz": "2"}]
    )
    def test_ill_typed_label_or_rate(self, tmp_path, field):
        doc = {"group_label": "x", "sampling_rate_hz": 2, "alphabet": ["A", "B"],
               "patient_files": ["a.csv"], **field}
        p = tmp_path / "m.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(MalformedJsonError, match=r"m\.json: ill-typed manifest field"):
            read_manifest(p)
        doc.update(group_label="x", sampling_rate_hz=2)  # an int rate is a number
        p.write_text(json.dumps(doc))
        assert read_manifest(p).sampling_rate_hz == 2.0

    def test_load_mixed_formats(self, tmp_path):
        write_label_csv(seq([0, 1, 1, 0], rate=2.0), AB, tmp_path / "a.csv")
        write_runlength_csv(
            encode_runs(seq([1, 1, 0, 0], rate=2.0)), AB, tmp_path / "b.csv"
        )
        m = CohortManifest(
            group_label="g",
            sampling_rate_hz=2.0,
            alphabet=AB,
            patient_files=("a.csv", "b.csv"),
            base_dir=tmp_path,
        )
        seqs = load_sequences(m)
        assert [s.labels.tolist() for s in seqs] == [[0, 1, 1, 0], [1, 1, 0, 0]]
        # mixed-format cohorts feed fitting directly
        tm, _ = fit_dtmc(seqs, AB)
        assert tm.row_fitted.all()


class TestModelJson:
    def test_semantic_roundtrip(self, tmp_path):
        m = success_model()
        p = tmp_path / "m.json"
        write_model_json(m, p)
        doc = read_model_json(p)
        assert np.array_equal(doc.transitions.probs, m.transitions.probs)  # exact
        assert doc.transitions.kind == "semi_markov"
        assert doc.dwell.keys() == m.dwell.keys()
        for name in m.dwell:
            assert doc.dwell[name].params == m.dwell[name].params
        assert isinstance(doc, SemiMarkovModel)
        assert doc.metadata["cohort"] == "success"

    def test_byte_identical_reserialization(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_model_json(success_model(), p1)
        write_model_json(read_model_json(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_seventeen_digit_floats_read_to_the_same_values(self, tmp_path):
        # earlier versions printed every float to 17 significant digits
        def seventeen(match):
            text = f"{float(match[0]):.17g}"
            return text if "." in text or "e" in text else text + ".0"

        new = tmp_path / "new.json"
        write_model_json(success_model(), new)
        text = new.read_text()
        old_text = re.sub(r"(?<=[:,\[])-?\d+\.\d+(?:e[-+]?\d+)?(?=[,\]}])", seventeen, text)
        assert old_text != text and "0.27000000000000002" in old_text
        old = tmp_path / "old.json"
        old.write_text(old_text)
        assert json.loads(old_text) == json.loads(text)  # every value, exactly
        again = tmp_path / "again.json"
        write_model_json(read_model_json(old), again)
        assert again.read_bytes() == new.read_bytes()

    def test_fallback_flags_of_older_files_are_read_and_dropped(self, tmp_path):
        # a fitted model as earlier versions wrote it: every dwell fit holds a
        # "fallback" flag, here true for ASB and false for the other four
        old = FIXTURES / "success_semimarkov_v1_fallback.json"
        raw = json.loads(old.read_text())
        assert [d.pop("fallback") for d in raw["dwell"].values()] == [True] + [False] * 4
        model = read_model_json(old)
        assert document_to_dict(model) == raw
        again = tmp_path / "again.json"
        write_model_json(model, again)
        assert again.read_text() == canonical_json(raw)

    def test_dtmc_document(self, tmp_path):
        tm, counts = fit_dtmc([seq([0, 0, 1, 1, 0], rate=1.0)], AB)
        p = tmp_path / "d.json"
        write_model_json(SemiMarkovModel(tm, {}, {"total_transitions": counts.total}), p)
        doc = read_model_json(p)
        assert isinstance(doc, SemiMarkovModel)
        assert doc.transitions.kind == "dtmc"
        assert np.array_equal(doc.transitions.probs, tm.probs)
        assert doc.dwell == {}
        assert doc.metadata["total_transitions"] == 4

    def test_dtmc_document_with_a_dwell_fit_is_malformed(self, tmp_path):
        tm, _ = fit_dtmc([seq([0, 0, 1, 1, 0], rate=1.0)], AB)
        p = tmp_path / "d.json"
        p.write_text(canonical_json(
            {**document_to_dict(SemiMarkovModel(tm, {})),
             "dwell": {"A": {"family": EXPONENTIAL, "params": {"mu": 2.0}, "n_obs": 1,
                             "log_likelihood": None, "bic": None}}}))
        with pytest.raises(MalformedJsonError, match="dtmc transition matrix carries no dwell"):
            read_model_json(p)

    @pytest.mark.parametrize(
        "key", ["schema_version", "alphabet", "kind", "transitions", "row_fitted", "dwell",
                "metadata"])
    def test_missing_key_is_malformed(self, key):
        raw = document_to_dict(success_model())
        del raw[key]
        with pytest.raises(MalformedJsonError,
                           match=f"^m.json: model document missing key '{key}'$"):
            document_from_dict(raw, source="m.json")

    def test_truncated_file(self, tmp_path):
        p = tmp_path / "m.json"
        write_model_json(success_model(), p)
        p.write_text(p.read_text()[:50])
        with pytest.raises(MalformedJsonError):
            read_model_json(p)

    def test_schema_version_guard(self, tmp_path):
        p = tmp_path / "m.json"
        write_model_json(success_model(), p)
        raw = json.loads(p.read_text())
        raw["schema_version"] = 99
        p.write_text(json.dumps(raw))
        with pytest.raises(SchemaVersionMismatchError):
            read_model_json(p)


class TestHistogram:
    EXP = DwellFit(EXPONENTIAL, {"mu": 2.2})

    def read_rows(self, path):
        lines = path.read_text().strip().splitlines()
        return lines[0].split(","), [
            [float(v) for v in line.split(",")] for line in lines[1:]
        ]

    def emit(self, xs, width, path, overlay=EXP):
        """Each duration once."""
        emit_histogram_csv(xs, width, path, overlay, np.ones(len(xs), dtype=np.int64))

    def test_hand_normalization(self, tmp_path):
        p = tmp_path / "h.csv"
        self.emit([1.0, 1.0, 3.0], 2.0, p)
        header, rows = self.read_rows(p)
        assert header == ["bin_left_s", "bin_right_s", "density", "overlay_pdf"]
        assert rows[0][:3] == [0.0, 2.0, pytest.approx(1 / 3)]
        assert rows[1][:3] == [2.0, 4.0, pytest.approx(1 / 6)]

    def test_single_value(self, tmp_path):
        p = tmp_path / "h.csv"
        self.emit([0.7], 2.0, p)
        _, rows = self.read_rows(p)
        assert [row[:3] for row in rows] == [[0.0, 2.0, 0.5]]

    def test_densities_integrate_to_one(self, tmp_path):
        rng = np.random.default_rng(0)
        xs = rng.exponential(2.2, size=500)
        p = tmp_path / "h.csv"
        self.emit(xs, 0.5, p)
        _, rows = self.read_rows(p)
        total = sum(r[2] for r in rows) * 0.5
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_last_bin_reaches_the_longest_dwell(self, tmp_path):
        # 63 / 0.7 rounds to 90.0, but the 90th bin ends below 63
        assert 63.0 / 0.7 == 90.0 and 90 * 0.7 < 63.0
        p = tmp_path / "h.csv"
        emit_histogram_csv([1.0, 2.0, 63.0], 0.7, p, self.EXP, [1, 1, 1])
        _, rows = self.read_rows(p)
        assert len(rows) == 91 and rows[-1][1] >= 63.0
        assert rows[-1][2] > 0.0
        assert sum(r[2] for r in rows) * 0.7 == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("max_s,width,n", [
        (63.0, 0.7, 91),  # 63 / 0.7 is 90.0, but 90 * 0.7 < 63
        (2.1, 0.3, 7),  # 2.1 / 0.3 is 7.000000000000001, but 7 * 0.3 == 2.1
        (2.0, 1.0, 2),
        (0.0, 1.0, 1),
    ])
    def test_bin_count_where_the_ratio_rounds(self, max_s, width, n):
        assert histogram_bin_count(max_s, width) == n

    def test_exponential_overlay_column(self, tmp_path):
        p = tmp_path / "h.csv"
        self.emit([1.0, 1.0, 3.0], 2.0, p)
        header, rows = self.read_rows(p)
        assert header[-1] == "overlay_pdf"
        assert rows[0][3] == pytest.approx(math.exp(-1.0 / 2.2) / 2.2, abs=1e-12)
        assert rows[0][3] == pytest.approx(0.2885, abs=1e-4)

    @pytest.mark.parametrize("overlay,zero_rows", [
        (DwellFit(EXPONENTIAL, {"mu": 2.2}), 0),
        (DwellFit(GPD, {"k": -0.5, "sigma": 5.5}), 2),  # upper end 11
        (DwellFit(GEV, {"k": 0.4, "sigma": 1.3, "mu": 5.0}), 4),  # lower end 1.75
        (DwellFit(GPD, {"k": -0.5, "sigma": 3.0}), 12),  # upper end 6
        (DwellFit(INVERSE_GAUSSIAN, {"mu": 8.61, "lambda": 3.61}), 0),
        # below mu, exp(-z) (Gumbel limit) or w^(-1/k) overflows where the
        # density underflows to 0; the error::RuntimeWarning filter would raise
        (DwellFit(GEV, {"k": 1e-14, "sigma": 0.01, "mu": 10.0}), 20),
        (DwellFit(GEV, {"k": 1e-3, "sigma": 0.01, "mu": 10.0}), 20),  # lower end 0
    ])
    def test_overlay_is_the_density_at_each_midpoint(self, tmp_path, overlay, zero_rows):
        p = tmp_path / "h.csv"
        self.emit([0.3, 1.0, 2.5, 7.9, 12.0], 0.5, p, overlay)
        _, rows = self.read_rows(p)
        assert len(rows) == 24
        for left, right, _, pdf in rows:
            x = 0.5 * (left + right)
            assert pdf == pytest.approx(math.exp(log_pdf(overlay, x)),
                                        rel=1e-15, abs=0.0)
        assert sum(row[3] == 0.0 for row in rows) == zero_rows

    @pytest.mark.parametrize("overlay", [DwellFit(GPD, {"k": -0.5, "sigma": 5.5}),
                                         DwellFit(EXPONENTIAL, {"mu": 2.2})])
    def test_counts_match_expanded_durations(self, tmp_path, overlay):
        xs = np.ceil(np.random.default_rng(1).exponential(2.2, size=500) * 4.0) / 4.0
        values, counts = np.unique(xs, return_counts=True)
        table, flat = tmp_path / "table.csv", tmp_path / "flat.csv"
        emit_histogram_csv(values, 0.5, table, overlay, counts)
        self.emit(np.repeat(values, counts), 0.5, flat, overlay)
        assert table.read_bytes() == flat.read_bytes()

    def test_bin_count_limit(self, tmp_path):
        p = tmp_path / "h.csv"
        with pytest.raises(ValueError, match="5e\\+11 bins of 1 s"):
            self.emit([5e11], 1.0, p)
        with pytest.raises(ValueError, match="bins"):
            self.emit([1.0], 1e-320, p)
        assert not p.exists()

    def test_empty_guard(self, tmp_path):
        with pytest.raises(Exception):
            self.emit([], 1.0, tmp_path / "h.csv")


def test_sniffed_bad_header(tmp_path):
    p = tmp_path / "weird.csv"
    p.write_text("foo,bar\n1,2\n")
    m = CohortManifest(
        group_label="g",
        sampling_rate_hz=1.0,
        alphabet=AB,
        patient_files=("weird.csv",),
        base_dir=tmp_path,
    )
    with pytest.raises(MalformedCsvError):
        load_sequences(m)


def test_preset_matrix_exact_after_roundtrip(tmp_path):
    # the bundled matrices must come back bit-exact, including the row that
    # needed renormalization
    p = tmp_path / "m.json"
    write_model_json(success_model(), p)
    doc = read_model_json(p)
    expect = success_model().transitions.probs
    assert doc.transitions.probs.tolist() == expect.tolist()
