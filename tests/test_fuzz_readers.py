"""Fuzzing of the file readers.

Property: every input either parses or raises one of the three exception
types that ``cli.main`` reports as a one-line data error (exit 1):
SemiMarkovError, ValueError or OSError.  Anything else would reach the user
as a traceback.
"""

import copy
import json

from hypothesis import given
from hypothesis import strategies as st

from semimarkov.errors import SemiMarkovError
from semimarkov.io import (
    document_to_dict,
    model_to_document,
    parse_label_csv,
    parse_runlength_csv,
    read_manifest,
    read_model_json,
)
from semimarkov.presets import success_model
from semimarkov.sequences import build_alphabet

DATA_ERRORS = (SemiMarkovError, ValueError, OSError)
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

MODEL = document_to_dict(model_to_document(success_model()))
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


@given(st.sampled_from(list(_paths(MODEL))), json_values)
def test_model_file_with_one_arbitrary_field(tmp_path_factory, path, value):
    p = tmp_path_factory.mktemp("model") / "m.json"
    p.write_text(json.dumps(_put(MODEL, path, value)), encoding="utf-8")
    _reads_or_reports(read_model_json, p)


@given(st.sampled_from(list(_paths(MANIFEST))), json_values)
def test_manifest_with_one_arbitrary_field(tmp_path_factory, path, value):
    p = tmp_path_factory.mktemp("manifest") / "m.json"
    p.write_text(json.dumps(_put(MANIFEST, path, value)), encoding="utf-8")
    _reads_or_reports(read_manifest, p)


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


@given(csv_bytes("time_s,state"), st.sampled_from([None, 1.0]))
def test_label_csv_bytes(tmp_path_factory, data, rate):
    p = tmp_path_factory.mktemp("labels") / "x.csv"
    p.write_bytes(data)
    _reads_or_reports(parse_label_csv, p, AB, rate)


@given(csv_bytes("state,duration_s"))
def test_runlength_csv_bytes(tmp_path_factory, data):
    p = tmp_path_factory.mktemp("runs") / "r.csv"
    p.write_bytes(data)
    _reads_or_reports(parse_runlength_csv, p, AB, 1.0)
