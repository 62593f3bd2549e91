from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sketchstream import EdgeRecord, ParseError, format_edge, parse_edge, read_stream
from sketchstream.records import parse_edge_fields
from sketchstream.shingles import ChunkDelta

_NUMBERS = (0, 2, 4, 6)  # positions of the ids and the timestamp


def test_parse_simple_line():
    rec = parse_edge("1\ta\t2\tb\t5\tx\t0")
    assert rec == EdgeRecord(1, "a", 2, "b", 5, "x", 0)


def test_records_and_deltas_are_immutable_values():
    rec = EdgeRecord(1, "a", 2, "b", 5, "x", 0)
    assert EdgeRecord._fields == (
        "source_id", "source_type", "dest_id", "dest_type", "timestamp", "edge_type", "graph_id"
    )
    assert rec == EdgeRecord(1, "a", 2, "b", 5, "x", 0) != EdgeRecord(1, "a", 2, "b", 5, "x", 1)
    with pytest.raises(AttributeError):
        rec.graph_id = 3
    delta = ChunkDelta.cancelled(["ab", "cd", "ab"], ["cd", "ef"])
    assert delta == ChunkDelta({"ab": 2, "ef": -1}) != ChunkDelta({"ab": 2})
    with pytest.raises(AttributeError):
        delta.net = {}
    assert delta.incoming == Counter(ab=2) and delta.outgoing == Counter(ef=1)


def test_parse_multichar_type_symbol_fails():
    with pytest.raises(ParseError, match="edge_type"):
        parse_edge("1\ta\t2\tb\t5\txy\t0")


def test_parse_wrong_field_count_fails():
    with pytest.raises(ParseError, match="6 fields, expected 7"):
        parse_edge("1\ta\t2\tb\t5\tx")


def test_parse_error_carries_line_number():
    with pytest.raises(ParseError, match="line 3"):
        parse_edge("1\ta\t2\tb\t5\txy\t0", line_no=3)


@pytest.mark.parametrize(
    "line,field",
    [
        ("x\ta\t2\tb\t5\tx\t0", "source_id"),
        ("1\ta\t2\tb\tfive\tx\t0", "timestamp"),
        ("1\ta\t2\tb\t5\tx\t-1", "graph_id"),
        ("1\t\t2\tb\t5\tx\t0", "source_type"),
        ("1\ta\t2\tb\t5\t\tx\t0", None),  # embedded tab bumps the field count
        # int() would take each of these
        ("+1\ta\t2\tb\t5\tx\t0", "source_id"),
        ("1\ta\t 2\tb\t5\tx\t0", "dest_id"),
        ("1\ta\t2\tb\t5 \tx\t0", "timestamp"),
        ("1\ta\t2\tb\t1_0\tx\t0", "timestamp"),
        ("1\ta\t2\tb\t5\tx\t\u0661", "graph_id"),
        ("1\ta\t2\tb\t5\tx\t0\r\n", "graph_id"),
        # over int()'s default limit of 4,300 digits
        ("1\ta\t" + "9" * 5000 + "\tb\t5\tx\t0\n", "dest_id: '999999999999'... has 5000 digits"),
    ],
)
def test_parse_rejects_bad_fields(line, field):
    with pytest.raises(ParseError) as exc:
        parse_edge(line, line_no=7)
    if field is not None:
        assert field in str(exc.value)


def test_read_stream_numbers_lines_and_skips_blanks():
    lines = ["1\ta\t2\tb\t5\tx\t0\n", "\n", "3\tc\t4\td\t6\ty\t1\n"]
    records = list(read_stream(lines))
    assert [r.source_id for r in records] == [1, 3]
    with pytest.raises(ParseError, match="line 2"):
        list(read_stream(["1\ta\t2\tb\t5\tx\t0\n", "broken\n"]))


@pytest.mark.parametrize(
    "line, message",
    [
        pytest.param("\t" * 6 + "\n", "field source_id: ''", id="six-tabs"),
        pytest.param("\r\n", "1 fields, expected 7", id="crlf"),
        pytest.param("  \n", "1 fields, expected 7", id="spaces"),
    ],
)
def test_read_stream_rejects_a_whitespace_only_line(line, message):
    # only the empty line "\n" is skipped; these name their line
    lines = ["\n", line, "1\ta\t2\tb\t5\tx\t0\n"]
    with pytest.raises(ParseError, match=f"^line 2: {message}"):
        list(read_stream(lines))


_symbol = st.text(
    alphabet=st.characters(min_codepoint=0x21, max_codepoint=0x7E), min_size=1, max_size=1
)
_uint = st.integers(min_value=0, max_value=2**32)


@given(
    source_id=_uint,
    source_type=_symbol,
    dest_id=_uint,
    dest_type=_symbol,
    timestamp=_uint,
    edge_type=_symbol,
    graph_id=_uint,
)
def test_format_parse_round_trip(**fields):
    rec = EdgeRecord(**fields)
    line = format_edge(rec)
    assert line.endswith("\n")
    assert parse_edge(line) == rec
    assert parse_edge_fields(line) == rec  # the field-by-field reference


_VALID_FIELDS = ("12", "a", "3", "b", "40", "X", "5")
_BAD_PIECES = st.sampled_from([
    "+1", "-1", " 1", "1 ", "1_0", "\u0661", "\uff11", "0\r", "\r",
    "", " ", "\t", "1\t2", "ab", "\x7f", "\xe9",
    "\n", "1\n", "9" * 4301,  # an inner LF; over int()'s default digit limit
])


@settings(max_examples=400)
@given(
    edits=st.lists(
        st.tuples(st.integers(0, 7), st.one_of(_BAD_PIECES, st.text(max_size=3))), max_size=3
    ),
    end=st.sampled_from(["\n", "\r\n", "", "\n\n"]),
)
def test_parse_edge_enforces_the_wire_contract(edits, end):
    # a valid line with up to three fields replaced; position 7 appends one
    fields = list(_VALID_FIELDS)
    for position, piece in edits:
        fields[position : position + 1] = [piece]
    line = "\t".join(fields) + end
    # The pattern path and the field-by-field reference agree on every line.
    try:
        reference = parse_edge_fields(line, line_no=9)
    except ParseError as exc:
        reference = exc
    try:
        rec = parse_edge(line, line_no=9)
    except ParseError as exc:
        assert str(exc).startswith("line 9: ")
        assert isinstance(reference, ParseError) and str(exc) == str(reference)
        return
    assert rec == reference
    raw = line.rstrip("\n").split("\t")
    assert len(raw) == 7
    for i in _NUMBERS:
        assert raw[i].isascii() and raw[i].isdigit()
    values = tuple(rec)
    assert [values[i] for i in _NUMBERS] == [int(raw[i]) for i in _NUMBERS]
    for i in (1, 3, 5):
        assert len(values[i]) == 1 and 0x20 <= ord(values[i]) <= 0x7E
