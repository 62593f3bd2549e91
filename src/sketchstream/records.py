"""Edge records and the tab-separated wire format.

One edge per line, seven tab-separated fields in this order: source id,
source type, destination id, destination type, timestamp, edge type,
graph id. Ids and timestamps are decimal non-negative integers written
in ASCII digits alone, with no sign, space or underscore; type symbols
are single printable ASCII characters. Lines are LF terminated; a CR
before the LF is part of the last field, which then fails to parse.
An id or timestamp longer than Python's int() digit limit (4,300 digits
by default) fails like any other malformed number.

:func:`parse_edge` checks a whole line with one precompiled pattern and
falls back to :func:`parse_edge_fields`, the field-by-field reference,
only when the pattern does not match or a number is over the digit limit.
So a rejected line gets the reference's error, and an accepted one its
record.
"""

from __future__ import annotations

import re
import sys
from typing import IO, Iterable, Iterator, NamedTuple

FIELD_SEPARATOR = "\t"

# A valid line, trailing LFs included: [0-9] and [ -~] are ASCII only.
_LINE = re.compile(
    r"([0-9]+)\t([ -~])\t([0-9]+)\t([ -~])\t([0-9]+)\t([ -~])\t([0-9]+)\n*"
).fullmatch


class ParseError(ValueError):
    """Raised for malformed edge lines; carries the line number and field."""

    def __init__(self, message: str, line_no: int | None = None, field: str | None = None):
        prefix = ""
        if line_no is not None:
            prefix += f"line {line_no}: "
        if field is not None:
            prefix += f"field {field}: "
        super().__init__(prefix + message)
        self.line_no = line_no
        self.field = field


class EdgeRecord(NamedTuple):
    """One typed, timestamped edge tagged with the graph it belongs to (immutable)."""

    source_id: int
    source_type: str
    dest_id: int
    dest_type: str
    timestamp: int
    edge_type: str
    graph_id: int


def parse_edge(line: str, line_no: int | None = None) -> EdgeRecord:
    """Parse one wire-format line into an :class:`EdgeRecord`.

    Raises :class:`ParseError` naming the offending line and field on a
    wrong field count, an id or timestamp that is not a string of ASCII
    digits within the int digit limit, or a type symbol that is not a
    single printable ASCII character.
    """
    match = _LINE(line)
    if match is not None:
        source_id, source_type, dest_id, dest_type, timestamp, edge_type, graph_id = match.groups()
        try:
            return EdgeRecord(
                int(source_id), source_type, int(dest_id), dest_type,
                int(timestamp), edge_type, int(graph_id),
            )
        except ValueError:
            pass  # a number over the digit limit; the reference names it
    return parse_edge_fields(line, line_no)


def parse_edge_fields(line: str, line_no: int | None = None) -> EdgeRecord:
    """The field-by-field reference for :func:`parse_edge`, with the same contract."""
    fields = line.rstrip("\n").split(FIELD_SEPARATOR)
    try:
        source_id, source_type, dest_id, dest_type, timestamp, edge_type, graph_id = fields
    except ValueError:
        raise ParseError(f"{len(fields)} fields, expected 7", line_no=line_no) from None
    return EdgeRecord(
        _number(source_id, line_no, "source_id"),
        _symbol(source_type, line_no, "source_type"),
        _number(dest_id, line_no, "dest_id"),
        _symbol(dest_type, line_no, "dest_type"),
        _number(timestamp, line_no, "timestamp"),
        _symbol(edge_type, line_no, "edge_type"),
        _number(graph_id, line_no, "graph_id"),
    )


def _number(raw: str, line_no: int | None, field: str) -> int:
    # isdigit alone also takes non-ASCII digits such as "\u0661".
    if raw.isascii() and raw.isdigit():
        try:
            return int(raw)
        except ValueError:
            raise ParseError(_too_many_digits(raw), line_no, field) from None
    raise ParseError(f"{raw!r} is not a decimal non-negative integer", line_no, field)


def _too_many_digits(raw: str) -> str:
    """The error message for a digit string that ``int()`` refuses as too long."""
    return (
        f"{raw[:12]!r}... has {len(raw)} digits, over the limit of "
        f"{sys.get_int_max_str_digits()} for an int"
    )


def _symbol(raw: str, line_no: int | None, field: str) -> str:
    if len(raw) == 1 and " " <= raw <= "~":
        return raw
    raise ParseError(f"{raw!r} is not a single printable ASCII symbol", line_no, field)


def format_edge(rec: EdgeRecord) -> str:
    """Render a record as one wire-format line including the trailing LF."""
    return (
        f"{rec.source_id}\t{rec.source_type}\t{rec.dest_id}\t{rec.dest_type}"
        f"\t{rec.timestamp}\t{rec.edge_type}\t{rec.graph_id}\n"
    )


def read_stream(lines: Iterable[str]) -> Iterator[EdgeRecord]:
    """Parse an iterable of lines, numbering them from 1 for error reports.

    An empty line ``"\\n"`` is skipped; every other line must parse.
    """
    for line_no, line in enumerate(lines, start=1):
        if line == "\n":
            continue
        yield parse_edge(line, line_no)


def write_stream(records: Iterable[EdgeRecord], fp: IO[str]) -> int:
    """Write records in wire format; returns the number of lines written."""
    count = 0
    for rec in records:
        fp.write(format_edge(rec))
        count += 1
    return count
