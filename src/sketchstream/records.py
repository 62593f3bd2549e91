"""Edge records and the tab-separated wire format.

One edge per line, seven tab-separated fields in this order: source id,
source type, destination id, destination type, timestamp, edge type,
graph id. Ids and timestamps are decimal non-negative integers written
in ASCII digits alone, with no sign, space or underscore; type symbols
are single printable ASCII characters. Lines are LF terminated; a CR
before the LF is part of the last field, which then fails to parse.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO, Iterable, Iterator

FIELD_SEPARATOR = "\t"


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


@dataclass(frozen=True, slots=True)
class EdgeRecord:
    """One typed, timestamped edge tagged with the graph it belongs to."""

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
    digits, or a type symbol that is not a single printable ASCII
    character.
    """
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
        return int(raw)
    raise ParseError(f"{raw!r} is not a decimal non-negative integer", line_no, field)


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
