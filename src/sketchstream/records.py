"""Edge records and the tab-separated wire format.

One edge per line, seven tab-separated fields in this order: source id,
source type, destination id, destination type, timestamp, edge type,
graph id. Ids and timestamps are decimal non-negative integers; type
symbols are single printable ASCII characters. Lines are LF terminated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO, Iterable, Iterator

FIELD_SEPARATOR = "\t"

_FIELD_NAMES = (
    "source_id",
    "source_type",
    "dest_id",
    "dest_type",
    "timestamp",
    "edge_type",
    "graph_id",
)
_INT_FIELDS = {"source_id", "dest_id", "timestamp", "graph_id"}


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


def _valid_symbol(symbol: str) -> bool:
    # Single printable ASCII character, excluding the field separator.
    return len(symbol) == 1 and symbol != FIELD_SEPARATOR and 0x20 <= ord(symbol) <= 0x7E


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
    wrong field count, a non-integer id or timestamp, or a type symbol
    that is not a single printable ASCII character.
    """
    fields = line.rstrip("\n").split(FIELD_SEPARATOR)
    if len(fields) != len(_FIELD_NAMES):
        raise ParseError(
            f"{len(fields)} fields, expected {len(_FIELD_NAMES)}", line_no=line_no
        )
    values: dict[str, int | str] = {}
    for name, raw in zip(_FIELD_NAMES, fields):
        if name in _INT_FIELDS:
            try:
                value = int(raw)
            except ValueError:
                raise ParseError(f"{raw!r} is not an integer", line_no, name) from None
            if value < 0:
                raise ParseError(f"{value} is negative", line_no, name)
            values[name] = value
        else:
            if not _valid_symbol(raw):
                raise ParseError(
                    f"{raw!r} is not a single printable ASCII symbol", line_no, name
                )
            values[name] = raw
    return EdgeRecord(**values)  # type: ignore[arg-type]


def format_edge(rec: EdgeRecord) -> str:
    """Render a record as one wire-format line including the trailing LF."""
    return (
        f"{rec.source_id}\t{rec.source_type}\t{rec.dest_id}\t{rec.dest_type}"
        f"\t{rec.timestamp}\t{rec.edge_type}\t{rec.graph_id}\n"
    )


def read_stream(lines: Iterable[str]) -> Iterator[EdgeRecord]:
    """Parse an iterable of lines, numbering them from 1 for error reports.

    Blank lines are skipped.
    """
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        yield parse_edge(line, line_no)


def write_stream(records: Iterable[EdgeRecord], fp: IO[str]) -> int:
    """Write records in wire format; returns the number of lines written."""
    count = 0
    for rec in records:
        fp.write(format_edge(rec))
        count += 1
    return count
