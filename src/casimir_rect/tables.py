"""Deterministic, streamed CSV and JSON output of tables as columns and rows.

A table is a list of column names and an iterable of rows of cells (floats,
ints, strings, or None).  Numbers are rendered with 17 significant digits,
so parsing the output recovers every value bit-exactly; line endings are LF
and JSON key order is fixed, so identical tables give identical bytes.

`emit_table` writes to its sink in blocks of at most CHUNK_ROWS rows, so a
caller can hand it a generator over values it has already computed: a CSV
table is never held as one string, and its output stage holds one block,
whatever the row count.  JSON rows become one list first (the json module
cannot encode a generator), but the document is never one string.  The
json module is imported by the JSON branch only, so a CSV table never loads it.
"""

from __future__ import annotations

from itertools import chain, islice

__all__ = ["render_value", "emit_table", "CHUNK_ROWS"]

# rows per sink write: with an unbuffered sink every write is a system call
CHUNK_ROWS = 256


def render_value(v) -> str:
    """Round-trip rendering: float(render_value(x)) == x for finite floats."""
    if v is None:
        return ""
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def _write_blocks(sink, pieces, size: int) -> None:
    """Write the strings of pieces to sink, joined in blocks of size pieces."""
    pieces = iter(pieces)
    while block := list(islice(pieces, size)):
        sink.write("".join(block))


def emit_table(columns, rows, format: str, sink, meta: dict) -> None:
    """Write the table of columns and an iterable of rows to a file-like sink.

    CSV is a header line and one line per row; JSON is
    json.dumps({"columns": ..., "rows": ..., "meta": ...}, indent=2) + "\\n".
    Either way each write is one block of CHUNK_ROWS rows (a JSON block need
    not start at a row).
    """
    if format == "json":
        import json

        payload = {"columns": columns, "rows": list(rows), "meta": meta}
        # the pieces json.dumps joins; with indent set a row of scalars is the
        # separator ahead of it, one piece per cell and two that close it
        pieces = json.JSONEncoder(indent=2).iterencode(payload)
        _write_blocks(sink, chain(pieces, ["\n"]), CHUNK_ROWS * (len(columns) + 3))
    elif format == "csv":
        lines = (",".join(map(render_value, row)) + "\n" for row in chain([columns], rows))
        _write_blocks(sink, lines, CHUNK_ROWS)
    else:
        raise ValueError(f"unknown format {format!r}")
