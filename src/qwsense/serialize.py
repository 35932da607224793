"""Deterministic CSV/JSON writing: shortest round-trip floats, atomic moves.

Every data file is written to a temporary sibling and atomically renamed, so
a partially written run never leaves a corrupt artifact.  Floats are encoded
with Python's repr (shortest string that round-trips the binary value), which
makes byte-identical reruns possible.  A CSV travels as columns, one
sequence per header name, and a CSV or an SVG is streamed in bounded
chunks, never built whole.
"""

import hashlib
import json
import os
import tempfile
from pathlib import Path

import numpy as np

CSV_BLOCK = 1024  # rows that write_csv formats and writes as one chunk


def format_value(value) -> str:
    """One CSV cell; a numpy scalar gets the bytes of its Python equivalent."""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _format_float(float(value))
    if value is None:
        return ""
    return str(value)


def _format_float(value: float) -> str:
    if value.is_integer() and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


def atomic_write_text(path, text) -> Path:
    """Write ``text``, a str or an iterable of str chunks, to ``path`` through a
    temporary sibling that replaces it only once the last chunk is written; an
    error, a chunk iterable's included, removes the sibling and leaves ``path``
    as it was."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.writelines((text,) if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


# formatters for a column of one plain type (not a subclass)
_COLUMN_FORMATTERS = {float: _format_float, int: str, bool: format_value}


def format_column(column) -> list[str]:
    """``format_value`` of each cell, formatting each distinct value once where it can.

    A column of plain Python floats, of plain ints or of bools goes through
    that type's formatter: once per distinct value when the column's first
    value comes back (a grid coordinate, a step, a flag), since equal values
    of one such type format alike (0.0 and -0.0 both give "0"), and cell by
    cell otherwise, where all values are likely distinct and hashing them
    would cost more than it saves.  A column that mixes types, or holds any
    other type, goes through ``format_value`` cell by cell, since equal
    values of different types can format differently (1e16 and 10**16).
    """
    kinds = set(map(type, column))
    formatter = _COLUMN_FORMATTERS.get(kinds.pop()) if len(kinds) == 1 else None
    if formatter is None:
        return list(map(format_value, column))
    if column.count(column[0]) == 1:
        return list(map(formatter, column))
    distinct = dict.fromkeys(column)
    return list(map(dict(zip(distinct, map(formatter, distinct))).__getitem__, column))


def write_csv(path, header, columns) -> Path:
    """Write the sequences ``columns`` under ``header``, one row per index,
    ``CSV_BLOCK`` rows at a time, each cell with the bytes ``format_value``
    gives it.  Columns of different lengths raise ValueError before anything
    is written."""
    length = len(columns[0]) if columns else 0
    ragged = next((i for i, column in enumerate(columns) if len(column) != length), None)
    if ragged is not None:
        raise ValueError(f"column {ragged} has {len(columns[ragged])} cells, column 0 has "
                         f"{length}")
    return atomic_write_text(path, _csv_chunks(header, columns, length))


def _csv_chunks(header, columns, length):
    yield ",".join(header) + "\n"
    for start in range(0, length, CSV_BLOCK):
        cells = [format_column(column[start:start + CSV_BLOCK]) for column in columns]
        yield "\n".join(map(",".join, zip(*cells))) + "\n"


def write_json(path, payload) -> Path:
    return atomic_write_text(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def sha256_path(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()
