"""Deterministic CSV/JSON writing: shortest round-trip floats, atomic moves.

Every data file is written to a temporary sibling and atomically renamed, so
a partially written run never leaves a corrupt artifact.  Floats are encoded
with Python's repr (shortest string that round-trips the binary value), which
makes byte-identical reruns possible.
"""

import hashlib
import json
import os
import tempfile
from pathlib import Path


def format_value(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if value.is_integer() and abs(value) < 1e16:
            return str(int(value))
        return repr(value)
    if value is None:
        return ""
    return str(value)


def atomic_write_text(path, text: str) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


def write_csv(path, header, rows) -> Path:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_value(v) for v in row))
    return atomic_write_text(path, "\n".join(lines) + "\n")


def write_json(path, payload) -> Path:
    return atomic_write_text(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def sha256_path(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()
