"""The finite-number rules of every input reader: CSV records and JSON values."""

from __future__ import annotations

import sys
from math import isfinite
from pathlib import Path
from typing import Callable, Iterator

from .errors import ParseError


def is_finite_number(value) -> bool:
    # Not a bool, and finite as a float: JSON reads NaN and Infinity as floats,
    # and an integer literal beyond the float range as an int.
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def read_records(
    path: str | Path, layout: str, types: tuple[Callable[[str], object], ...], optional: int = 0
) -> Iterator[tuple[str, list]]:
    """Yield `(where, values)` for each record of a comma-separated file.

    Blank lines and lines starting with '#' are skipped.  A record holds one
    field per entry of `types`, converted by it, plus up to `optional`
    trailing fields that are ignored.  A float field must be finite.  `where`
    is `path:line`, which every ParseError raised here names and the caller's
    own checks should too.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        where = f"{path}:{lineno}"
        if not len(types) <= len(parts) <= len(types) + optional:
            raise ParseError(f"{where}: expected '{layout}', got {raw!r}")
        try:
            values = [convert(part) for convert, part in zip(types, parts)]
        except ValueError:
            raise ParseError(f"{where}: non-numeric field in {raw!r}") from None
        if not all(isfinite(value) for value in values if isinstance(value, float)):
            raise ParseError(f"{where}: non-finite field in {raw!r}")
        yield where, values
