"""Small shared helpers: atomic writes, exact decimal rendering and strict
JSON integers."""

from __future__ import annotations

import json
import os
import tempfile


def write_text_atomic(path: str, text: str) -> None:
    """Write text via a temp file in the same directory, then rename."""
    d = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json_atomic(path: str, obj) -> None:
    """Canonical JSON dump (sorted keys, indented) written atomically."""
    write_text_atomic(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def truncate_decimal(num: int, den: int, digits: int) -> str:
    """Decimal string of num/den truncated toward zero after `digits` places."""
    if den <= 0:
        raise ValueError("denominator must be positive")
    sign = "-" if num < 0 else ""
    scaled = abs(num) * 10**digits // den
    whole, frac = divmod(scaled, 10**digits)
    return f"{sign}{whole}.{frac:0{digits}d}"


def json_ints(values, what: str) -> tuple[int, ...]:
    """values as a tuple, refused unless every one is a JSON integer: a
    float, a string or a boolean (which Python reads as an int) is not."""
    values = tuple(values)
    if any(isinstance(v, bool) or not isinstance(v, int) for v in values):
        raise ValueError(f"{what} must be integers, got {list(values)!r}")
    return values
