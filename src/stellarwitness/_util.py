"""Small shared helpers: stable number formatting, complex parsing, atomic writes."""

from __future__ import annotations

import math
import numbers
import os
import tempfile


def fmt17(x: float) -> str:
    """Format a float with 17 significant digits (round-trips doubles exactly)."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(float(x), ".17g")


def dumps_stable(obj, indent: int = 0) -> str:
    """Serialize to JSON with fixed float formatting and dict insertion order.

    `json.dumps` leaves float formatting to `repr`; output files must be
    byte-stable under a fixed config, so numbers are pinned to 17 significant
    digits here instead.
    """
    pad = " " * indent
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return fmt17(obj)
    if isinstance(obj, complex):
        return f"[{fmt17(obj.real)}, {fmt17(obj.imag)}]"
    if isinstance(obj, str):
        out = obj.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        return f'"{out}"'
    if isinstance(obj, dict):
        items = [f'{pad}  "{k}": {dumps_stable(v, indent + 2).lstrip()}' for k, v in obj.items()]
        if not items:
            return "{}"
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        parts = [dumps_stable(v, indent + 2) for v in obj]
        if all("\n" not in p for p in parts) and sum(len(p) for p in parts) < 80:
            return "[" + ", ".join(parts) + "]"
        return "[\n" + ",\n".join(pad + "  " + p for p in parts) + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def complex_pair(z: complex) -> list:
    return [float(z.real), float(z.imag)]


def parse_complex(value) -> complex:
    """Accept [re, im] pairs or bare numbers from JSON input."""
    if isinstance(value, (list, tuple)):
        if len(value) != 2:
            raise ValueError(f"complex value must be a [re, im] pair, got {value!r}")
        return complex(float(value[0]), float(value[1]))
    return complex(float(value), 0.0)


def require_finite(value, name: str):
    """`value`, a float or complex read from a file, if it is finite."""
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def require_integer(value, name: str, least: int) -> int:
    """`value`, a real number, as an int if it is whole and >= `least`; 0.5
    or -1 is rejected, not truncated, and so are bools and strings."""
    number = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if not (number and float(value).is_integer() and value >= least):
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def atomic_write_text(path: str, text: str) -> None:
    """Write via a temp file and rename, so failures never leave partial output."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp_", suffix=".part")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
