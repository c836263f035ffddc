"""Small shared helpers: stable number formatting, complex parsing, atomic writes."""

from __future__ import annotations

import math
import numbers
import os
import sys
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


def parse_complex(value, name: str) -> complex:
    """`value`, a [re, im] pair or a bare real number, as a complex; each
    part goes through :func:`require_real`, which names `name` if it fails."""
    if not isinstance(value, (list, tuple)):
        return complex(require_real(value, name), 0.0)
    if len(value) != 2:
        raise ValueError(f"{name} must be a [re, im] pair, got {value!r}")
    return complex(require_real(value[0], name), require_real(value[1], name))


def require_finite(value, name: str):
    """`value`, a float or complex read from a file, if it is finite."""
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def require_real(value, name: str) -> float:
    """`value` as a float if it is a finite real number; bools and strings
    are rejected, not converted."""
    # exact types first: a JSON float or int passes at once, a bool does not
    number = type(value) in (float, int) or isinstance(value, numbers.Real) and not isinstance(value, bool)
    # false for NaN, an infinity and an integer past the largest double
    if not (number and abs(value) <= sys.float_info.max):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def require_list(value, name: str) -> list:
    """`value` if it is a list (a JSON array)."""
    if not isinstance(value, list):
        raise ValueError(f"{name} must be a list, got {value!r}")
    return value


def require_integer(value, name: str, least: int) -> int:
    """`value`, a real number, as an int if it is whole and >= `least`; 0.5
    or -1 is rejected, not truncated, and so are bools and strings."""
    number = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if not (number and float(value).is_integer() and value >= least):
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def atomic_write_text(path: str, text: str) -> None:
    """Write via a temp file and rename, so failures never leave partial output.

    The file gets the mode a plain `open` would give it, 0o666 less the
    umask, not mkstemp's 0o600.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp_", suffix=".part")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        umask = os.umask(0)  # read by setting it: there is no other portable way
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
