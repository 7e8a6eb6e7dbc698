"""Canonical JSON encoding for reports and on-disk formats.

Every float is rendered with 17 significant digits so a value round-trips
bit-exactly, keys are sorted, and there is no whitespace variation; the same
data therefore always serializes to the same bytes.  Complex scalars travel
as ``[re, im]`` pairs and matrices as row-major nested lists of pairs.
"""

import json
import math
from json.encoder import encode_basestring_ascii

import numpy as np

from .errors import ValidationError

SYSTEM_SCHEMA = "fuchsia-system/1"
REPORT_SCHEMA = "fuchsia-report/1"
INVERSE_SCHEMA = "fuchsia-inverse/1"


def _format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValidationError("non-finite float cannot be serialized")
    if x.is_integer() and abs(x) < 1e16:
        # Keep integral floats compact and sign-normalized (0.0 == -0.0).
        if x == 0.0:
            return "0.0"
        return f"{x:.1f}"
    return format(x, ".17g")


def canonical_json(obj) -> str:
    """Serialize ``obj`` (dict/list/str/float/int/bool/None) canonically.

    One pass over ``obj``: ``_emit`` takes floats, lists, tuples, dicts,
    booleans and None by their exact type, and the rest (strings, integers,
    subclasses, numpy scalars and the values that raise) by ``isinstance``.
    Strings and keys go through ``json``'s own ASCII escaper (what
    ``json.dumps(..., ensure_ascii=True)`` calls), and a list of plain
    floats, such as a complex pair, is one join.
    """
    parts: list[str] = []
    _emit(obj, parts)
    return "".join(parts)


def _emit(obj, parts: list[str]) -> None:
    kind = type(obj)
    if kind is float:
        parts.append(_format_float(obj))
    elif kind is list or kind is tuple:
        _emit_items(obj, parts)
    elif kind is dict:
        _emit_fields(obj, parts)
    elif obj is None or kind is bool:
        parts.append("null" if obj is None else "true" if obj else "false")
    # Strings, integers, subclasses and numpy scalars.
    elif isinstance(obj, str):
        parts.append(encode_basestring_ascii(obj))
    elif isinstance(obj, (int, np.integer)):
        parts.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        parts.append(_format_float(float(obj)))
    elif isinstance(obj, dict):
        _emit_fields(obj, parts)
    elif isinstance(obj, (list, tuple)):
        _emit_items(obj, parts)
    else:
        raise ValidationError(f"cannot serialize object of type {type(obj).__name__}")


def _emit_items(obj, parts: list[str]) -> None:
    if all(type(item) is float for item in obj):
        parts.append("[" + ", ".join(map(_format_float, obj)) + "]")
        return
    parts.append("[")
    for i, item in enumerate(obj):
        if i:
            parts.append(", ")
        _emit(item, parts)
    parts.append("]")


def _emit_fields(obj, parts: list[str]) -> None:
    parts.append("{")
    for i, key in enumerate(sorted(obj)):
        if not isinstance(key, str):
            raise ValidationError("JSON object keys must be strings")
        if i:
            parts.append(", ")
        parts.append(encode_basestring_ascii(key))
        parts.append(": ")
        _emit(obj[key], parts)
    parts.append("}")


def complex_to_pair(z: complex) -> list:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def pair_to_complex(pair) -> complex:
    if (
        not isinstance(pair, (list, tuple))
        or len(pair) != 2
        or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in pair)
    ):
        raise ValidationError(f"expected [re, im] pair, got {pair!r}")
    try:
        z = complex(float(pair[0]), float(pair[1]))
    except OverflowError:
        raise ValidationError("complex entries must be finite") from None
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValidationError("complex entries must be finite")
    return z


def matrix_to_pairs(m: np.ndarray) -> list:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2:
        raise ValidationError("expected a 2-d matrix")
    return np.stack([m.real, m.imag], -1).tolist()


def pairs_to_matrix(rows) -> np.ndarray:
    if not isinstance(rows, list) or not rows:
        raise ValidationError("matrix must be a non-empty list of rows")
    width = None
    data = []
    for row in rows:
        if not isinstance(row, list) or not row:
            raise ValidationError("matrix rows must be non-empty lists")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ValidationError("matrix rows have inconsistent lengths")
        data.append([pair_to_complex(v) for v in row])
    m = np.array(data, dtype=complex)
    if m.shape[0] != m.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {m.shape}")
    return m


def required_field(data: dict, key: str, kind: type, document: str):
    """``data[key]``, which must be present and of JSON type ``kind``.

    ``kind`` is ``int``, ``str`` or ``list``; a JSON boolean is never
    accepted.  Errors name the ``document`` kind and the field.
    """
    if key not in data:
        raise ValidationError(f"{document} JSON is missing '{key}'")
    value = data[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValidationError(
            f"{document} JSON field '{key}' must be {kind.__name__}, "
            f"got {type(value).__name__}"
        )
    return value


def load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValidationError(f"{path}: top-level JSON value must be an object")
    return data
