"""Canonical JSON: determinism, float formatting, round trips."""

import json
import math

import numpy as np
import pytest

from fuchsia.errors import ValidationError
from fuchsia.jsonio import (
    canonical_json,
    complex_to_pair,
    load_json,
    matrix_to_pairs,
    pair_to_complex,
    pairs_to_matrix,
)


class TestCanonicalJson:
    def test_keys_sorted_and_spacing_fixed(self):
        text = canonical_json({"b": 1, "a": [True, None]})
        assert text == '{"a": [true, null], "b": 1}'

    def test_same_data_same_bytes(self):
        a = {"x": 0.1 + 0.2, "y": [1e-17, 3.0]}
        b = {"y": [1e-17, 3.0], "x": 0.30000000000000004}
        assert canonical_json(a) == canonical_json(b)

    def test_integral_floats_compact(self):
        assert canonical_json(3.0) == "3.0"
        assert canonical_json(-2.0) == "-2.0"
        assert canonical_json(0.0) == "0.0"
        assert canonical_json(-0.0) == "0.0"

    def test_17_digit_round_trip(self):
        values = [0.1, 1.0 / 3.0, 2.5e-13, -7.00000000000001e22, 3.141592653589793]
        for x in values:
            assert json.loads(canonical_json(x)) == x

    def test_numpy_scalars_accepted(self):
        assert canonical_json(np.float64(2.5)) == "2.5"
        assert canonical_json(np.int64(7)) == "7"

    def test_output_parses_as_json(self):
        blob = {"m": [[1.5, -2.0], [0.25, 3.75]], "name": "loop", "n": 2}
        assert json.loads(canonical_json(blob)) == blob

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            canonical_json(float("nan"))
        with pytest.raises(ValidationError):
            canonical_json({"x": float("inf")})

    def test_non_string_keys_rejected(self):
        with pytest.raises(ValidationError):
            canonical_json({1: "a"})

    def test_unknown_type_rejected(self):
        with pytest.raises(ValidationError):
            canonical_json({"x": object()})


def _reference_float(x: float) -> str:
    """The float rule of the reference encoder: 17 significant digits, integral floats below 1e17 compact."""
    if not math.isfinite(x):
        raise ValidationError("non-finite float cannot be serialized")
    if x == int(x) and abs(x) < 1e17:
        if x == 0.0:
            return "0.0"
        return f"{x:.1f}"
    return format(x, ".17g")


def _isinstance_emit(obj, parts):
    """``canonical_json``'s encoder as it was before it dispatched on exact types: the reference."""
    if obj is None or obj is True or obj is False:
        parts.append(json.dumps(obj))
    elif isinstance(obj, str):
        parts.append(json.dumps(obj, ensure_ascii=True))
    elif isinstance(obj, (int, np.integer)):
        parts.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        parts.append(_reference_float(float(obj)))
    elif isinstance(obj, dict):
        parts.append("{")
        for i, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise ValidationError("JSON object keys must be strings")
            if i:
                parts.append(", ")
            parts.append(json.dumps(key, ensure_ascii=True))
            parts.append(": ")
            _isinstance_emit(obj[key], parts)
        parts.append("}")
    elif isinstance(obj, (list, tuple)):
        parts.append("[")
        for i, item in enumerate(obj):
            if i:
                parts.append(", ")
            _isinstance_emit(item, parts)
        parts.append("]")
    else:
        raise ValidationError(f"cannot serialize object of type {type(obj).__name__}")


class _Dict(dict):
    pass


class _List(list):
    pass


class _Str(str):
    pass


class _Float(float):
    pass


class _Int(int):
    pass


_FLOATS = [
    0.0, -0.0, 1.0, -3.0, 0.5, 1e16, -1e16, 1e16 - 2.0, 9007199254740993.0, 1e16 + 2.0, 9999999999999998.0,
    1e308, -1.7976931348623157e308, 5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
    0.1, 1.0 / 3.0, -7.00000000000001e22, 123456789.0, 1e-17,
]
_STRINGS = ["", "loop", "caf\u00e9", "\u03bb_j", "tab\there", "line\nbreak", "quote\"s", "back\\slash", "\x00\x1f\x7f",
            "\U0001f600", "\ud800", "r\u00e9sum\u00e9 \u2014 \u2603"]


def _random_value(rng, depth):
    """A seeded JSON-like value: floats (special ones included), ints, strings, numpy scalars,
    tuples, subclasses and nested containers."""
    kind = rng.integers(0, 16 if depth < 4 else 9)
    if kind == 0:
        return _FLOATS[rng.integers(len(_FLOATS))]
    if kind == 1:
        return float(rng.normal() * 10.0 ** rng.integers(-30, 30))
    if kind == 2:
        return int(rng.integers(-(2**62), 2**62)) * int(rng.integers(1, 2**40))
    if kind == 3:
        return _STRINGS[rng.integers(len(_STRINGS))]
    if kind == 4:
        return [None, True, False][rng.integers(3)]
    if kind == 5:
        return [np.float64(rng.normal()), np.float32(0.1), np.int64(-7), np.int8(3), np.float64(-0.0),
                np.uint64(2**63)][rng.integers(6)]
    if kind == 6:
        return [_Float(2.5), _Int(7), _Str("sub\u00e9"), _Float(-0.0)][rng.integers(4)]
    if kind == 7:
        return [float(x) for x in rng.normal(size=rng.integers(0, 5))]
    if kind == 8:
        return [float(rng.normal()), float(rng.normal())]
    items = [_random_value(rng, depth + 1) for _ in range(rng.integers(0, 5))]
    if kind in (9, 10):
        return items
    if kind == 11:
        return tuple(items)
    if kind == 12:
        return _List(items)
    keys = [_STRINGS[rng.integers(len(_STRINGS))] + str(i) for i in range(len(items))]
    if kind == 13:
        keys = [_Str(k) for k in keys]
    fields = dict(zip(keys, items))
    return _Dict(fields) if kind == 14 else fields


def _outcome(encode, obj):
    try:
        return encode(obj)
    except Exception as exc:  # the reference's error is part of what is compared
        return type(exc), str(exc)


def _reference_json(obj):
    parts = []
    _isinstance_emit(obj, parts)
    return "".join(parts)


def test_every_float_reloads_as_a_float():
    """Every float of ``_FLOATS`` is written so that ``json.loads`` reads back a float of equal value,
    the integral ones from 1e16 up to 1e17, which keep their ``.0``, included."""
    for x in _FLOATS:
        again = json.loads(canonical_json(x))
        assert type(again) is float and again == x
    assert canonical_json(1e16) == "10000000000000000.0"


def test_canonical_json_equals_the_isinstance_reference():
    """The exact-type encoder gives the reference's bytes on 300 seeded nested documents,
    and its errors (type and message) on the documents that cannot be encoded."""
    rng = np.random.default_rng(31)
    documents = [_random_value(rng, 0) for _ in range(300)]
    documents += [{"report": doc, "tail": [doc, (doc,)]} for doc in documents[:20]]
    for doc in documents:
        assert canonical_json(doc) == _reference_json(doc)
    bad = [math.nan, [1.0, math.inf], {"x": [0.5, -math.inf]}, {1: "a"}, {"a": 1, 2: "b"}, {"a": object()},
           [1.0, np.bool_(True)], (1j,), {"s": {1, 2}}, [b"bytes"], _Dict({(1,): 2}), [np.float64(np.nan)],
           [0.5, 2.0, np.complex128(1.0)], 10**5000]
    for doc in bad:
        got, want = _outcome(canonical_json, doc), _outcome(_reference_json, doc)
        assert isinstance(got, tuple) and got == want


class TestPairs:
    def test_complex_round_trip(self):
        z = 1.25 - 3.5e-7j
        assert pair_to_complex(complex_to_pair(z)) == z

    def test_pair_validation(self):
        with pytest.raises(ValidationError):
            pair_to_complex([1.0])
        with pytest.raises(ValidationError):
            pair_to_complex("1+2j")
        with pytest.raises(ValidationError):
            pair_to_complex([1.0, True])
        with pytest.raises(ValidationError):
            pair_to_complex([float("nan"), 0.0])

    def test_matrix_round_trip(self):
        m = np.array([[1.0 + 2.0j, 0.0], [-0.5j, 3.0]])
        again = pairs_to_matrix(matrix_to_pairs(m))
        assert np.array_equal(again, m)

    def test_matrix_pairs_are_the_floats_of_each_entry(self):
        rng = np.random.default_rng(5)
        m = rng.normal(size=(4, 4)) * 10.0 ** rng.integers(-300, 300, size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        m[0, 0], m[1, 1] = complex(-0.0, 0.0), complex(5e-324, -0.0)
        pairs = matrix_to_pairs(m)
        want = [[complex_to_pair(v) for v in row] for row in m]
        assert all(type(x) is float for row in pairs for pair in row for x in pair)
        assert [[[x.hex() for x in pair] for pair in row] for row in pairs] == [
            [[x.hex() for x in pair] for pair in row] for row in want
        ]

    def test_matrix_shape_validation(self):
        with pytest.raises(ValidationError):
            pairs_to_matrix([])
        with pytest.raises(ValidationError):
            pairs_to_matrix([[[1.0, 0.0]], [[1.0, 0.0], [2.0, 0.0]]])
        with pytest.raises(ValidationError):
            pairs_to_matrix([[[1.0, 0.0], [2.0, 0.0]]])


class TestLoadJson:
    def test_loads_object(self, tmp_path):
        p = tmp_path / "ok.json"
        p.write_text('{"a": 1}', encoding="utf-8")
        assert load_json(str(p)) == {"a": 1}

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError, match="cannot read"):
            load_json(str(tmp_path / "absent.json"))

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{", encoding="utf-8")
        with pytest.raises(ValidationError, match="not valid JSON"):
            load_json(str(p))

    def test_non_object_top_level(self, tmp_path):
        p = tmp_path / "list.json"
        p.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(ValidationError, match="object"):
            load_json(str(p))
