"""Canonical JSON: determinism, float formatting, round trips."""

import json

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
