"""Exact representation conversions and the gauge action.

The dual-route check at the bottom continues the same system once by a power
series with exact Taylor coefficients (``RationalFunction.taylor``) and once
by scipy's DOP853 on the floating-point values of A(z), two methods with no
shared code path.
"""

from fractions import Fraction

import numpy as np
import pytest

import fuchsia.rational as rational_module
from conftest import reference_transfer
from fuchsia.equivalence import (
    ORIENTATION_FLAT_SECTIONS,
    DifferentialModule,
    RationalMatrix,
    ScalarEquation,
    companion_of_scalar,
    gauge_transform,
    matrix_from_module,
    module_from_matrix,
    rational_matrix_from_dict,
    rational_matrix_from_strings,
    rational_matrix_to_dict,
    scalar_solution_transfer,
)
from fuchsia.errors import ValidationError
from fuchsia.rational import (
    CR_ONE,
    P_ONE,
    P_Z,
    RF_ONE,
    RF_ZERO,
    ComplexRational,
    Polynomial,
    RationalFunction,
    parse_rational_function as rf,
)


def mat(rows):
    return rational_matrix_from_strings(rows)


class TestRationalMatrix:
    def test_identity_and_zero(self):
        eye = RationalMatrix.identity(2)
        zero = RationalMatrix([[RF_ZERO, RF_ZERO], [RF_ZERO, RF_ZERO]])
        assert eye @ eye == eye
        assert eye + zero == eye
        assert eye - eye == zero

    def test_shape_validation(self):
        with pytest.raises(ValidationError):
            RationalMatrix([[RF_ONE, RF_ZERO]])
        with pytest.raises(ValidationError):
            RationalMatrix([["z"]])

    def test_inverse_is_exact(self):
        b = mat([["1", "z^2+1"], ["0", "1"]])
        inv = b.inverse()
        assert inv == mat([["1", "-z^2-1"], ["0", "1"]])
        assert b @ inv == RationalMatrix.identity(2)
        assert inv @ b == RationalMatrix.identity(2)

    def test_inverse_with_rational_entries(self):
        b = mat([["z", "1"], ["1", "z"]])
        assert b @ b.inverse() == RationalMatrix.identity(2)

    def test_singular_matrix_rejected(self):
        s = mat([["z", "z"], ["1", "1"]])
        with pytest.raises(ValidationError):
            s.inverse()

    def test_product_matches_entrywise_reference(self, rng):
        denominators = [P_ONE, P_Z, P_Z - P_ONE, P_Z * P_Z + P_ONE]

        def random_entry():
            if rng.random() < 0.25:
                return RF_ZERO
            coeffs = [
                ComplexRational(
                    Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, 4))),
                    Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, 4))),
                )
                for _ in range(int(rng.integers(1, 4)))
            ]
            den = denominators[int(rng.integers(len(denominators)))]
            return RationalFunction(Polynomial(coeffs), den)

        for n in (2, 3):
            for _ in range(10):
                a = RationalMatrix([[random_entry() for _ in range(n)] for _ in range(n)])
                b = RationalMatrix([[random_entry() for _ in range(n)] for _ in range(n)])
                product = a @ b
                for i in range(n):
                    for j in range(n):
                        expected = RF_ZERO
                        for k in range(n):
                            expected = expected + a.entries[i][k] * b.entries[k][j]
                        assert product.entries[i][j] == expected
                        assert str(product.entries[i][j]) == str(expected)

    def test_one_gcd_per_product_entry(self, monkeypatch):
        calls = []
        original = rational_module.polynomial_gcd

        def counting(a, b):
            calls.append((a, b))
            return original(a, b)

        a = mat([["1/z", "1/(z-1)"], ["z", "2i/3"]])
        b = mat([["z-1", "1/z"], ["1/(z-1)", "1"]])
        monkeypatch.setattr(rational_module, "polynomial_gcd", counting)
        product = a @ b
        assert len(calls) <= a.dimension**2
        assert product == mat(
            [
                ["(z-1)/z + 1/(z-1)^2", "1/z^2 + 1/(z-1)"],
                ["z*(z-1) + (2i/3)/(z-1)", "1 + 2i/3"],
            ]
        )

    def test_one_gcd_per_inverse_and_gauge_entry(self, monkeypatch):
        """The elimination reduces only the entries of the inverse, and the
        gauge action each entry of A B - B' and of B^-1 (A B - B') once."""
        calls = []
        original = rational_module.polynomial_gcd

        def counting(a, b):
            calls.append((a, b))
            return original(a, b)

        a = mat([["1/z", "1/(z-1)"], ["z", "2i/3"]])
        b = mat([["z", "1/(z-1)"], ["1", "z + 1/z"]])
        n = b.dimension
        monkeypatch.setattr(rational_module, "polynomial_gcd", counting)
        inv = b.inverse()
        assert len(calls) == n**2
        del calls[:]
        transformed = gauge_transform(a, b)
        assert len(calls) <= 3 * n**2
        monkeypatch.undo()
        assert b @ inv == RationalMatrix.identity(n)
        assert inv @ b == RationalMatrix.identity(n)
        assert transformed == inv @ (a @ b - b.derivative())

    def test_dict_round_trip(self):
        a = mat([["z", "1/(z-1)"], ["-2i/3", "0"]])
        again = rational_matrix_from_dict(rational_matrix_to_dict(a))
        assert again == a

    def test_dict_dimension_mismatch(self):
        d = rational_matrix_to_dict(RationalMatrix.identity(2))
        d["dimension"] = 3
        with pytest.raises(ValidationError):
            rational_matrix_from_dict(d)

    @pytest.mark.parametrize("entries", [["z"], [5], "z"])
    def test_dict_rows_must_be_lists(self, entries):
        with pytest.raises(ValidationError):
            rational_matrix_from_dict({"dimension": 1, "entries": entries})


class TestScalarEquation:
    def test_companion_shape(self):
        eq = ScalarEquation((rf("1/z"), rf("z"), rf("2")))
        comp = companion_of_scalar(eq)
        assert comp.dimension == 3
        assert comp.entries[0][1] == RF_ONE
        assert comp.entries[1][2] == RF_ONE
        assert comp.entries[0][0] == RF_ZERO
        assert comp.entries[0][2] == RF_ZERO
        assert comp.entries[2][0] == rf("-1/z")
        assert comp.entries[2][1] == rf("-z")
        assert comp.entries[2][2] == rf("-2")

    def test_first_order_companion(self):
        eq = ScalarEquation((rf("3/z"),))
        assert companion_of_scalar(eq) == mat([["-3/z"]])

    def test_order_validation(self):
        with pytest.raises(ValidationError):
            ScalarEquation(())
        with pytest.raises(ValidationError):
            ScalarEquation(("z",))

    def test_dict_round_trip(self):
        eq = ScalarEquation((rf("1/(z-1)"), rf("-z/2")))
        again = ScalarEquation.from_dict(eq.to_dict())
        assert again == eq

    def test_dict_order_mismatch(self):
        d = ScalarEquation((rf("1"),)).to_dict()
        d["order"] = 2
        with pytest.raises(ValidationError):
            ScalarEquation.from_dict(d)

    def test_solution_transfer_is_bookkeeping(self):
        eq = ScalarEquation((rf("1"), rf("0")))
        vec = scalar_solution_transfer(eq, [1.0, 2.0j])
        assert np.array_equal(vec, np.array([1.0, 2.0j]))
        with pytest.raises(ValidationError):
            scalar_solution_transfer(eq, [1.0])


class TestModule:
    def test_action_is_negated_matrix(self):
        a = mat([["1/z", "1"], ["0", "-1/z"]])
        module = module_from_matrix(a)
        assert module.action == -a
        assert module.orientation == ORIENTATION_FLAT_SECTIONS

    def test_round_trip_exact(self):
        a = mat([["1/z", "z^2"], ["-i", "1/(z-2)"]])
        assert matrix_from_module(module_from_matrix(a)) == a

    def test_dict_round_trip(self):
        module = module_from_matrix(mat([["1/z"]]))
        again = DifferentialModule.from_dict(module.to_dict())
        assert again == module

    def test_unknown_orientation_rejected(self):
        d = module_from_matrix(mat([["z"]])).to_dict()
        d["orientation"] = "rows"
        with pytest.raises(ValidationError):
            DifferentialModule.from_dict(d)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            DifferentialModule(dimension=3, action=RationalMatrix.identity(2))


class TestGaugeAction:
    def test_identity_gauge_is_identity(self):
        a = mat([["1/z", "1"], ["z", "0"]])
        assert gauge_transform(a, RationalMatrix.identity(2)) == a

    def test_right_action_composition(self):
        a = mat([["1/z", "1"], ["z", "-1/z"]])
        b = mat([["1", "z^2+1"], ["0", "1"]])
        c = mat([["1", "0"], ["2*z", "1"]])
        once = gauge_transform(gauge_transform(a, b), c)
        combined = gauge_transform(a, b @ c)
        assert once == combined

    def test_gauge_by_inverse_returns_exactly(self):
        a = mat([["0", "1"], ["1/(4*z^2)", "0"]])
        b = mat([["1", "z"], ["0", "1"]])
        there = gauge_transform(a, b)
        back = gauge_transform(there, b.inverse())
        assert back == a

    def test_noninvertible_gauge_rejected(self):
        a = RationalMatrix.identity(2)
        with pytest.raises(ValidationError, match="basis change must be invertible over the field"):
            gauge_transform(a, mat([["z", "z"], ["1", "1"]]))

    def test_module_basis_change_matches_gauge(self):
        a = mat([["1/z", "0"], ["1", "2/z"]])
        b = mat([["1", "z"], ["0", "1"]])
        via_module = matrix_from_module(module_from_matrix(a), basis_change=b)
        assert via_module == gauge_transform(a, b)

    def test_gauge_preserves_solutions_numerically(self):
        """If Y solves the A system, B^{-1} Y solves the gauged system."""
        a = mat([["0", "1"], ["1/(4*z^2)", "0"]])
        b = mat([["1", "z"], ["0", "1"]])
        gauged = gauge_transform(a, b)
        h, order = 0.5 + 0.25j, 80
        t_a = series_transfer(taylor_matrix_coefficients(a, CR_ONE, order), h, order)
        t_g = series_transfer(taylor_matrix_coefficients(gauged, CR_ONE, order), h, order)
        b_start = b.eval_complex(1.0)
        b_end = b.eval_complex(1.0 + h)
        lhs = t_g
        rhs = np.linalg.solve(b_end, t_a @ b_start)
        assert np.linalg.norm(lhs - rhs) < 1e-9


def taylor_matrix_coefficients(a: RationalMatrix, center, order):
    """Exact Taylor coefficients of every entry, as complex matrices."""
    n = a.dimension
    mats = [np.zeros((n, n), dtype=complex) for _ in range(order + 1)]
    for i in range(n):
        for j in range(n):
            coeffs = a.entries[i][j].taylor(center, order)
            for k, c in enumerate(coeffs):
                mats[k][i, j] = c.to_complex()
    return mats


def series_transfer(coeff_mats, h: complex, order: int) -> np.ndarray:
    """Fundamental solution by the power-series recurrence, evaluated at h."""
    n = coeff_mats[0].shape[0]
    terms = [np.eye(n, dtype=complex)]
    for m in range(order):
        acc = np.zeros((n, n), dtype=complex)
        for k in range(min(m, len(coeff_mats) - 1) + 1):
            acc += coeff_mats[k] @ terms[m - k]
        terms.append(acc / (m + 1))
    total = np.zeros((n, n), dtype=complex)
    for m, term in enumerate(terms):
        total += term * h**m
    return total


class TestDualRoute:
    def test_series_agrees_with_integrator(self):
        a = mat([["0", "1"], ["1/(4*z^2)", "0"]])
        order = 40
        coeff_mats = taylor_matrix_coefficients(a, CR_ONE, order)
        h = 0.25
        by_series = series_transfer(coeff_mats, h, order)
        by_integration = reference_transfer(a.eval_complex, [1.0, 1.0 + h])
        assert np.linalg.norm(by_series - by_integration) < 1e-10

    def test_closed_form_anchor(self):
        """y' = y/z has solution y = z, so the 1x1 transfer is 3/2 from 1 to
        3/2 (the series) and 2 from 1 to 2 (the integrator)."""
        a = mat([["1/z"]])
        order = 40
        by_series = series_transfer(taylor_matrix_coefficients(a, CR_ONE, order), 0.5, order)
        assert abs(by_series[0, 0] - 1.5) < 1e-9
        by_integration = reference_transfer(a.eval_complex, [1.0, 2.0])
        assert abs(by_integration[0, 0] - 2.0) < 1e-9
