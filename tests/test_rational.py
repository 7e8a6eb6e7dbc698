"""Exact rational-function arithmetic, canonical printing, and the parser."""

from fractions import Fraction
from math import factorial, gcd

import numpy as np
import pytest

import fuchsia.rational as rational_module
from conftest import SEED
from fuchsia.errors import ParseError, ValidationError
from fuchsia.rational import (
    CR_I,
    CR_ONE,
    CR_ZERO,
    P_ONE,
    P_Z,
    P_ZERO,
    RF_ONE,
    RF_Z,
    RF_ZERO,
    ComplexRational,
    Polynomial,
    RationalFunction,
    parse_rational_function,
    polynomial_gcd,
)


def cr(re_n, re_d=1, im_n=0, im_d=1):
    return ComplexRational(Fraction(re_n, re_d), Fraction(im_n, im_d))


def random_cr(rng):
    return ComplexRational(
        Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 6))),
        Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 6))),
    )


def random_poly(rng, max_degree=3):
    deg = int(rng.integers(0, max_degree + 1))
    return Polynomial([random_cr(rng) for _ in range(deg + 1)])


def random_rf(rng):
    num = random_poly(rng)
    while True:
        den = random_poly(rng)
        if den:
            return RationalFunction(num, den)


class ListPolynomial:
    """Per-coefficient list-of-``ComplexRational`` arithmetic, the reference
    for the integer-vector ``Polynomial``; lists are ascending and trimmed."""

    @staticmethod
    def trim(cs):
        cs = list(cs)
        while cs and not cs[-1]:
            cs.pop()
        return cs

    @classmethod
    def add(cls, p, q):
        n = max(len(p), len(q))
        return cls.trim((p[k] if k < len(p) else CR_ZERO) + (q[k] if k < len(q) else CR_ZERO) for k in range(n))

    @classmethod
    def scale(cls, p, c):
        return cls.trim(a * c for a in p)

    @classmethod
    def mul(cls, p, q):
        if not p or not q:
            return []
        out = [CR_ZERO] * (len(p) + len(q) - 1)
        for i, a in enumerate(p):
            for j, b in enumerate(q):
                out[i + j] = out[i + j] + a * b
        return cls.trim(out)

    @classmethod
    def divmod(cls, p, q):
        rem, quot = list(p), [CR_ZERO] * max(len(p) - len(q) + 1, 0)
        for k in range(len(quot) - 1, -1, -1):
            t = rem[k + len(q) - 1] / q[-1]
            quot[k] = t
            for j, b in enumerate(q):
                rem[k + j] = rem[k + j] - t * b
        return cls.trim(quot), cls.trim(rem[: len(q) - 1])

    @classmethod
    def translate(cls, p, c):
        out = []
        for a in reversed(p):
            out = cls.add(cls.mul(out, [c, CR_ONE]), [a])
        return out

    @classmethod
    def gcd(cls, p, q):
        while q:
            p, q = q, cls.divmod(p, q)[1]
        return cls.scale(p, CR_ONE / p[-1]) if p else []


class TestComplexRational:
    def test_construction_and_rejection(self):
        c = ComplexRational(1, Fraction(2, 3))
        assert c.re == 1 and c.im == Fraction(2, 3)
        with pytest.raises(ValidationError):
            ComplexRational(0.5)

    def test_field_axioms(self, rng):
        for _ in range(50):
            a, b, c = (random_cr(rng) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c
            assert a + CR_ZERO == a
            assert a * CR_ONE == a
            if a:
                assert a / a == CR_ONE
                assert (b / a) * a == b

    def test_conjugate_norm_is_real(self, rng):
        for _ in range(20):
            a = random_cr(rng)
            n = a * a.conjugate()
            assert n.im == 0
            assert n.re >= 0

    def test_i_squares_to_minus_one(self):
        assert CR_I * CR_I == ComplexRational(-1)

    def test_power(self):
        a = cr(1, 2, 1, 3)
        assert a**0 == CR_ONE
        assert a**3 == a * a * a
        with pytest.raises(ValidationError):
            a ** (-1)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            CR_ONE / CR_ZERO

    def test_text_forms(self):
        assert str(CR_ZERO) == "0"
        assert str(CR_I) == "i"
        assert str(-CR_I) == "-i"
        assert str(cr(0, 1, 2, 5)) == "2i/5"
        assert str(cr(-3, 4)) == "-3/4"
        assert str(cr(1, 2, 2, 3)) == "(1/2+2i/3)"
        assert str(cr(-1, 2, -2, 3)) == "(-1/2-2i/3)"

    def test_hash_consistent_with_eq(self):
        assert hash(ComplexRational(Fraction(2, 4))) == hash(ComplexRational(Fraction(1, 2)))

    def test_matches_fraction_pair_reference(self, rng):
        """2,000 random operations against (re, im) Fraction-pair arithmetic."""

        def draw():
            return (
                Fraction(int(rng.integers(-60, 61)), int(rng.integers(1, 40))),
                Fraction(int(rng.integers(-60, 61)), int(rng.integers(1, 40))),
            )

        def ref_mul(x, y):
            return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])

        def ref_pow(x, n):
            out = (Fraction(1), Fraction(0))
            for _ in range(n):
                out = ref_mul(out, x)
            return out

        previous = draw()
        for step in range(2000):
            x = previous if step % 3 == 0 else draw()
            y = draw()
            a, b = ComplexRational(*x), ComplexRational(*y)
            op = int(rng.integers(0, 8))
            if op == 0:
                got, ref = a + b, (x[0] + y[0], x[1] + y[1])
            elif op == 1:
                got, ref = a - b, (x[0] - y[0], x[1] - y[1])
            elif op == 2:
                got, ref = a * b, ref_mul(x, y)
            elif op == 3:
                norm = y[0] * y[0] + y[1] * y[1]
                if not norm:
                    with pytest.raises(ZeroDivisionError):
                        a / b
                    continue
                got = a / b
                ref = ((x[0] * y[0] + x[1] * y[1]) / norm, (x[1] * y[0] - x[0] * y[1]) / norm)
            elif op == 4:
                n = int(rng.integers(0, 5))
                got, ref = a**n, ref_pow(x, n)
            elif op == 5:
                got, ref = -a, (-x[0], -x[1])
            elif op == 6:
                got, ref = a.conjugate(), (x[0], -x[1])
            else:
                got, ref = a + int(y[0].numerator), (x[0] + y[0].numerator, x[1])
            assert (got.re, got.im) == ref
            assert isinstance(got.re, Fraction) and isinstance(got.im, Fraction)
            assert got._d > 0 and gcd(got._a, got._b, got._d) == 1
            same = ComplexRational(*ref)
            assert got == same and hash(got) == hash(same)
            for name in ("re", "_a", "_d"):
                with pytest.raises(AttributeError):
                    setattr(got, name, 1)
            if abs(got._d) < 10**12:
                previous = ref


def reference_imag_str(q: Fraction) -> str:
    if q.denominator == 1:
        return "i" if q.numerator == 1 else f"{q.numerator}i"
    return f"{q.numerator}i/{q.denominator}"


def reference_complex_str(c: ComplexRational) -> str:
    re, im = c.re, c.im
    if not im:
        return str(re)
    if not re:
        return reference_imag_str(im) if im > 0 else "-" + reference_imag_str(-im)
    sign = "+" if im > 0 else "-"
    return f"({re}{sign}{reference_imag_str(abs(im))})"


def reference_term_str(c: ComplexRational, k: int) -> tuple[str, str]:
    re, im = c.re, c.im
    if not im:
        sign = "-" if re < 0 else "+"
        mag = abs(re)
        if k == 0:
            return sign, str(mag)
        coeff = "" if mag == 1 else f"{mag}*"
    elif not re:
        sign = "-" if im < 0 else "+"
        mag = reference_imag_str(abs(im))
        if k == 0:
            return sign, mag
        coeff = f"{mag}*"
    else:
        body = reference_complex_str(c)
        if k == 0:
            return "+", body
        return "+", f"{body}*" + ("z" if k == 1 else f"z^{k}")
    var = "z" if k == 1 else f"z^{k}"
    return sign, f"{coeff}{var}"


def reference_format_polynomial(p: Polynomial) -> str:
    """The Fraction-based printer that the integer printer replaced, kept as
    its reference: one ``Fraction`` per part of every coefficient."""
    if not p:
        return "0"
    coeffs = p.coeffs
    parts = []
    for k in range(p.degree, -1, -1):
        c = coeffs[k]
        if not c:
            continue
        sign, body = reference_term_str(c, k)
        if not parts:
            parts.append(body if sign == "+" else f"-{body}")
        else:
            parts.append(f" {sign} {body}")
    return "".join(parts)


def assert_canonical(p: Polynomial):
    assert p._den > 0 and len(p._re) == len(p._im)
    assert gcd(*p._re, *p._im, p._den) == 1
    assert not p._re or p._re[-1] or p._im[-1]
    assert p or (p._re, p._im, p._den) == ((), (), 1)


class TestPolynomial:
    def test_trailing_zeros_trimmed(self):
        p = Polynomial([1, 2, 0, 0])
        assert p.degree == 1
        assert Polynomial([0, 0]) == P_ZERO

    def test_ring_axioms(self, rng):
        for _ in range(30):
            p, q, r = (random_poly(rng) for _ in range(3))
            assert (p + q) * r == p * r + q * r
            assert p * q == q * p
            assert p + P_ZERO == p
            assert p * P_ONE == p

    def test_divmod_invariant(self, rng):
        for _ in range(30):
            p = random_poly(rng, max_degree=5)
            q = random_poly(rng, max_degree=3)
            if not q:
                continue
            quot, rem = divmod(p, q)
            assert quot * q + rem == p
            assert rem.degree < q.degree or not rem
            assert p // q == quot and p % q == rem
            for part in (quot, rem, p // q, p % q):
                assert_canonical(part)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            divmod(P_Z, P_ZERO)

    def test_gcd_divides_and_is_monic(self, rng):
        for _ in range(20):
            g = random_poly(rng, max_degree=2)
            if not g:
                continue
            a = g * random_poly(rng, max_degree=2)
            b = g * random_poly(rng, max_degree=2)
            if not a or not b:
                continue
            d = polynomial_gcd(a, b)
            assert d.coeffs[-1] == CR_ONE
            assert not a % d
            assert not b % d
            assert d.degree >= g.degree

    def test_derivative_leibniz(self, rng):
        for _ in range(20):
            p, q = random_poly(rng), random_poly(rng)
            lhs = (p * q).derivative()
            rhs = p.derivative() * q + p * q.derivative()
            assert lhs == rhs

    def test_translate_matches_evaluation(self, rng):
        for _ in range(20):
            p = random_poly(rng)
            c = random_cr(rng)
            x = random_cr(rng)
            assert p.translate(c).evaluate(x) == p.evaluate(x + c)

    def test_matches_coefficient_list_reference(self, rng):
        """2,000 seeded operations against per-coefficient reference lists,
        with ints up to 10**300 and negative Fractions among the coefficients;
        every result is canonical and immutable."""
        ref = ListPolynomial

        def draw_part():
            kind = int(rng.integers(0, 6))
            if kind == 0:
                return 0
            if kind == 1:
                return int(rng.integers(-(10**6), 10**6)) * 10 ** int(rng.integers(0, 295))
            return Fraction(int(rng.integers(-30, 31)), int(rng.integers(1, 25)))

        def draw():
            if rng.random() < 0.05:
                return []
            cs = [ComplexRational(draw_part(), draw_part()) for _ in range(int(rng.integers(1, 5)))]
            cs[-1] = cs[-1] or CR_ONE
            return cs

        def check(got, expected):
            assert got.coeffs == tuple(expected)
            assert got == Polynomial(expected)
            assert got._den > 0 and len(got._re) == len(got._im)
            assert gcd(*got._re, *got._im, got._den) == 1
            assert not got._re or got._re[-1] or got._im[-1]
            assert got or (got._re, got._im, got._den) == ((), (), 1)
            for name in ("_re", "_im", "_den", "coeffs"):
                with pytest.raises(AttributeError):
                    setattr(got, name, 1)

        previous = draw()
        for step in range(2000):
            x = previous if step % 3 == 0 else draw()
            y = draw()
            p, q = Polynomial(x), Polynomial(y)
            check(p, x)
            op = int(rng.integers(0, 9))
            if op == 0:
                got, expected = p + q, ref.add(x, y)
            elif op == 1:
                got, expected = p - q, ref.add(x, ref.scale(y, ComplexRational(-1)))
            elif op == 2:
                got, expected = p * q, ref.mul(x, y)
            elif op == 3:
                c = ComplexRational(draw_part(), draw_part())
                got, expected = p * c, ref.scale(x, c)
            elif op == 4:
                if not y:
                    with pytest.raises(ZeroDivisionError):
                        divmod(p, q)
                    continue
                quot, got = divmod(p, q)
                ref_quot, expected = ref.divmod(x, y)
                check(quot, ref_quot)
            elif op == 5:
                got, expected = p.derivative(), ref.trim(a * ComplexRational(k) for k, a in enumerate(x))[1:]
            elif op == 6:
                if not x:
                    continue
                got, expected = p.monic(), ref.scale(x, CR_ONE / x[-1])
            elif op == 7:
                c = ComplexRational(Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 9))), int(rng.integers(-3, 4)))
                got, expected = p.translate(c), ref.translate(x, c)
            else:
                got, expected = polynomial_gcd(p, q), ref.gcd(x, y)
            check(got, expected)
            if got._den < 10**40 and got.degree < 5:
                previous = expected

    def test_printer_matches_fraction_reference(self, rng):
        """2,000 seeded polynomials print as the Fraction-based printer did
        and reparse to themselves: real and imaginary parts of ±1, other
        values over denominators, mixed coefficients, zero gaps, and ints up
        to 10**300; every coefficient also prints as its reference."""

        def draw_part():
            kind = int(rng.integers(0, 6))
            sign = int(rng.choice([-1, 1]))
            if kind == 0:
                return 0
            if kind == 1:
                return sign
            if kind == 2:
                return Fraction(sign, int(rng.integers(2, 9)))
            if kind == 3:
                return Fraction(int(rng.integers(-30, 31)), int(rng.integers(1, 25)))
            big = int(rng.integers(1, 10**6)) * 10 ** int(rng.integers(0, 295))
            return Fraction(sign * big, int(rng.integers(1, 10**6)) ** int(rng.integers(1, 4)))

        def kind(c):
            if not c.im:
                return "real ±1" if abs(c.re) == 1 else "real"
            if not c.re:
                return "imaginary ±i" if abs(c.im) == 1 else "imaginary"
            return "mixed"

        terms, over_denominator, gaps, big = set(), set(), 0, 0
        for _ in range(2000):
            cs = [
                CR_ZERO if rng.random() < 0.25 else ComplexRational(draw_part(), draw_part())
                for _ in range(int(rng.integers(0, 7)))
            ]
            p = Polynomial(cs)
            assert str(p) == reference_format_polynomial(p)
            assert parse_rational_function(str(p)) == RationalFunction(p)
            for k, c in enumerate(p.coeffs):
                assert str(c) == reference_complex_str(c)
                if not c:
                    gaps += 1
                    continue
                terms.add((min(k, 2), kind(c)))
                if c.re.denominator > 1 or c.im.denominator > 1:
                    over_denominator.add(kind(c))
                big += max(abs(c.re), abs(c.im)) > 10**200
        kinds = {"real ±1", "real", "imaginary ±i", "imaginary", "mixed"}
        assert terms == {(k, name) for k in range(3) for name in kinds}
        assert over_denominator == {"real", "imaginary", "mixed"}
        assert gaps and big

    def test_monic_normalizes_leading_coefficient(self):
        p = Polynomial([1, 0, ComplexRational(0, 2)])
        assert p.monic().coeffs[-1] == CR_ONE
        with pytest.raises(ValidationError):
            P_ZERO.monic()


class TestRationalFunction:
    def test_reduction_to_lowest_terms(self):
        num = P_Z * P_Z - P_ONE
        den = P_Z - P_ONE
        f = RationalFunction(num, den)
        assert f.is_polynomial
        assert f == RationalFunction(P_Z + P_ONE)

    def test_monic_denominator_canonical_form(self):
        two = Polynomial.constant(ComplexRational(2))
        f = RationalFunction(P_ONE, two * P_Z - two)
        assert f.den == P_Z - P_ONE
        assert f.num == Polynomial.constant(cr(1, 2))

    def test_zero_is_canonical(self):
        f = RationalFunction(P_ZERO, P_Z * P_Z)
        assert f == RF_ZERO
        assert f.den == P_ONE

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            RationalFunction(P_ONE, P_ZERO)

    def test_field_axioms(self, rng):
        for _ in range(25):
            f, g, h = (random_rf(rng) for _ in range(3))
            assert (f + g) + h == f + (g + h)
            assert f * (g + h) == f * g + f * h
            if f:
                assert f / f == RF_ONE
                assert (g / f) * f == g

    def test_quotient_rule(self, rng):
        for _ in range(15):
            f, g = random_rf(rng), random_rf(rng)
            assert (f * g).derivative() == f.derivative() * g + f * g.derivative()
            if g:
                lhs = (f / g).derivative()
                rhs = (f.derivative() * g - f * g.derivative()) / (g * g)
                assert lhs == rhs

    def test_geometric_series_taylor(self):
        f = RF_ONE / (RF_ONE - RF_Z)
        coeffs = f.taylor(CR_ZERO, 6)
        assert coeffs == [CR_ONE] * 7

    def test_taylor_matches_derivatives(self, rng):
        for _ in range(10):
            f = random_rf(rng)
            center = cr(7, 1)
            try:
                f.evaluate(center)
            except ZeroDivisionError:
                continue
            coeffs = f.taylor(center, 4)
            g = f
            for k in range(5):
                assert coeffs[k] == g.evaluate(center) / ComplexRational(factorial(k))
                g = g.derivative()

    def test_taylor_about_pole_rejected(self):
        f = RF_ONE / (RF_Z - RF_ONE)
        with pytest.raises(ValidationError):
            f.taylor(CR_ONE, 3)

    def test_evaluate_at_pole_rejected(self):
        f = RF_ONE / RF_Z
        with pytest.raises(ZeroDivisionError):
            f.evaluate(CR_ZERO)
        with pytest.raises(ZeroDivisionError):
            f.eval_complex(0.0)

    def test_eval_complex_matches_exact(self, rng):
        for _ in range(10):
            f = random_rf(rng)
            x = cr(3, 2, 1, 2)
            try:
                exact = f.evaluate(x)
            except ZeroDivisionError:
                continue
            approx = f.eval_complex(x.to_complex())
            assert abs(approx - exact.to_complex()) < 1e-12 * (1 + abs(approx))


class TestParser:
    def test_round_trip_random(self, rng):
        for _ in range(60):
            f = random_rf(rng)
            assert parse_rational_function(str(f)) == f

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("2i/5", RationalFunction.constant(cr(0, 1, 2, 5))),
            ("i^2", RationalFunction.constant(cr(-1))),
            ("-z^2", RationalFunction(-(P_Z * P_Z))),
            ("(z+1)*(z-1)", RationalFunction(P_Z * P_Z - P_ONE)),
            ("1/(z-1)", RationalFunction(P_ONE, P_Z - P_ONE)),
            ("z/2 + z/2", RF_Z),
            ("2*z^3 - z + 1/2", RationalFunction(Polynomial([cr(1, 2), cr(-1), 0, cr(2)]))),
            ("  z ", RF_Z),
            ("(1/2)/(3/z)", RationalFunction(Polynomial([0, cr(1, 6)]))),
            ("-(2i/3)/(z - 1)", RationalFunction(Polynomial([cr(0, 1, -2, 3)]), P_Z - P_ONE)),
            ("(z + 1)/(-2i/5)", RationalFunction(Polynomial([cr(0, 1, 5, 2), cr(0, 1, 5, 2)]))),
            ("1/(2*z - 2) + 1/(z - 1)", "(3/2)/(z - 1)"),
            ("(1/(z - 1))^2 * (z - 1)", "(1)/(z - 1)"),
            ("(2i/3)*z^2/(z^2 - z) - 1/3", "((-1/3+2i/3)*z + 1/3)/(z - 1)"),
            ("((1+i)/2)^3", "(-1/4+1i/4)"),
            ("1/(z/2 - 1/2)", "(2)/(z - 1)"),
        ],
    )
    def test_specific_expressions(self, text, expected):
        """Expected values are rational functions, or the printed text."""
        f = parse_rational_function(text)
        assert (str(f) if isinstance(expected, str) else f) == expected

    @pytest.mark.parametrize(
        "text, message, position",
        [
            ("12.5", "decimal literals are not allowed; use fractions", 2),
            ("3 $", "unexpected character '$'", 2),
            ("(z", "expected ')'", 2),
            ("z z", "trailing input after expression", 2),
            ("2 ^ z", "exponent must be a nonnegative integer", 4),
            ("z\u00b2", "unexpected character '\u00b2'", 1),
        ],
    )
    def test_errors_name_message_and_position(self, text, message, position):
        with pytest.raises(ParseError) as info:
            parse_rational_function(text)
        assert str(info.value) == f"{message} (at position {position})"
        assert info.value.position == position

    def test_imaginary_literal_binds_tighter_than_division(self):
        assert parse_rational_function("2i/5") == RationalFunction.constant(
            ComplexRational(0, Fraction(2, 5))
        )

    def test_decimals_rejected_with_position(self):
        with pytest.raises(ParseError) as info:
            parse_rational_function("1.5")
        assert info.value.position == 1

    def test_unexpected_character_position(self):
        with pytest.raises(ParseError) as info:
            parse_rational_function("2 + @")
        assert info.value.position == 4

    def test_unbalanced_parenthesis(self):
        with pytest.raises(ParseError):
            parse_rational_function("(z + 1")

    def test_trailing_input(self):
        with pytest.raises(ParseError):
            parse_rational_function("z z")

    def test_literal_division_by_zero(self):
        with pytest.raises(ParseError):
            parse_rational_function("1/0")
        with pytest.raises(ParseError):
            parse_rational_function("1/(z-z)")

    def test_empty_and_blank_rejected(self):
        with pytest.raises(ParseError):
            parse_rational_function("")
        with pytest.raises(ParseError):
            parse_rational_function("   ")

    def test_negative_exponent_rejected(self):
        with pytest.raises(ParseError):
            parse_rational_function("z^-1")

    def test_binary_operations_match_term_by_term(self, rng):
        for _ in range(40):
            f, g = random_rf(rng), random_rf(rng)
            assert parse_rational_function(f"({f}) + ({g})") == f + g
            assert parse_rational_function(f"({f}) - ({g})") == f - g
            assert parse_rational_function(f"({f}) * ({g})") == f * g
            if g:
                assert parse_rational_function(f"({f}) / ({g})") == f / g
            assert parse_rational_function(f"({f})^3") == f**3

    @pytest.mark.parametrize(
        "text, expected",
        [("(z^2-1)/(z-1)", "z + 1"), ("(z-1)/(z-1) - 1", "0"), ("0^0", "1")],
    )
    def test_cancelling_expressions_reduce(self, text, expected):
        f = parse_rational_function(text)
        assert str(f) == expected
        assert f.is_polynomial

    @pytest.mark.parametrize("text", ["1/(z - z)", "1/0"])
    def test_division_by_zero_position(self, text):
        with pytest.raises(ParseError, match="division by zero") as info:
            parse_rational_function(text)
        assert info.value.position == 1

    def test_one_gcd_per_expression(self, monkeypatch):
        calls = []
        original = rational_module.polynomial_gcd

        def counting(a, b):
            calls.append((a, b))
            return original(a, b)

        monkeypatch.setattr(rational_module, "polynomial_gcd", counting)
        parse_rational_function("(-4-11i/2)*z^2 + (5/2-i)*z + (-1/2+1i/2)")
        assert len(calls) == 0
        f = parse_rational_function("(3/2 - i)*z/(z^2 - z) + (1/2)/(z^2 - z)")
        assert len(calls) == 1
        assert str(f) == "((3/2-i)*z + 1/2)/(z^2 - z)"
        a = parse_rational_function("1/(z^2 - z)")
        b = parse_rational_function("(2 + i)/(z - 1)")
        minus_a = parse_rational_function("-1/(z^2 - z)")
        del calls[:]
        negated = -a
        assert len(calls) == 0
        assert negated == minus_a
        difference = a - b
        assert len(calls) == 1
        assert difference == a + (-b)
