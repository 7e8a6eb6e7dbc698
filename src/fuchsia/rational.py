"""Exact rational-function arithmetic over the Gaussian rationals.

``ComplexRational`` is a Gaussian rational (a + bi)/d held as three plain
ints in lowest terms (d > 0, gcd(a, b, d) = 1); every operation builds its
result from ints and reduces it with one gcd.  ``Polynomial`` holds
ascending coefficient tuples, and ``RationalFunction`` keeps a fully
reduced ratio with monic denominator so equality is structural.  A strict
grammar parses expressions in ``z`` with ``+ - * / ^``, parentheses, and
literals like ``3/2``, ``i``, ``2i`` (so ``2i/5`` reads as (2/5)i); the
parser carries unreduced numerator/denominator pairs and reduces once per
expression.  The canonical printer emits one fixed form that reparses to an
equal value bit for bit.  No floating point enters any arithmetic path;
floats appear only in the explicit ``to_complex`` / ``eval_complex``
conversions.
"""

from fractions import Fraction
from math import gcd, lcm

from .errors import ParseError, ValidationError


def _as_fraction(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    raise ValidationError(f"expected an integer or Fraction, got {type(v).__name__}")


def _reduced(a: int, b: int, d: int) -> "ComplexRational":
    """(a + bi)/d in lowest terms, for d > 0."""
    g = gcd(a, b, d)
    if g != 1:
        a //= g
        b //= g
        d //= g
    c = object.__new__(ComplexRational)
    _set_a(c, a)
    _set_b(c, b)
    _set_d(c, d)
    return c


def _power(base, n, one, what: str):
    """base**n by repeated squaring, for a nonnegative integer n."""
    if not isinstance(n, int) or n < 0:
        raise ValidationError(f"{what} powers must be nonnegative integers")
    result = one
    while n:
        if n & 1:
            result = result * base
        base = base * base
        n >>= 1
    return result


class ComplexRational:
    """Gaussian rational (a + bi)/d with exact integer parts."""

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        re, im = _as_fraction(re), _as_fraction(im)
        d = lcm(re.denominator, im.denominator)
        _set_a(self, re.numerator * (d // re.denominator))
        _set_b(self, im.numerator * (d // im.denominator))
        _set_d(self, d)

    def __setattr__(self, name, value):
        raise AttributeError("ComplexRational is immutable")

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    @staticmethod
    def _coerce(v):
        if isinstance(v, ComplexRational):
            return v
        if isinstance(v, (int, Fraction)):
            return ComplexRational(v)
        return None

    def __bool__(self) -> bool:
        return bool(self._a) or bool(self._b)

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._a == other._a and self._b == other._b and self._d == other._d

    def __hash__(self):
        return hash((self._a, self._b, self._d))

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        d1, d2 = self._d, other._d
        return _reduced(self._a * d2 + other._a * d1, self._b * d2 + other._b * d1, d1 * d2)

    __radd__ = __add__

    def __neg__(self):
        return _reduced(-self._a, -self._b, self._d)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        d1, d2 = self._d, other._d
        return _reduced(self._a * d2 - other._a * d1, self._b * d2 - other._b * d1, d1 * d2)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a1, b1, a2, b2 = self._a, self._b, other._a, other._b
        return _reduced(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, self._d * other._d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        """(a1 + b1 i)(a2 - b2 i) d2 / (d1 (a2^2 + b2^2))."""
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a1, b1, a2, b2 = self._a, self._b, other._a, other._b
        norm = a2 * a2 + b2 * b2
        if norm == 0:
            raise ZeroDivisionError("division by zero ComplexRational")
        d2 = other._d
        return _reduced((a1 * a2 + b1 * b2) * d2, (b1 * a2 - a1 * b2) * d2, self._d * norm)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, n: int):
        return _power(self, n, CR_ONE, "ComplexRational")

    def conjugate(self):
        return _reduced(self._a, -self._b, self._d)

    def to_complex(self) -> complex:
        return complex(self._a / self._d, self._b / self._d)

    def __str__(self) -> str:
        return format_complex_rational(self)

    def __repr__(self) -> str:
        return f"ComplexRational({self.re!r}, {self.im!r})"


_set_a = ComplexRational._a.__set__
_set_b = ComplexRational._b.__set__
_set_d = ComplexRational._d.__set__


CR_ZERO = ComplexRational(0)
CR_ONE = ComplexRational(1)
CR_I = ComplexRational(0, 1)


def _imag_str(q: Fraction) -> str:
    """Render the positive imaginary quantity q*i, e.g. 2/5 -> '2i/5'."""
    if q.denominator == 1:
        return "i" if q.numerator == 1 else f"{q.numerator}i"
    return f"{q.numerator}i/{q.denominator}"


def format_complex_rational(c: ComplexRational) -> str:
    """Canonical text for a Gaussian rational; mixed values are parenthesized."""
    if not c.im:
        return str(c.re)
    if not c.re:
        return _imag_str(c.im) if c.im > 0 else "-" + _imag_str(-c.im)
    sign = "+" if c.im > 0 else "-"
    return f"({c.re}{sign}{_imag_str(abs(c.im))})"


class Polynomial:
    """Polynomial in z with ComplexRational coefficients, ascending order."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cleaned = []
        for c in coeffs:
            coerced = ComplexRational._coerce(c)
            if coerced is None:
                raise ValidationError(f"bad polynomial coefficient {c!r}")
            cleaned.append(coerced)
        while cleaned and not cleaned[-1]:
            cleaned.pop()
        object.__setattr__(self, "coeffs", tuple(cleaned))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @staticmethod
    def constant(c) -> "Polynomial":
        return Polynomial((c,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial(
            [
                (self.coeffs[k] if k < len(self.coeffs) else CR_ZERO)
                + (other.coeffs[k] if k < len(other.coeffs) else CR_ZERO)
                for k in range(n)
            ]
        )

    def __neg__(self):
        return Polynomial([-c for c in self.coeffs])

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, ComplexRational):
            return Polynomial([c * other for c in self.coeffs])
        if not isinstance(other, Polynomial):
            return NotImplemented
        if not self or not other:
            return P_ZERO
        out = [CR_ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Polynomial(out)

    def __divmod__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        div = other.coeffs
        if len(rem) < len(div):
            return P_ZERO, self
        quot = [CR_ZERO] * (len(rem) - len(div) + 1)
        lead = div[-1]
        for k in range(len(quot) - 1, -1, -1):
            q = rem[k + len(div) - 1] / lead
            quot[k] = q
            if q:
                for j in range(len(div)):
                    rem[k + j] = rem[k + j] - q * div[j]
        return Polynomial(quot), Polynomial(rem[: len(div) - 1])

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __pow__(self, n: int):
        return _power(self, n, P_ONE, "polynomial")

    def derivative(self) -> "Polynomial":
        return Polynomial(
            [self.coeffs[k] * ComplexRational(k) for k in range(1, len(self.coeffs))]
        )

    def monic(self) -> "Polynomial":
        if not self:
            raise ValidationError("the zero polynomial has no monic form")
        lead = self.coeffs[-1]
        return Polynomial([c / lead for c in self.coeffs])

    def translate(self, c: ComplexRational) -> "Polynomial":
        """Exact composition P(z + c) via Horner in the shifted variable."""
        result = P_ZERO
        shift = Polynomial((c, CR_ONE))
        for coeff in reversed(self.coeffs):
            result = result * shift + Polynomial.constant(coeff)
        return result

    def evaluate(self, point: ComplexRational) -> ComplexRational:
        result = CR_ZERO
        for coeff in reversed(self.coeffs):
            result = result * point + coeff
        return result

    def eval_complex(self, z: complex) -> complex:
        result = 0j
        for coeff in reversed(self.coeffs):
            result = result * z + coeff.to_complex()
        return result

    def __str__(self) -> str:
        return format_polynomial(self)

    def __repr__(self) -> str:
        return f"Polynomial({str(self)!r})"


P_ZERO = Polynomial(())
P_ONE = Polynomial((CR_ONE,))
P_Z = Polynomial((CR_ZERO, CR_ONE))


def polynomial_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic greatest common divisor by the Euclidean algorithm."""
    while b:
        a, b = b, a % b
    if not a:
        return P_ZERO
    return a.monic()


def _term_str(c: ComplexRational, k: int) -> tuple[str, str]:
    """One monomial as (sign, body); mixed coefficients carry sign inside."""
    if not c.im:
        sign = "-" if c.re < 0 else "+"
        mag = abs(c.re)
        if k == 0:
            return sign, str(mag)
        coeff = "" if mag == 1 else f"{mag}*"
    elif not c.re:
        sign = "-" if c.im < 0 else "+"
        mag = _imag_str(abs(c.im))
        if k == 0:
            return sign, mag
        coeff = f"{mag}*"
    else:
        body = format_complex_rational(c)
        if k == 0:
            return "+", body
        return "+", f"{body}*" + ("z" if k == 1 else f"z^{k}")
    var = "z" if k == 1 else f"z^{k}"
    return sign, f"{coeff}{var}"


def format_polynomial(p: Polynomial) -> str:
    if not p:
        return "0"
    parts = []
    for k in range(p.degree, -1, -1):
        c = p.coeffs[k]
        if not c:
            continue
        sign, body = _term_str(c, k)
        if not parts:
            parts.append(body if sign == "+" else f"-{body}")
        else:
            parts.append(f" {sign} {body}")
    return "".join(parts)


class RationalFunction:
    """Reduced ratio of polynomials with a monic denominator.

    The canonical form makes structural equality coincide with equality of
    rational functions: zero is 0/1, gcd(num, den) = 1, den monic.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den: Polynomial = P_ONE):
        if not isinstance(num, Polynomial) or not isinstance(den, Polynomial):
            raise ValidationError("RationalFunction needs Polynomial numerator and denominator")
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            object.__setattr__(self, "num", P_ZERO)
            object.__setattr__(self, "den", P_ONE)
            return
        if den.degree > 0:
            g = polynomial_gcd(num, den)
            if g.degree > 0:
                num = num // g
                den = den // g
        lead = den.coeffs[-1]
        num = Polynomial([c / lead for c in num.coeffs])
        den = Polynomial([c / lead for c in den.coeffs])
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFunction is immutable")

    @staticmethod
    def constant(c) -> "RationalFunction":
        return RationalFunction(Polynomial.constant(c))

    @property
    def is_polynomial(self) -> bool:
        return self.den == P_ONE

    def __bool__(self) -> bool:
        return bool(self.num)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __add__(self, other):
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __neg__(self):
        # Negating the numerator keeps the form canonical: no gcd needed.
        out = object.__new__(RationalFunction)
        object.__setattr__(out, "num", -self.num)
        object.__setattr__(out, "den", self.den)
        return out

    def __sub__(self, other):
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return RationalFunction(
            self.num * other.den - other.num * self.den, self.den * other.den
        )

    def __mul__(self, other):
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return RationalFunction(self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        if not isinstance(other, RationalFunction):
            return NotImplemented
        if not other:
            raise ZeroDivisionError("division by the zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __pow__(self, n: int):
        return _power(self, n, RF_ONE, "rational function")

    def derivative(self) -> "RationalFunction":
        return RationalFunction(
            self.num.derivative() * self.den - self.num * self.den.derivative(),
            self.den * self.den,
        )

    def evaluate(self, point: ComplexRational) -> ComplexRational:
        d = self.den.evaluate(point)
        if not d:
            raise ZeroDivisionError(f"rational function has a pole at {point}")
        return self.num.evaluate(point) / d

    def eval_complex(self, z: complex) -> complex:
        d = self.den.eval_complex(z)
        if d == 0:
            raise ZeroDivisionError(f"rational function has a pole at {z}")
        return self.num.eval_complex(z) / d

    def taylor(self, center: ComplexRational, order: int) -> list[ComplexRational]:
        """Exact Taylor coefficients c_0..c_order about a non-pole point."""
        num = self.num.translate(center).coeffs
        den = self.den.translate(center).coeffs
        if not den or not den[0]:
            raise ValidationError(f"Taylor expansion about a pole at {center}")
        out = []
        for k in range(order + 1):
            acc = num[k] if k < len(num) else CR_ZERO
            for j in range(k):
                dk = den[k - j] if k - j < len(den) else CR_ZERO
                acc = acc - out[j] * dk
            out.append(acc / den[0])
        return out

    def __str__(self) -> str:
        if self.is_polynomial:
            return format_polynomial(self.num)
        return f"({format_polynomial(self.num)})/({format_polynomial(self.den)})"

    def __repr__(self) -> str:
        return f"RationalFunction({str(self)!r})"


RF_ZERO = RationalFunction(P_ZERO)
RF_ONE = RationalFunction(P_ONE)
RF_Z = RationalFunction(P_Z)


# Expression grammar (whitespace insensitive):
#   expr   := term (('+'|'-') term)*
#   term   := factor (('*'|'/') factor)*
#   factor := ('+'|'-') factor | atom ('^' INT)?
#   atom   := INT | INT 'i' | 'i' | 'z' | '(' expr ')'
# Digits immediately followed by 'i' form one imaginary literal, so 2i/5
# means (2i)/5.  Decimal points are rejected: exact literals only.

_TOK_INT = "int"
_TOK_IMAG = "imag"
_TOK_I = "i"
_TOK_Z = "z"
_TOK_OP = "op"
_TOK_END = "end"


def _tokenize(text: str):
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch.isdigit():
            start = pos
            while pos < n and text[pos].isdigit():
                pos += 1
            if pos < n and text[pos] == ".":
                raise ParseError("decimal literals are not allowed; use fractions", pos)
            value = int(text[start:pos])
            if pos < n and text[pos] == "i":
                pos += 1
                tokens.append((_TOK_IMAG, value, start))
            else:
                tokens.append((_TOK_INT, value, start))
            continue
        if ch == "i":
            tokens.append((_TOK_I, None, pos))
            pos += 1
            continue
        if ch == "z":
            tokens.append((_TOK_Z, None, pos))
            pos += 1
            continue
        if ch in "+-*/^()":
            tokens.append((_TOK_OP, ch, pos))
            pos += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", pos)
    tokens.append((_TOK_END, None, n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.index = 0

    def peek(self):
        return self.tokens[self.index]

    def advance(self):
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def expect_op(self, symbol: str):
        kind, value, pos = self.peek()
        if kind != _TOK_OP or value != symbol:
            raise ParseError(f"expected {symbol!r}", pos)
        self.advance()

    def parse(self) -> RationalFunction:
        num, den = self.expr()
        kind, _, pos = self.peek()
        if kind != _TOK_END:
            raise ParseError("trailing input after expression", pos)
        return RationalFunction(num, den)

    # Below, values are unreduced (numerator, denominator) Polynomial pairs
    # with a nonzero denominator; ``parse`` reduces once at the end.

    def expr(self):
        num, den = self.term()
        while True:
            kind, op, _ = self.peek()
            if kind == _TOK_OP and op in "+-":
                self.advance()
                rnum, rden = self.term()
                if op == "-":
                    rnum = -rnum
                num, den = num * rden + rnum * den, den * rden
            else:
                return num, den

    def term(self):
        num, den = self.factor()
        while True:
            kind, op, pos = self.peek()
            if kind == _TOK_OP and op in "*/":
                self.advance()
                rnum, rden = self.factor()
                if op == "*":
                    num, den = num * rnum, den * rden
                else:
                    if not rnum:
                        raise ParseError("division by zero", pos)
                    num, den = num * rden, den * rnum
            else:
                return num, den

    def factor(self):
        kind, op, _ = self.peek()
        if kind == _TOK_OP and op in "+-":
            self.advance()
            num, den = self.factor()
            return (-num if op == "-" else num), den
        num, den = self.atom()
        kind, op, pos = self.peek()
        if kind == _TOK_OP and op == "^":
            self.advance()
            kind, exp, pos = self.advance()
            if kind != _TOK_INT:
                raise ParseError("exponent must be a nonnegative integer", pos)
            num, den = num**exp, den**exp
        return num, den

    def atom(self):
        kind, value, pos = self.advance()
        if kind == _TOK_INT:
            return Polynomial.constant(ComplexRational(value)), P_ONE
        if kind == _TOK_IMAG:
            return Polynomial.constant(ComplexRational(0, value)), P_ONE
        if kind == _TOK_I:
            return Polynomial.constant(CR_I), P_ONE
        if kind == _TOK_Z:
            return P_Z, P_ONE
        if kind == _TOK_OP and value == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        raise ParseError(f"unexpected token {value!r}", pos)


def parse_rational_function(text: str) -> RationalFunction:
    """Parse expression text into a reduced ``RationalFunction``.

    The canonical printer and this parser round-trip:
    ``parse_rational_function(str(r)) == r`` exactly.
    """
    if not isinstance(text, str) or not text.strip():
        raise ParseError("empty expression")
    return _Parser(text).parse()
