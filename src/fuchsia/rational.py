"""Exact rational-function arithmetic over the Gaussian rationals.

``ComplexRational`` is a Gaussian rational (a + bi)/d held as three plain
ints in lowest terms (d > 0, gcd(a, b, d) = 1); every operation builds its
result from ints and reduces it with one gcd.  ``Polynomial`` holds the same
form for a whole polynomial: integer vectors of real and imaginary parts
over one positive denominator, content and primitive part as in von zur
Gathen & Gerhard, *Modern Computer Algebra*, ch. 6, so its arithmetic runs
on ints with one gcd per result; ``ComplexRational`` stays the scalar type
at the API (``coeffs``, ``evaluate``).  ``RationalFunction`` keeps a fully
reduced ratio with monic denominator so equality is structural.  A strict
grammar parses expressions in ``z`` with ``+ - * / ^``, parentheses, and
literals like ``3/2``, ``i``, ``2i`` (so ``2i/5`` reads as (2/5)i); the
parser carries unreduced numerator/denominator pairs, divides by a constant
as a multiplication, adds over an equal denominator without
cross-multiplying, and reduces once per expression.  The canonical printer
emits one fixed form that reparses to an equal value bit for bit.  No
floating point enters any arithmetic path; floats appear only in the
explicit ``to_complex`` / ``eval_complex`` conversions.
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
        n >>= 1
        if n:
            base = base * base
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
    re, im = c.re, c.im
    if not im:
        return str(re)
    if not re:
        return _imag_str(im) if im > 0 else "-" + _imag_str(-im)
    sign = "+" if im > 0 else "-"
    return f"({re}{sign}{_imag_str(abs(im))})"


class Polynomial:
    """Polynomial in z with Gaussian-rational coefficients, ascending order.

    Held as integer tuples ``_re`` and ``_im`` (one entry per power of z)
    over one positive integer ``_den``: coefficient k is
    (_re[k] + i _im[k]) / _den.  The form is canonical, so equality is
    structural: trimmed (no trailing (0, 0) pair), _den > 0 and
    gcd(_re, _im, _den) = 1; zero is ((), (), 1).  Arithmetic runs on the
    integers and reduces once per result (``_fill``).
    """

    __slots__ = ("_re", "_im", "_den")

    def __init__(self, coeffs=()):
        cleaned = []
        for c in coeffs:
            coerced = ComplexRational._coerce(c)
            if coerced is None:
                raise ValidationError(f"bad polynomial coefficient {c!r}")
            cleaned.append(coerced)
        den = lcm(*(c._d for c in cleaned))
        _fill(self, [c._a * (den // c._d) for c in cleaned], [c._b * (den // c._d) for c in cleaned], den)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @staticmethod
    def constant(c) -> "Polynomial":
        return Polynomial((c,))

    @property
    def coeffs(self) -> tuple:
        """The coefficients as reduced ``ComplexRational``s, ascending."""
        return tuple(_reduced(a, b, self._den) for a, b in zip(self._re, self._im))

    @property
    def degree(self) -> int:
        return len(self._re) - 1

    def __bool__(self) -> bool:
        return bool(self._re)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._den == other._den and self._re == other._re and self._im == other._im

    def _combine(self, other, sign: int) -> "Polynomial":
        """self + sign * other over lcm(den1, den2)."""
        den = lcm(self._den, other._den)
        s1, s2 = den // self._den, sign * (den // other._den)
        pad = [0] * (len(other._re) - len(self._re))
        re = [a * s1 for a in self._re] + pad
        im = [b * s1 for b in self._im] + pad
        for k, (a, b) in enumerate(zip(other._re, other._im)):
            re[k] += a * s2
            im[k] += b * s2
        return _poly(re, im, den)

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._combine(other, 1)

    def __neg__(self):
        return _poly([-a for a in self._re], [-b for b in self._im], self._den)

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._combine(other, -1)

    def _times(self, x: int, y: int, e: int) -> "Polynomial":
        """self * (x + yi)/e in one pass."""
        if x == e and not y:
            return self
        re, im = _scaled(self._re, self._im, x, y)
        return _poly(re, im, self._den * e)

    def _lead_inverse(self) -> tuple[int, int, int]:
        """(x, y, e) with (x + yi)/e = 1 / (leading coefficient)."""
        a, b = self._re[-1], self._im[-1]
        return self._den * a, -self._den * b, a * a + b * b

    def __mul__(self, other):
        if isinstance(other, ComplexRational):
            return self._times(other._a, other._b, other._d)
        if not isinstance(other, Polynomial):
            return NotImplemented
        if len(other._re) == 1:
            return self._times(other._re[0], other._im[0], other._den)
        if len(self._re) == 1:
            return other._times(self._re[0], self._im[0], self._den)
        re = [0] * (len(self._re) + len(other._re) - 1)
        im = re[:]
        for i, (a, b) in enumerate(zip(self._re, self._im)):
            for j, (c, d) in enumerate(zip(other._re, other._im), i):
                re[j] += a * c - b * d
                im[j] += a * d + b * c
        return _poly(re, im, self._den * other._den)

    def __divmod__(self, other):
        """Long division on the integer lists, the one division loop.

        With other's monic form M = (V + i W)/e (so V[-1] = e, W[-1] = 0) a
        quotient step is R <- e R - t z^k (V + i W) over den e, t the top of
        R, with the quotient so far scaled by e too; nothing grows when e = 1.
        The quotient by M times 1 / lead(other) is the quotient by ``other``.
        """
        if not isinstance(other, Polynomial):
            return NotImplemented
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        monic = other.monic()
        vr, vi, e = monic._re, monic._im, monic._den
        n = len(vr) - 1
        rr, ri, den = list(self._re), list(self._im), self._den
        steps = max(len(rr) - n, 0)
        qr, qi = [0] * steps, [0] * steps
        for k in range(steps - 1, -1, -1):
            tr, ti = rr.pop(), ri.pop()
            qr[k], qi[k] = tr, ti
            if e != 1:
                rr = [a * e for a in rr]
                ri = [b * e for b in ri]
                qr[k:] = [a * e for a in qr[k:]]
                qi[k:] = [b * e for b in qi[k:]]
                den *= e
            if tr or ti:
                for j in range(n):
                    rr[k + j] -= tr * vr[j] - ti * vi[j]
                    ri[k + j] -= tr * vi[j] + ti * vr[j]
        x, y, f = other._lead_inverse()
        qr, qi = _scaled(qr, qi, x, y)
        return _poly(qr, qi, den * f), _poly(rr, ri, den)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __pow__(self, n: int):
        return _power(self, n, P_ONE, "polynomial")

    def derivative(self) -> "Polynomial":
        re = [k * a for k, a in enumerate(self._re)]
        im = [k * b for k, b in enumerate(self._im)]
        return _poly(re[1:], im[1:], self._den)

    def monic(self) -> "Polynomial":
        if not self:
            raise ValidationError("the zero polynomial has no monic form")
        return self._times(*self._lead_inverse())

    def translate(self, c: ComplexRational) -> "Polynomial":
        """Exact composition P(z + c) by Horner's rule on integers.

        With c = (x + yi)/d and p_k the numerators, s <- s d and then
        T <- T (d z + x + yi) + p_k s run from the top coefficient down,
        from T = 0 and s = 1, and P(z + c) = T / (den s).
        """
        x, y, d = c._a, c._b, c._d
        re, im, scale = [0], [0], 1
        for a, b in zip(reversed(self._re), reversed(self._im)):
            scale *= d
            xr, xi = _scaled(re, im, x, y)
            re = [a * scale + xr[0]] + [s + d * t for s, t in zip(xr[1:], re)] + [d * re[-1]]
            im = [b * scale + xi[0]] + [s + d * t for s, t in zip(xi[1:], im)] + [d * im[-1]]
        return _poly(re, im, self._den * scale)

    def evaluate(self, point: ComplexRational) -> ComplexRational:
        """Exact value P(point): the constant coefficient of P(z + point)."""
        return self.translate(point).coeffs[0] if self else CR_ZERO

    def eval_complex(self, z: complex) -> complex:
        result = 0j
        den = self._den
        for a, b in zip(reversed(self._re), reversed(self._im)):
            result = result * z + complex(a / den, b / den)
        return result

    def __str__(self) -> str:
        return format_polynomial(self)

    def __repr__(self) -> str:
        return f"Polynomial({str(self)!r})"


_set_re = Polynomial._re.__set__
_set_im = Polynomial._im.__set__
_set_den = Polynomial._den.__set__


def _scaled(re, im, x: int, y: int) -> tuple[list, list]:
    """Numerators of (re + i im)(x + yi), entry by entry."""
    return [a * x - b * y for a, b in zip(re, im)], [a * y + b * x for a, b in zip(re, im)]


def _fill(p: Polynomial, re, im, den: int) -> Polynomial:
    """Store (re + i im)/den in canonical form in ``p``: the one normaliser.

    Trims trailing (0, 0) pairs and divides by gcd(den, re, im), one
    multi-argument gcd; ``den`` must be positive.
    """
    n = len(re)
    while n and not re[n - 1] and not im[n - 1]:
        n -= 1
    if n < len(re):
        re, im = re[:n], im[:n]
    g = gcd(den, *re, *im)
    if g != 1:
        re, im, den = [a // g for a in re], [b // g for b in im], den // g
    _set_re(p, tuple(re))
    _set_im(p, tuple(im))
    _set_den(p, den)
    return p


def _poly(re, im, den: int) -> Polynomial:
    return _fill(object.__new__(Polynomial), re, im, den)


P_ZERO = _poly((), (), 1)
P_ONE = _poly((1,), (0,), 1)
P_Z = _poly((0, 1), (0, 0), 1)


def polynomial_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic greatest common divisor by the Euclidean algorithm."""
    while b:
        a, b = b, a % b
    if not a:
        return P_ZERO
    return a.monic()


def _term_str(c: ComplexRational, k: int) -> tuple[str, str]:
    """One monomial as (sign, body); mixed coefficients carry sign inside."""
    re, im = c.re, c.im
    if not im:
        sign = "-" if re < 0 else "+"
        mag = abs(re)
        if k == 0:
            return sign, str(mag)
        coeff = "" if mag == 1 else f"{mag}*"
    elif not re:
        sign = "-" if im < 0 else "+"
        mag = _imag_str(abs(im))
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
    coeffs = p.coeffs
    parts = []
    for k in range(p.degree, -1, -1):
        c = coeffs[k]
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
        inverse = den._lead_inverse()
        num = num._times(*inverse)
        den = den._times(*inverse)
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
                if rden == den:
                    num = num + rnum
                else:
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
                    if rnum.degree:
                        num, den = num * rden, den * rnum
                    else:  # a / (c / q) = a q (1 / c)
                        num = (num * rden)._times(*rnum._lead_inverse())
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
            return _poly((value,), (0,), 1), P_ONE
        if kind == _TOK_IMAG:
            return _poly((0,), (value,), 1), P_ONE
        if kind == _TOK_I:
            return _poly((0,), (1,), 1), P_ONE
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
