"""Exact rational-function arithmetic over the Gaussian rationals.

``ComplexRational`` is a Gaussian rational (a + bi)/d held as three plain
ints in lowest terms (d > 0, gcd(a, b, d) = 1); every operation builds its
result from ints and reduces it with one gcd.  ``Polynomial`` holds the same
form for a whole polynomial: integer vectors of real and imaginary parts
over one positive denominator, content and primitive part as in von zur
Gathen & Gerhard, *Modern Computer Algebra*, ch. 6.  Its arithmetic is an
integer kernel (sum, convolution, scalar product, the one long-division
loop) on plain lists followed by one gcd per kept result; ``%`` reduces
only the remainder.  ``ComplexRational`` stays the scalar type at the API
(``coeffs``, ``evaluate``).  ``RationalFunction`` keeps a fully reduced
ratio with monic denominator so equality is structural.  A strict grammar
parses expressions in ``z`` with ``+ - * / ^``, parentheses, and literals
like ``3/2``, ``i``, ``2i`` (so ``2i/5`` reads as (2/5)i); the parser runs
the same kernels on unreduced integer vectors, folds constant divisors into
one integer denominator, adds over an equal denominator without
cross-multiplying, and reduces once per expression.  The canonical printer
reads each coefficient off the integers with one gcd per nonzero part and
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


def _power(base, n, one, mul, what: str):
    """base**n by repeated squaring with the product ``mul``, for an int n >= 0."""
    if not isinstance(n, int) or n < 0:
        raise ValidationError(f"{what} powers must be nonnegative integers")
    result = one
    while n:
        if n & 1:
            result = base if result is one else mul(result, base)
        n >>= 1
        if n:
            base = mul(base, base)
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
        return _power(self, n, CR_ONE, ComplexRational.__mul__, "ComplexRational")

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


def _ratio_str(n: int, d: int, unit: str) -> str:
    """n/d, n >= 0 and d > 0, in lowest terms: '3/2'; with ``unit`` 'i', '2i/5', 'i', '1i/5'."""
    g = gcd(n, d)
    n, d = n // g, d // g
    if d != 1:
        return f"{n}{unit}/{d}"
    return unit if n == 1 and unit else f"{n}{unit}"


def _signed_str(a: int, b: int, d: int) -> tuple[str, str]:
    """(a + bi)/d, d > 0, as (sign, body): a real or imaginary value signs
    its magnitude, a mixed one is parenthesized with sign '+'."""
    if not b:
        return "-" if a < 0 else "+", _ratio_str(abs(a), d, "")
    if not a:
        return "-" if b < 0 else "+", _ratio_str(abs(b), d, "i")
    re = ("-" if a < 0 else "") + _ratio_str(abs(a), d, "")
    return "+", f"({re}{'-' if b < 0 else '+'}{_ratio_str(abs(b), d, 'i')})"


def format_complex_rational(c: ComplexRational) -> str:
    """Canonical text for a Gaussian rational; mixed values are parenthesized."""
    sign, body = _signed_str(c._a, c._b, c._d)
    return body if sign == "+" else f"-{body}"


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

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return _poly(*_sum(self._re, self._im, self._den, other._re, other._im, other._den, 1))

    def __neg__(self):
        return _poly([-a for a in self._re], [-b for b in self._im], self._den)

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return _poly(*_sum(self._re, self._im, self._den, other._re, other._im, other._den, -1))

    def _times(self, x: int, y: int, e: int) -> "Polynomial":
        """self * (x + yi)/e in one pass."""
        if x == e and not y:
            return self
        re, im = _scaled(self._re, self._im, x, y)
        return _poly(re, im, self._den * e)

    def _lead_inverse(self) -> tuple[int, int, int]:
        """(x, y, e) with (x + yi)/e = 1 / (leading coefficient)."""
        return _inverse(self._re[-1], self._im[-1], self._den)

    def __mul__(self, other):
        if isinstance(other, ComplexRational):
            return self._times(other._a, other._b, other._d)
        if not isinstance(other, Polynomial):
            return NotImplemented
        if len(other._re) == 1:  # a constant: one scalar pass, none for one
            return self._times(other._re[0], other._im[0], other._den)
        if len(self._re) == 1:
            return other._times(self._re[0], self._im[0], self._den)
        return _poly(*_product(self._re, self._im, other._re, other._im), self._den * other._den)

    def _divide(self, other) -> tuple:
        """Long division on the integer lists, the one division loop.

        With other's monic form M = (V + i W)/e (so V[-1] = e, W[-1] = 0) a
        step at power k is R <- e R - t z^k (V + i W) over den e, t the top
        of R; nothing grows when e = 1.  The quotient by M is the sum of
        t e^(k+1) z^k over the final den, times 1 / lead(other) the quotient
        by ``other``.  Returns a function that builds the quotient, and the
        remainder, as unreduced (re, im, den): ``%`` never builds the former.
        """
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        x, y, f = other._lead_inverse()
        monic = other._times(x, y, f)
        vr, vi, e = monic._re, monic._im, monic._den
        n = len(vr) - 1
        rr, ri, den = list(self._re), list(self._im), self._den
        tops = []
        for k in range(len(rr) - n - 1, -1, -1):
            tr, ti = rr.pop(), ri.pop()
            tops.append((tr, ti))
            if e != 1:
                rr = [a * e for a in rr]
                ri = [b * e for b in ri]
                den *= e
            if tr or ti:
                for j in range(n):
                    rr[k + j] -= tr * vr[j] - ti * vi[j]
                    ri[k + j] -= tr * vi[j] + ti * vr[j]
        tops.reverse()

        def quotient():
            qr = [tr * e ** (k + 1) for k, (tr, _) in enumerate(tops)]
            qi = [ti * e ** (k + 1) for k, (_, ti) in enumerate(tops)]
            return (*_scaled(qr, qi, x, y), den * f)

        return quotient, (rr, ri, den)

    def __divmod__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        quotient, remainder = self._divide(other)
        return _poly(*quotient()), _poly(*remainder)

    def __floordiv__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return _poly(*self._divide(other)[0]())

    def __mod__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return _poly(*self._divide(other)[1])

    def __pow__(self, n: int):
        return _power(self, n, P_ONE, Polynomial.__mul__, "polynomial")

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


# Integer kernels: unreduced (re, im) Gaussian-integer numerator sequences.


def _scaled(re, im, x: int, y: int) -> tuple[list, list]:
    """Numerators of (re + i im)(x + yi), entry by entry; the inputs
    themselves for x + yi = 1."""
    if x == 1 and not y:
        return re, im
    return [a * x - b * y for a, b in zip(re, im)], [a * y + b * x for a, b in zip(re, im)]


def _product(re1, im1, re2, im2) -> tuple[list, list]:
    """Numerators of (re1 + i im1)(re2 + i im2): a Gaussian-integer
    convolution, or one scalar pass when a factor is a constant."""
    if len(re2) == 1:
        return _scaled(re1, im1, re2[0], im2[0])
    if len(re1) == 1:
        return _scaled(re2, im2, re1[0], im1[0])
    re = [0] * (len(re1) + len(re2) - 1)
    im = re[:]
    for i, (a, b) in enumerate(zip(re1, im1)):
        for j, (c, d) in enumerate(zip(re2, im2), i):
            re[j] += a * c - b * d
            im[j] += a * d + b * c
    return re, im


def _sum(re1, im1, d1: int, re2, im2, d2: int, sign: int) -> tuple[list, list, int]:
    """(re1 + i im1)/d1 + sign (re2 + i im2)/d2 over lcm(d1, d2)."""
    den = lcm(d1, d2)
    s1, s2 = den // d1, sign * (den // d2)
    pad = [0] * (len(re2) - len(re1))
    re = [a * s1 for a in re1] + pad
    im = [b * s1 for b in im1] + pad
    for k, (a, b) in enumerate(zip(re2, im2)):
        re[k] += a * s2
        im[k] += b * s2
    return re, im, den


def _inverse(a: int, b: int, d: int) -> tuple[int, int, int]:
    """(x, y, e) with (x + yi)/e = d / (a + bi) and e > 0, for a + bi != 0:
    d (a' - b'i) / (g (a'^2 + b'^2)) with g = gcd(a, b), a = g a', b = g b'."""
    g = gcd(a, b)
    a, b = a // g, b // g
    return d * a, -d * b, g * (a * a + b * b)


def _trim(re, im) -> tuple:
    """``re`` and ``im`` without their trailing (0, 0) pairs."""
    n = len(re)
    while n and not re[n - 1] and not im[n - 1]:
        n -= 1
    return (re, im) if n == len(re) else (re[:n], im[:n])


def _fill(p: Polynomial, re, im, den: int) -> Polynomial:
    """Store (re + i im)/den in canonical form in ``p``: the one normaliser.

    Trims trailing (0, 0) pairs and divides by gcd(den, re, im), one
    multi-argument gcd; ``den`` must be positive.
    """
    re, im = _trim(re, im)
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


def format_polynomial(p: Polynomial) -> str:
    """Canonical text from the integers, highest power first."""
    if not p:
        return "0"
    parts = []
    for k in range(p.degree, -1, -1):
        a, b = p._re[k], p._im[k]
        if not a and not b:
            continue
        sign, body = _signed_str(a, b, p._den)
        if k:
            body = ("" if body == "1" else f"{body}*") + ("z" if k == 1 else f"z^{k}")
        if parts:
            parts.append(f" {sign} {body}")
        else:
            parts.append(body if sign == "+" else f"-{body}")
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
        return _power(self, n, RF_ONE, RationalFunction.__mul__, "rational function")

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
        if ch.isdecimal():
            start = pos
            while pos < n and text[pos].isdecimal():
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
        if ch in "iz+-*/^()":
            tokens.append((ch, ch, pos))
            pos += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", pos)
    tokens.append((_TOK_END, None, n))
    return tokens


class _Parser:
    """Recursive descent; a token's kind is its character, except for integer
    literals and the end."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.index = 0

    def parse(self) -> RationalFunction:
        (re, im, den), q = self.expr()
        kind, _, pos = self.tokens[self.index]
        if kind != _TOK_END:
            raise ParseError("trailing input after expression", pos)
        return RationalFunction(_poly(re, im, den), P_ONE if q is None else _poly(*q, 1))

    # Below, a value is (numerator, denominator), unreduced: the numerator a
    # triple (re, im, den) of Gaussian-integer lists over a positive int, the
    # denominator None (one) or a non-constant (re, im) pair of Gaussian-
    # integer lists, since a constant denominator folds into the numerator's
    # den.  Values run on the integer kernels; ``parse`` reduces once.

    def expr(self):
        num, q = self.term()
        while True:
            op = self.tokens[self.index][0]
            if op != "+" and op != "-":
                return num, q
            self.index += 1
            rnum, rq = self.term()
            if rq != q:  # a false "not equal" costs only a cross-multiplication
                num, rnum, q = _over(num, rq), _over(rnum, q), _den_product(q, rq)
            num = _sum(*num, *rnum, 1 if op == "+" else -1)

    def term(self):
        value = self.factor()
        while True:
            op, _, pos = self.tokens[self.index]
            if op != "*" and op != "/":
                return value
            self.index += 1
            right = self.factor()
            if op == "*":
                value = _value_product(value, right)
                continue
            (num, q), ((re, im, d), rq) = value, right
            re, im = _trim(re, im)
            if not re:
                raise ParseError("division by zero", pos)
            if len(re) == 1:  # a / (c / rq) = a rq (1 / c)
                x, y, e = _inverse(re[0], im[0], d)
            else:
                x, y, e = d, 0, 1
                q = _den_product(q, (re, im))
            num = _over(num, rq)
            value = (*_scaled(num[0], num[1], x, y), num[2] * e), q

    def factor(self):
        kind, value, pos = self.tokens[self.index]
        self.index += 1
        if kind == "+" or kind == "-":
            (re, im, den), q = self.factor()
            return (*_scaled(re, im, 1 if kind == "+" else -1, 0), den), q
        if kind == _TOK_INT:
            value = ([value], [0], 1), None
        elif kind == _TOK_IMAG:
            value = ([0], [value], 1), None
        elif kind == "i":
            value = ([0], [1], 1), None
        elif kind == "z":
            value = ([0, 1], [0, 0], 1), None
        elif kind == "(":
            value = self.expr()
            kind, _, pos = self.tokens[self.index]
            if kind != ")":
                raise ParseError("expected ')'", pos)
            self.index += 1
        else:
            raise ParseError(f"unexpected token {value!r}", pos)
        if self.tokens[self.index][0] == "^":
            atom, (kind, exp, pos) = kind, self.tokens[self.index + 1]
            self.index += 2
            if kind != _TOK_INT:
                raise ParseError("exponent must be a nonnegative integer", pos)
            if atom == "z":  # z^k is one monomial, no products
                return ([0] * exp + [1], [0] * (exp + 1), 1), None
            value = _power(value, exp, (([1], [0], 1), None), _value_product, "polynomial")
        return value


def _over(num, q):
    """A parser numerator times a denominator vector ``q`` (None is one)."""
    return num if q is None else (*_product(num[0], num[1], *q), num[2])


def _den_product(q1, q2):
    """The product of two parser denominators (None is one)."""
    if q1 is None or q2 is None:
        return q2 if q1 is None else q1
    return _product(*q1, *q2)


def _value_product(left, right):
    """The product of two parser values."""
    ((re1, im1, d1), q1), ((re2, im2, d2), q2) = left, right
    return (*_product(re1, im1, re2, im2), d1 * d2), _den_product(q1, q2)


def parse_rational_function(text: str) -> RationalFunction:
    """Parse expression text into a reduced ``RationalFunction``.

    The canonical printer and this parser round-trip:
    ``parse_rational_function(str(r)) == r`` exactly.
    """
    if not isinstance(text, str) or not text.strip():
        raise ParseError("empty expression")
    return _Parser(text).parse()
