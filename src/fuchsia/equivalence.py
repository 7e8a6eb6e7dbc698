"""Exact conversions among scalar equations, matrix systems, and modules.

All arithmetic here is over the field of rational functions with Gaussian
rational coefficients; nothing is ever rounded.  The three representations:

* ``ScalarEquation``: y^(n) + a_{n-1} y^(n-1) + ... + a_0 y = 0.
* ``RationalMatrix`` as the coefficient A of the first-order system Y' = AY.
* ``DifferentialModule``: a free module with derivation, where the stored
  action matrix D records del(e_i) = sum_j D[j][i] e_j (columns describe
  the images of basis vectors).  Horizontal elements of the module carry the
  solutions of Y' = AY exactly when D = -A, equivalently del e = -A^T e on
  the column of basis vectors; the ``orientation`` flag pins this sign.

A basis change B (invertible over the field) acts on system matrices by the
gauge formula B^{-1} A B - B^{-1} B', which is a right group action.
"""

from dataclasses import dataclass

import numpy as np

from . import jsonio
from .errors import ValidationError
from .rational import (
    P_ONE,
    P_ZERO,
    RF_ONE,
    RF_ZERO,
    RationalFunction,
    parse_rational_function,
)

ORIENTATION_FLAT_SECTIONS = "action-columns; del e = -A^T e; horizontal = solutions"

SCALAR_SCHEMA = "fuchsia-scalar/1"
MATRIX_SCHEMA = "fuchsia-matrix/1"
MODULE_SCHEMA = "fuchsia-module/1"


class RationalMatrix:
    """Square matrix of rational functions with exact field operations."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        rows = []
        for row in entries:
            cells = []
            for cell in row:
                if not isinstance(cell, RationalFunction):
                    raise ValidationError("RationalMatrix entries must be RationalFunction")
                cells.append(cell)
            rows.append(tuple(cells))
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise ValidationError("RationalMatrix must be square and non-empty")
        object.__setattr__(self, "entries", tuple(rows))

    def __setattr__(self, name, value):
        raise AttributeError("RationalMatrix is immutable")

    @property
    def dimension(self) -> int:
        return len(self.entries)

    @staticmethod
    def identity(n: int) -> "RationalMatrix":
        return RationalMatrix(
            [[RF_ONE if i == j else RF_ZERO for j in range(n)] for i in range(n)]
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __add__(self, other):
        if not isinstance(other, RationalMatrix) or other.dimension != self.dimension:
            return NotImplemented
        n = self.dimension
        return RationalMatrix(
            [[self.entries[i][j] + other.entries[i][j] for j in range(n)] for i in range(n)]
        )

    def __sub__(self, other):
        if not isinstance(other, RationalMatrix) or other.dimension != self.dimension:
            return NotImplemented
        n = self.dimension
        return RationalMatrix(
            [[self.entries[i][j] - other.entries[i][j] for j in range(n)] for i in range(n)]
        )

    def __neg__(self):
        return RationalMatrix([[-cell for cell in row] for row in self.entries])

    def __matmul__(self, other):
        """Product whose entries are each summed unreduced and reduced once."""
        if not isinstance(other, RationalMatrix) or other.dimension != self.dimension:
            return NotImplemented
        columns = list(zip(*other.entries))
        return RationalMatrix(
            [[_reduced_sum(_product_terms(row, column)) for column in columns] for row in self.entries]
        )

    def derivative(self) -> "RationalMatrix":
        return RationalMatrix([[cell.derivative() for cell in row] for row in self.entries])

    def inverse(self) -> "RationalMatrix":
        """Exact inverse by fraction-free Gauss-Jordan elimination; raises if singular.

        Row i is cleared of denominators by s_i, the product of its distinct
        denominators, giving a polynomial matrix P = diag(s) M.  Bareiss's
        elimination of [P | I] divides each update exactly by the previous
        pivot, so every entry stays a polynomial, and ends at [d I | R] with
        P^-1 = R / d.  Each entry of M^-1 = P^-1 diag(s) is reduced once.
        """
        n = self.dimension
        scales = []
        work = []
        for i, row in enumerate(self.entries):
            scale, seen = P_ONE, []
            for cell in row:
                if cell.den not in seen:
                    seen.append(cell.den)
                    scale = scale * cell.den
            scales.append(scale)
            cleared = [cell.num * (scale // cell.den) for cell in row]
            work.append(cleared + [P_ONE if i == j else P_ZERO for j in range(n)])
        previous = P_ONE
        for col in range(n):
            pivot_row = next((r for r in range(col, n) if work[r][col]), None)
            if pivot_row is None:
                raise ValidationError("matrix is singular over the rational function field")
            work[col], work[pivot_row] = work[pivot_row], work[col]
            pivot = work[col][col]
            for r in range(n):
                factor = work[r][col]
                if r != col:
                    work[r] = [(pivot * x - factor * y) // previous for x, y in zip(work[r], work[col])]
            previous = pivot
        return RationalMatrix(
            [[RationalFunction(work[i][n + j] * scales[j], previous) for j in range(n)] for i in range(n)]
        )

    def eval_complex(self, z: complex) -> np.ndarray:
        n = self.dimension
        out = np.empty((n, n), dtype=complex)
        for i in range(n):
            for j in range(n):
                out[i, j] = self.entries[i][j].eval_complex(z)
        return out

    def __str__(self) -> str:
        return "[" + "; ".join(", ".join(str(c) for c in row) for row in self.entries) + "]"

    def __repr__(self) -> str:
        return f"RationalMatrix({str(self)!r})"


@dataclass(frozen=True)
class ScalarEquation:
    """Monic scalar ODE y^(n) + a_{n-1} y^(n-1) + ... + a_0 y = 0.

    ``coeffs[k]`` multiplies y^(k), for k = 0 .. n-1.
    """

    coeffs: tuple[RationalFunction, ...]

    def __post_init__(self):
        if not self.coeffs:
            raise ValidationError("a scalar equation needs order at least one")
        for c in self.coeffs:
            if not isinstance(c, RationalFunction):
                raise ValidationError("scalar equation coefficients must be RationalFunction")
        object.__setattr__(self, "coeffs", tuple(self.coeffs))

    @property
    def order(self) -> int:
        return len(self.coeffs)

    def to_dict(self) -> dict:
        return {
            "schema": SCALAR_SCHEMA,
            "order": self.order,
            "coeffs": [str(c) for c in self.coeffs],
        }

    @staticmethod
    def from_dict(data: dict) -> "ScalarEquation":
        order = jsonio.required_field(data, "order", int, "scalar equation")
        coeffs = jsonio.required_field(data, "coeffs", list, "scalar equation")
        eq = ScalarEquation(tuple(parse_rational_function(text) for text in coeffs))
        if order != eq.order:
            raise ValidationError(
                f"declared order {order} does not match {eq.order} coefficients"
            )
        return eq


@dataclass(frozen=True)
class DifferentialModule:
    """Free module with derivation; columns of ``action`` give del(e_i).

    The ``orientation`` string pins the sign convention relating the action
    to system matrices.  Every module has it, and ``from_dict`` rejects any
    other.
    """

    dimension: int
    action: RationalMatrix
    orientation = ORIENTATION_FLAT_SECTIONS

    def __post_init__(self):
        if self.action.dimension != self.dimension:
            raise ValidationError(
                f"module dimension {self.dimension} does not match "
                f"action dimension {self.action.dimension}"
            )

    def to_dict(self) -> dict:
        return {
            "schema": MODULE_SCHEMA,
            "dimension": self.dimension,
            "action": [[str(c) for c in row] for row in self.action.entries],
            "orientation": self.orientation,
        }

    @staticmethod
    def from_dict(data: dict) -> "DifferentialModule":
        dimension = jsonio.required_field(data, "dimension", int, "module")
        action = jsonio.required_field(data, "action", list, "module")
        orientation = jsonio.required_field(data, "orientation", str, "module")
        if orientation != ORIENTATION_FLAT_SECTIONS:
            raise ValidationError(
                f"unknown module orientation {orientation!r}; "
                f"expected {ORIENTATION_FLAT_SECTIONS!r}"
            )
        return DifferentialModule(dimension=dimension, action=rational_matrix_from_strings(action))


def rational_matrix_from_strings(rows) -> RationalMatrix:
    if not all(isinstance(row, list) for row in rows):
        raise ValidationError("matrix rows must be lists of expression strings")
    return RationalMatrix(
        [[parse_rational_function(cell) for cell in row] for row in rows]
    )


def rational_matrix_to_dict(matrix: RationalMatrix) -> dict:
    return {
        "schema": MATRIX_SCHEMA,
        "dimension": matrix.dimension,
        "entries": [[str(c) for c in row] for row in matrix.entries],
    }


def rational_matrix_from_dict(data: dict) -> RationalMatrix:
    dimension = jsonio.required_field(data, "dimension", int, "matrix")
    matrix = rational_matrix_from_strings(jsonio.required_field(data, "entries", list, "matrix"))
    if dimension != matrix.dimension:
        raise ValidationError(
            f"declared dimension {dimension} does not match "
            f"entry shape {matrix.dimension}"
        )
    return matrix


def companion_of_scalar(equation: ScalarEquation) -> RationalMatrix:
    """Companion system of a monic scalar equation.

    The state vector is (y, y', ..., y^(n-1)): ones on the superdiagonal,
    last row (-a_0, ..., -a_{n-1}).
    """
    n = equation.order
    rows = [[RF_ZERO] * n for _ in range(n)]
    for i in range(n - 1):
        rows[i][i + 1] = RF_ONE
    for j in range(n):
        rows[n - 1][j] = -equation.coeffs[j]
    return RationalMatrix(rows)


def module_from_matrix(matrix: RationalMatrix) -> DifferentialModule:
    """Differential module whose horizontal elements solve Y' = matrix Y.

    Writing del(e_i) = sum_j D[j][i] e_j, horizontality of sum y_i e_i
    forces y' = -D y, so D = -matrix.
    """
    return DifferentialModule(dimension=matrix.dimension, action=-matrix)


def matrix_from_module(module: DifferentialModule, basis_change: RationalMatrix | None = None) -> RationalMatrix:
    """System matrix of a module, optionally in a new basis.

    Without a basis change this inverts ``module_from_matrix`` exactly.  A
    basis change B rewrites the system by the gauge action
    B^{-1} A B - B^{-1} B'.
    """
    base = -module.action
    if basis_change is None:
        return base
    return gauge_transform(base, basis_change)


def gauge_transform(matrix: RationalMatrix, basis_change: RationalMatrix) -> RationalMatrix:
    """Gauge action B^{-1} A B - B^{-1} B' of a basis change on Y' = AY.

    If Y solves Y' = AY then B^{-1} Y solves the transformed system.  The
    map is a right action: transforming by B then C equals transforming by
    B C in one step.
    """
    if basis_change.dimension != matrix.dimension:
        raise ValidationError("basis change dimension mismatch")
    try:
        inv = basis_change.inverse()
    except ValidationError:
        raise ValidationError("basis change must be invertible over the field") from None
    columns = list(zip(*basis_change.entries))
    # Each entry of A B - B' is summed unreduced and reduced once; -b' is
    # (n d' - n' d) / d^2 for b = n / d.
    shifted = [
        [
            _reduced_sum(
                _product_terms(row, column)
                + [(b.num * b.den.derivative() - b.num.derivative() * b.den, b.den * b.den)]
            )
            for column, b in zip(columns, b_row)
        ]
        for row, b_row in zip(matrix.entries, basis_change.entries)
    ]
    return inv @ RationalMatrix(shifted)


def _product_terms(row, column) -> list:
    """Unreduced (numerator, denominator) pairs of the nonzero products a b."""
    return [(a.num * b.num, a.den * b.den) for a, b in zip(row, column) if a and b]


def _reduced_sum(terms) -> RationalFunction:
    """Sum of (numerator, denominator) pairs, kept unreduced and reduced once.

    A term over the running denominator adds to the numerator, any other
    nonzero term is cross-multiplied.
    """
    num, den = P_ZERO, P_ONE
    for term_num, term_den in terms:
        if not term_num:
            continue
        if term_den == den:
            num = num + term_num
        else:
            num, den = num * term_den + term_num * den, den * term_den
    return RationalFunction(num, den)


def scalar_solution_transfer(equation: ScalarEquation, samples) -> np.ndarray:
    """Repackage scalar jet samples (y, y', ..., y^(n-1)) as a system vector.

    Pure bookkeeping: the companion system's state vector IS the jet, so no
    numerics happen here beyond a length check.
    """
    values = [complex(v) for v in samples]
    if len(values) != equation.order:
        raise ValidationError(
            f"expected {equation.order} jet samples, got {len(values)}"
        )
    return np.array(values, dtype=complex)

