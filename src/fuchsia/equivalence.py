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

from dataclasses import dataclass, field

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
        out = []
        for row in self.entries:
            cells = []
            for column in columns:
                num, den = P_ZERO, P_ONE
                for a, b in zip(row, column):
                    if not (a and b):
                        continue
                    term_num, term_den = a.num * b.num, a.den * b.den
                    if term_den == den:
                        num = num + term_num
                    else:
                        num, den = num * term_den + term_num * den, den * term_den
                cells.append(RationalFunction(num, den))
            out.append(cells)
        return RationalMatrix(out)

    def derivative(self) -> "RationalMatrix":
        return RationalMatrix([[cell.derivative() for cell in row] for row in self.entries])

    def inverse(self) -> "RationalMatrix":
        """Exact inverse by Gauss-Jordan elimination; raises if singular."""
        n = self.dimension
        work = [list(row) for row in self.entries]
        aug = [[RF_ONE if i == j else RF_ZERO for j in range(n)] for i in range(n)]
        for col in range(n):
            pivot_row = None
            for r in range(col, n):
                if work[r][col]:
                    pivot_row = r
                    break
            if pivot_row is None:
                raise ValidationError("matrix is singular over the rational function field")
            work[col], work[pivot_row] = work[pivot_row], work[col]
            aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
            pivot = work[col][col]
            for j in range(n):
                work[col][j] = work[col][j] / pivot
                aug[col][j] = aug[col][j] / pivot
            for r in range(n):
                if r == col or not work[r][col]:
                    continue
                factor = work[r][col]
                for j in range(n):
                    work[r][j] = work[r][j] - factor * work[col][j]
                    aug[r][j] = aug[r][j] - factor * aug[col][j]
        return RationalMatrix(aug)

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
    to system matrices and is checked on round trips.
    """

    dimension: int
    action: RationalMatrix
    orientation: str = field(default=ORIENTATION_FLAT_SECTIONS)

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
        return DifferentialModule(
            dimension=dimension,
            action=rational_matrix_from_strings(action),
            orientation=orientation,
        )


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
    return DifferentialModule(
        dimension=matrix.dimension,
        action=-matrix,
        orientation=ORIENTATION_FLAT_SECTIONS,
    )


def matrix_from_module(module: DifferentialModule, basis_change: RationalMatrix | None = None) -> RationalMatrix:
    """System matrix of a module, optionally in a new basis.

    Without a basis change this inverts ``module_from_matrix`` exactly.  A
    basis change B rewrites the system by the gauge action
    B^{-1} A B - B^{-1} B'.
    """
    if module.orientation != ORIENTATION_FLAT_SECTIONS:
        raise ValidationError(f"unknown module orientation {module.orientation!r}")
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
    return inv @ (matrix @ basis_change - basis_change.derivative())


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

