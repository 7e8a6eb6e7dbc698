"""Fuchsian first-order systems on the Riemann sphere.

A system is dY/dz = A(z) Y with A(z) = sum_i B_i / (z - a_i), poles a_i
distinct and residue matrices B_i summing to zero so that infinity is a
regular point.  This module owns validation, the local Levelt exponent data
at each pole, integer-resonance detection, and the map from residues to the
exponential generators exp(2 pi i B_j).
"""

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import jsonio
from .errors import ValidationError
from .linalg import as_square_matrix, eigen_decompose, matrix_exp

DEFAULT_RESIDUE_SUM_TOL = 1e-12
DEFAULT_RESONANCE_TOL = 1e-8
DEFAULT_POLE_SEPARATION = 1e-9

TWO_PI_I = 2j * math.pi


class ResonanceWarning(UserWarning):
    """Emitted when generators are requested for a resonant system."""


@dataclass(frozen=True)
class FuchsianSystem:
    """Validated Fuchsian system: distinct poles, residues summing to zero.

    Instances are immutable; the residue arrays are write-protected views.
    Build one with ``validate_system`` or ``FuchsianSystem.from_dict``.
    """

    poles: tuple[complex, ...]
    residues: tuple[np.ndarray, ...]
    dimension: int
    residue_sum_defect: float

    @property
    def pole_count(self) -> int:
        return len(self.poles)

    @cached_property
    def _partial_fractions(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The poles, the (P, n, n) residues, and [B_1 ... B_P] as one (n, P n) matrix."""
        poles = np.array(self.poles, dtype=complex)
        # Stored (n, P, n), so the residues and [B_1 ... B_P] are both views.
        stacked = np.array(self.residues, dtype=complex).transpose(1, 0, 2).copy()
        stacked.flags.writeable = False
        return poles, stacked.transpose(1, 0, 2), stacked.reshape(self.dimension, -1)

    def weights(self, z) -> np.ndarray:
        """The partial-fraction weights w = 1 / (z - a_p), with A(z_i) = sum_p w[i, p] B_p.

        At a point or an array of points z, w has one more axis than z,
        over the P poles.  No pole check: this is the continuation's hot
        path, and its paths are audited against the poles beforehand.
        """
        return 1.0 / (np.asarray(z)[..., None] - self._partial_fractions[0])

    def evaluate(self, z) -> np.ndarray:
        """A(z) = sum_i B_i / (z - a_i) at a point or a 1-D array of points.

        A point gives an (n, n) matrix and m points an (m, n, n) stack,
        ``weights`` @ the (P, n, n) stack of residues.
        """
        return np.tensordot(self.weights(z), self._partial_fractions[1], axes=1)

    # The system as a field of ``monodromy._integrate_legs``: besides
    # ``weights`` and ``dimension``, its operator ``apply``, its norm bounds
    # ``bounds`` and its row order ``rows``, the block order itself.
    rows = slice(None)

    @cached_property
    def bounds(self) -> np.ndarray:
        """(P,) |B_p|_2, the residues' spectral norms: each largest singular value, in one SVD.

        It is the LAPACK call ``np.linalg.norm(.., 2, axis=(1, 2))`` makes,
        without the reshaping and reduction around it, so bit for bit its value.
        """
        return np.linalg.svd(self._partial_fractions[1], compute_uv=False)[:, 0]

    def apply(self, k: int, stack: np.ndarray, out: np.ndarray) -> None:
        """Write sum_p B_p stack[p] / k into ``out``, the k-th term of a Taylor recurrence.

        ``stack`` is (P, R, ...) and ``out`` (R, ...) with R a multiple of
        n whose rows run (row of an n x n block, anything else): the sum is
        one (n, P n) @ (P n, rest) product of [B_1 ... B_P] / k with the
        stack viewed as (P n, rest), and the stacks are not copied.
        """
        operator = self._partial_fractions[2]
        np.matmul(operator / k, stack.reshape(operator.shape[1], -1), out=out.reshape(self.dimension, -1))

    def to_dict(self) -> dict:
        return {
            "schema": jsonio.SYSTEM_SCHEMA,
            "dimension": self.dimension,
            "poles": [jsonio.complex_to_pair(a) for a in self.poles],
            "residues": [jsonio.matrix_to_pairs(b) for b in self.residues],
        }

    @staticmethod
    def from_dict(data: dict) -> "FuchsianSystem":
        dimension = jsonio.required_field(data, "dimension", int, "system")
        poles = jsonio.required_field(data, "poles", list, "system")
        residues = jsonio.required_field(data, "residues", list, "system")
        system = validate_system(
            [jsonio.pair_to_complex(p) for p in poles],
            [jsonio.pairs_to_matrix(r) for r in residues],
        )
        if dimension != system.dimension:
            raise ValidationError(
                f"declared dimension {dimension} does not match "
                f"residue shape {system.dimension}"
            )
        return system


def validate_poles(poles) -> list[complex]:
    """Poles as complex numbers, checked as the poles of a Fuchsian system.

    Rejects fewer than two poles, non-finite poles, and two poles within
    ``DEFAULT_POLE_SEPARATION`` of each other.
    """
    pole_list = [complex(a) for a in poles]
    if len(pole_list) < 2:
        raise ValidationError("a Fuchsian system needs at least two poles")
    for a in pole_list:
        if not (math.isfinite(a.real) and math.isfinite(a.imag)):
            raise ValidationError("poles must be finite complex numbers")
    for i in range(len(pole_list)):
        for j in range(i + 1, len(pole_list)):
            if abs(pole_list[i] - pole_list[j]) <= DEFAULT_POLE_SEPARATION:
                raise ValidationError(
                    f"poles {i} and {j} coincide: {pole_list[i]} vs {pole_list[j]}"
                )
    return pole_list


def _validate_pole_matrices(poles, matrices, kind: str) -> tuple[list[complex], list[np.ndarray]]:
    """The poles of ``validate_poles`` and a read-only square copy of each of ``matrices``, one per pole.

    Rejects a count other than one matrix per pole, a matrix that is not
    square or has non-finite entries, and matrices of different sizes.
    ``kind`` names the matrices in the messages: "residue", "target".
    """
    pole_list = validate_poles(poles)
    if len(matrices) != len(pole_list):
        raise ValidationError(f"{len(pole_list)} poles but {len(matrices)} {kind} matrices")
    mats = [as_square_matrix(m, f"{kind} {i}") for i, m in enumerate(matrices)]
    dim = mats[0].shape[0]
    for i, m in enumerate(mats):
        if m.shape[0] != dim:
            raise ValidationError(f"{kind} {i} has dimension {m.shape[0]}, expected {dim}")
        m.flags.writeable = False
    return pole_list, mats


def validate_system(poles, residues) -> FuchsianSystem:
    """Validate raw pole and residue data and build a ``FuchsianSystem``.

    Checks the poles and residues with ``_validate_pole_matrices``, shared
    with ``inverse.validate_instance``, and rejects residue sums with norm
    above ``DEFAULT_RESIDUE_SUM_TOL``.
    """
    pole_list, mats = _validate_pole_matrices(poles, residues, "residue")
    defect = float(np.linalg.svd(sum(mats), compute_uv=False)[0])  # |sum|_2, as ``bounds`` takes it
    if defect > DEFAULT_RESIDUE_SUM_TOL:
        raise ValidationError(
            f"residues sum to a matrix of norm {defect:.3e} "
            f"(limit {DEFAULT_RESIDUE_SUM_TOL:g}); "
            "infinity would be an irregular point"
        )
    return FuchsianSystem(
        poles=tuple(pole_list),
        residues=tuple(mats),
        dimension=mats[0].shape[0],
        residue_sum_defect=defect,
    )


@dataclass(frozen=True)
class LeveltExponent:
    """One local exponent lambda = integer_part + fractional_part.

    The split is exact: ``integer_part`` is floor(Re lambda), so the
    fractional part phi satisfies 0 <= Re phi < 1 and
    integer_part + fractional_part reproduces the eigenvalue bit for bit.
    """

    eigenvalue: complex
    integer_part: int
    fractional_part: complex
    multiplicity: int


@dataclass(frozen=True)
class LeveltData:
    """Levelt exponent tables, one tuple of exponents per pole."""

    per_pole: tuple[tuple[LeveltExponent, ...], ...]


def levelt_data(system: FuchsianSystem) -> LeveltData:
    """Levelt local data at every pole of ``system``.

    Eigenvalues of each residue are clustered at absolute distance 1e-10
    and each is split as lambda = rho + phi with rho = floor(Re lambda).
    Exponents are ordered by (Re phi, Im phi, rho).
    """
    tables = []
    for clusters in eigen_decompose(np.array(system.residues), 1e-10):
        entries = []
        for lam, mult in clusters:
            rho = math.floor(lam.real)
            phi = lam - rho
            entries.append(
                LeveltExponent(
                    eigenvalue=lam,
                    integer_part=rho,
                    fractional_part=phi,
                    multiplicity=mult,
                )
            )
        entries.sort(
            key=lambda e: (e.fractional_part.real, e.fractional_part.imag, e.integer_part)
        )
        tables.append(tuple(entries))
    return LeveltData(per_pole=tuple(tables))


@dataclass(frozen=True)
class PoleResonance:
    """Resonance verdict for one pole, with witnessing eigenvalue pairs."""

    pole_index: int
    resonant: bool
    witnesses: tuple[tuple[complex, complex, int], ...]


def is_non_resonant(system: FuchsianSystem):
    """Per-pole resonance report.

    A pole is resonant when two eigenvalues of its residue differ by a
    nonzero integer within ``DEFAULT_RESONANCE_TOL``.  Returns a list of
    ``PoleResonance`` records; the system is non-resonant when none of them
    is resonant.
    """
    report = []
    for j, eigs in enumerate(eigen_decompose(np.array(system.residues), DEFAULT_RESONANCE_TOL)):
        witnesses = []
        for i in range(len(eigs)):
            for k in range(len(eigs)):
                if i == k:
                    continue
                diff = eigs[i][0] - eigs[k][0]
                nearest = round(diff.real)
                if nearest == 0:
                    continue
                if abs(diff - nearest) <= DEFAULT_RESONANCE_TOL:
                    witnesses.append((eigs[i][0], eigs[k][0], int(nearest)))
        report.append(
            PoleResonance(
                pole_index=j,
                resonant=bool(witnesses),
                witnesses=tuple(witnesses),
            )
        )
    return report


def galois_generators(system: FuchsianSystem):
    """Generators exp(2 pi i B_j), one per pole.

    For a non-resonant system these generate the differential Galois group
    (as an algebraic group, together with closure).  A resonant system still
    yields the matrices but triggers a ``ResonanceWarning``, since the
    generation statement is only guaranteed under non-resonance.
    """
    report = is_non_resonant(system)
    bad = [entry.pole_index for entry in report if entry.resonant]
    if bad:
        warnings.warn(
            f"system is resonant at pole index(es) {bad}; the exponential "
            "generators may not generate the differential Galois group",
            ResonanceWarning,
            stacklevel=2,
        )
    return list(matrix_exp(TWO_PI_I * np.array(system.residues)))

