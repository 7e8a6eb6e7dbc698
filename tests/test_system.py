"""System validation, Levelt data, resonance detection, generators."""

import math
import warnings

import numpy as np
import pytest

from conftest import SEED, diagonal_system, generic_system
from fuchsia.errors import ValidationError
from fuchsia.system import (
    FuchsianSystem,
    ResonanceWarning,
    galois_generators,
    is_non_resonant,
    levelt_data,
    validate_system,
)


def two_pole_system(b1):
    b1 = np.array(b1, dtype=complex)
    return validate_system([0.0, 1.0], [b1, -b1])


def test_validate_accepts_and_freezes():
    system = two_pole_system([[0.25, 0.0], [0.0, -0.1]])
    assert system.dimension == 2
    assert system.pole_count == 2
    assert system.residue_sum_defect == 0.0
    with pytest.raises(ValueError):
        system.residues[0][0, 0] = 99.0


def test_bounds_and_defect_are_the_numpy_two_norms_bit_for_bit():
    """``bounds`` takes each residue's largest singular value from one SVD,
    the LAPACK call of ``np.linalg.norm(.., 2, axis=(1, 2))``, and
    ``validate_system``'s defect the same of the residue sum: bit for bit
    those norms, on random stacks of every size used here."""
    rng = np.random.default_rng(SEED)
    for _ in range(200):
        count, dim = int(rng.integers(2, 7)), int(rng.integers(1, 6))
        free = (rng.normal(size=(count - 1, dim, dim)) + 1j * rng.normal(size=(count - 1, dim, dim))) * 10.0 ** rng.uniform(-6, 1)
        # A last residue off by a little, so the sum's norm is not exactly 0.
        residues = list(free) + [rng.normal(size=(dim, dim)) * 1e-14 - free.sum(axis=0)]
        system = validate_system(range(count), residues)
        assert np.array_equal(system.bounds, np.linalg.norm(np.array(residues), 2, axis=(1, 2)))
        assert system.residue_sum_defect == float(np.linalg.norm(sum(residues), 2))


def test_validate_needs_two_poles():
    with pytest.raises(ValidationError):
        validate_system([1.0], [np.eye(2)])


def test_validate_rejects_duplicate_poles():
    b = np.array([[0.1]])
    with pytest.raises(ValidationError):
        validate_system([1.0, 1.0 + 1e-12], [b, -b])


def test_validate_rejects_nonzero_sum():
    with pytest.raises(ValidationError) as info:
        validate_system([0.0, 1.0], [np.eye(2), np.zeros((2, 2))])
    assert "irregular" in str(info.value)


def test_validate_rejects_shape_mismatch():
    with pytest.raises(ValidationError):
        validate_system([0.0, 1.0], [np.eye(2), -np.eye(3)])


def test_validate_rejects_nonfinite():
    b = np.array([[np.inf]])
    with pytest.raises(ValidationError):
        validate_system([0.0, 1.0], [b, -b])


def test_coefficient_partial_fractions():
    system = two_pole_system([[0.25]])
    z = 3.0 + 1.0j
    expected = 0.25 / (z - 0.0) - 0.25 / (z - 1.0)
    assert abs(system.evaluate(z)[0, 0] - expected) < 1e-15


def test_system_dict_round_trip():
    rng = np.random.default_rng(SEED + 10)
    system = generic_system(rng)
    back = FuchsianSystem.from_dict(system.to_dict())
    assert back.poles == system.poles
    for a, b in zip(back.residues, system.residues):
        assert np.array_equal(a, b)


def test_system_from_dict_rejects_wrong_dimension():
    system = two_pole_system([[0.25]])
    doc = system.to_dict()
    doc["dimension"] = 5
    with pytest.raises(ValidationError):
        FuchsianSystem.from_dict(doc)


def test_levelt_split_is_exact():
    """integer_part + fractional_part must reproduce eigenvalues bitwise."""
    b1 = np.diag([1.75, -0.25 + 0.5j, -2.0 + 0.125j])
    system = validate_system([0.0, 2.0], [b1, -b1])
    data = levelt_data(system)
    for table, residue in zip(data.per_pole, system.residues):
        eigs = sorted(np.diag(residue), key=lambda z: (z.real, z.imag))
        got = sorted(
            (e.eigenvalue for e in table for _ in range(e.multiplicity)),
            key=lambda z: (z.real, z.imag),
        )
        for lam, mu in zip(eigs, got):
            assert lam == mu
        for e in table:
            assert e.integer_part == math.floor(e.eigenvalue.real)
            assert e.integer_part + e.fractional_part == e.eigenvalue
            assert 0.0 <= e.fractional_part.real < 1.0


def test_levelt_ordering():
    b1 = np.diag([0.9, 0.1, 2.1])
    system = validate_system([0.0, 1.0], [b1, -b1])
    table = levelt_data(system).per_pole[0]
    fracs = [e.fractional_part.real for e in table]
    assert fracs == sorted(fracs)


@pytest.mark.parametrize(
    "pair,resonant,integer",
    [
        ((0.5, 1.5), True, 1),
        ((0.3, 0.7), False, None),
        ((0.2, 0.2), False, None),
        ((0.1, 2.1), True, 2),
    ],
)
def test_resonance_classifier(pair, resonant, integer):
    system = two_pole_system(np.diag(pair))
    report = is_non_resonant(system)
    assert report[0].resonant is resonant
    if resonant:
        integers = {abs(k) for _, _, k in report[0].witnesses}
        assert integer in integers
        values = {lam for lam, _, _ in report[0].witnesses}
        assert any(abs(v - pair[0]) < 1e-12 or abs(v - pair[1]) < 1e-12 for v in values)
    else:
        assert report[0].witnesses == ()


def test_resonance_tolerance_window():
    """An integer gap is resonant within DEFAULT_RESONANCE_TOL (1e-8), not beyond."""
    assert is_non_resonant(two_pole_system(np.diag([0.0, 1.0 + 5e-9])))[0].resonant
    assert not is_non_resonant(two_pole_system(np.diag([0.0, 1.0 + 5e-7])))[0].resonant


def test_galois_generators_diagonal_closed_form():
    rng = np.random.default_rng(SEED + 11)
    system, expected = diagonal_system(rng, p=3, n=3)
    gens = galois_generators(system)
    for g, e in zip(gens, expected):
        assert np.linalg.norm(g - e) < 1e-12


def test_galois_generators_warn_on_resonance():
    system = two_pole_system(np.diag([0.5, 1.5]))
    with pytest.warns(ResonanceWarning):
        gens = galois_generators(system)
    assert len(gens) == 2


def test_galois_generators_silent_when_clean(rng):
    system = generic_system(rng)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        galois_generators(system)
