"""Monodromy representation and the generator-vs-monodromy theorem check."""

import importlib

import numpy as np
import pytest
import scipy.optimize

from conftest import diagonal_system, generic_system, jordan_block_system
from fuchsia.linalg import matrix_exp
from fuchsia.monodromy import continue_solution, monodromy, verify_theorem
from fuchsia.paths import LOOP_CONVENTION
from fuchsia.system import TWO_PI_I, validate_system


def spectra_match(a, b, tol):
    """Independent eigenvalue matching by optimal assignment."""
    ea = np.sort_complex(np.linalg.eigvals(a))
    eb = np.sort_complex(np.linalg.eigvals(b))
    cost = np.abs(ea[:, None] - eb[None, :])
    rows, cols = scipy.optimize.linear_sum_assignment(cost)
    return float(cost[rows, cols].max()) <= tol


def test_product_identity_in_composition_order(rng):
    system = generic_system(rng, p=2, n=3)
    rep = monodromy(system, tol=1e-11)
    product = np.eye(2, dtype=complex)
    for index in rep.composition:
        product = rep.matrices[index] @ product
    defect = float(np.linalg.norm(product - np.eye(2)))
    assert defect < 1e-7
    assert rep.product_defect == defect


def test_representation_bookkeeping(rng):
    system = generic_system(rng, p=2, n=4)
    rep = monodromy(system)
    assert rep.convention == LOOP_CONVENTION
    assert sorted(rep.composition) == list(range(4))
    assert rep.dimension == 2
    assert len(rep.matrices) == len(rep.loops) == len(rep.error_estimates) == 4
    assert all(est >= 0.0 for est in rep.error_estimates)
    assert not rep.matrices[0].flags.writeable


def test_reversed_loop_gives_inverse_matrix(rng):
    system = generic_system(rng, p=2, n=3)
    rep = monodromy(system, tol=1e-11)
    j = 1
    back, _ = continue_solution(system, rep.loops[j].reversed(), tol=1e-11)
    assert np.linalg.norm(rep.matrices[j] @ back - np.eye(2)) < 1e-8


def test_spectra_independent_of_base_point(rng):
    system = generic_system(rng, p=2, n=3)
    rep_a = monodromy(system, tol=1e-11)
    rep_b = monodromy(system, tol=1e-11, base_point=3.0j)
    for j in range(3):
        assert spectra_match(rep_a.matrices[j], rep_b.matrices[j], 1e-7)


def test_diagonal_monodromy_equals_closed_form(rng):
    system, expected = diagonal_system(rng, p=3, n=3)
    rep = monodromy(system, tol=1e-11)
    for j in range(3):
        assert np.linalg.norm(rep.matrices[j] - expected[j]) < 1e-8


def test_verify_theorem_commuting(rng):
    system, _ = diagonal_system(rng, p=2, n=3)
    report = verify_theorem(system)
    assert report.overall
    assert report.all_non_resonant
    for v in report.verdicts:
        assert v.ok and v.spectrum_match and v.structure_match
        assert v.spectrum_distance < 1e-7
        assert v.conjugator is not None
        assert v.conjugator_residual is not None


def test_verify_theorem_generic(rng):
    system = generic_system(rng, p=2, n=3)
    report = verify_theorem(system)
    assert report.overall and report.all_non_resonant
    for j, v in enumerate(report.verdicts):
        generator = matrix_exp(TWO_PI_I * system.residues[j])
        observed = report.representation.matrices[j]
        s = v.conjugator
        assert np.linalg.norm(s @ generator - observed @ s) < 1e-5


def test_resonant_pole_reported_but_excluded():
    """Integer eigenvalue spacing breaks the theorem at that pole only.

    The resonant residue here has eigenvalues 0 and 1, so its exponential
    generator is exactly the identity, while the actual monodromy is a
    nontrivial unipotent matrix; the other two poles satisfy the hypothesis
    and must still verify.

    The coupling must sit below the diagonal: it feeds the exponent-0
    solution into the exponent-1 equation, which is the direction where the
    logarithmic obstruction survives (the transpose coupling cancels
    identically because the exponent-1 solution vanishes at the pole).
    """
    poles = [0.0, 1.0, -1.0]
    b0 = np.array([[0.0, 0.0], [1.0, 1.0]], dtype=complex)
    b1 = np.diag([0.1, 0.3]).astype(complex)
    residues = [b0, b1, -(b0 + b1)]
    system = validate_system(poles, residues)
    report = verify_theorem(system)
    assert not report.all_non_resonant
    assert [v.non_resonant for v in report.verdicts] == [False, True, True]
    assert report.overall

    m0 = report.representation.matrices[0]
    generator = matrix_exp(TWO_PI_I * b0)
    assert np.linalg.norm(generator - np.eye(2)) < 1e-10
    assert np.linalg.norm(m0 - np.eye(2)) > 1e-3
    assert not report.verdicts[0].ok
    assert report.overall == all(
        v.ok for v in report.verdicts if v.non_resonant
    )


def test_verify_theorem_defective_residue():
    """A 2x2 Jordan block residue verifies: its spectrum is the cluster mean, not single eigenvalues."""
    report = verify_theorem(jordan_block_system())
    assert report.overall and report.all_non_resonant
    for v in report.verdicts:
        assert v.ok and v.structure_match
        assert v.spectrum_distance <= 1e-9


def test_verify_analyses_each_matrix_once(monkeypatch):
    """Per pole: one Jordan analysis of each matrix, one block match, no separate eigenvalue clustering."""
    # The package attribute ``fuchsia.monodromy`` is a function, so the modules come from importlib.
    linalg = importlib.import_module("fuchsia.linalg")
    mono = importlib.import_module("fuchsia.monodromy")
    calls = []

    def counting(owner, attr):
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            calls.append((owner, attr))
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, wrapper)

    for owner, attr in (
        (linalg, "jordan_structure"),
        (mono, "jordan_structure"),
        (mono, "eigen_decompose"),
        (linalg.JordanStructure, "match_blocks"),
    ):
        counting(owner, attr)
    system = jordan_block_system()
    verify_theorem(system)
    poles = system.pole_count
    assert sum(attr == "jordan_structure" for _, attr in calls) == 2 * poles
    assert calls.count((mono, "eigen_decompose")) == 0
    assert calls.count((linalg.JordanStructure, "match_blocks")) == poles


def test_verify_tolerance_gates_verdict(rng):
    """An absurdly tight tolerance must flip the verdict, not crash."""
    system, _ = diagonal_system(rng, p=2, n=3)
    report = verify_theorem(system, tol=1e-16, integration_tol=1e-9)
    assert not report.overall
