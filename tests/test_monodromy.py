"""Monodromy representation and the generator-vs-monodromy theorem check."""

import importlib

import numpy as np
import pytest
import scipy.optimize

from conftest import clustered_pair_system, diagonal_system, generic_system, jordan_block_system
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
    """One stacked Jordan analysis of all 2P matrices, one stacked exponential, one block match per pole."""
    # The package attribute ``fuchsia.monodromy`` is a function, so the modules come from importlib.
    linalg = importlib.import_module("fuchsia.linalg")
    mono = importlib.import_module("fuchsia.monodromy")
    calls = []

    def counting(owner, attr):
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            calls.append((owner, attr, np.shape(args[0]) if attr != "match_blocks" else None))
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, wrapper)

    for owner, attr in (
        (linalg, "jordan_structure"),
        (mono, "jordan_structure"),
        (mono, "matrix_exp"),
        (mono, "eigen_decompose"),
        (linalg.JordanStructure, "match_blocks"),
    ):
        counting(owner, attr)
    system = jordan_block_system()
    verify_theorem(system)
    poles, n = system.pole_count, system.dimension
    assert [(owner, shape) for owner, attr, shape in calls if attr == "jordan_structure"] == [(mono, (2 * poles, n, n))]
    assert [shape for _, attr, shape in calls if attr == "matrix_exp"] == [(poles, n, n)]
    assert not [call for call in calls if call[1] == "eigen_decompose"]
    assert sum(attr == "match_blocks" for _, attr, _ in calls) == poles


def test_verify_tolerance_gates_verdict(rng):
    """An absurdly tight tolerance must flip the verdict, not crash."""
    system, _ = diagonal_system(rng, p=2, n=3)
    report = verify_theorem(system, tol=1e-16, integration_tol=1e-9)
    assert not report.overall


def test_verify_clustered_pair_keeps_step_control():
    """A generic 2x2 system whose poles 2 and 4 sit 1e-3 apart verifies.

    It is a system of the benchmark's clustered class, whose loop circles
    beside the pair are over 1000 times smaller than the others; a hop's term
    count depends only on its length against its pole distance, whatever
    the circle's size.
    """
    system = clustered_pair_system()
    report = verify_theorem(system)
    assert report.overall
    assert report.representation.product_defect <= 1e-6


def test_verify_work_counts_on_the_clustered_pair(monkeypatch):
    """One verify of the clustered pair at integration tolerance 1e-9 makes
    one kernel call with one ``_stop_terms`` block search, at most 5
    ``_chain_groups`` calls and 5 assignments.  Before the stop terms were
    searched once per call, the all-single Jordan structures were returned
    without the merge ladder and the spectrum distance was read off the
    block match, the counts were 2 (one per deviation term), 25 and 10."""
    linalg = importlib.import_module("fuchsia.linalg")
    module = importlib.import_module("fuchsia.monodromy")
    calls = dict.fromkeys(("_integrate_legs", "_stop_terms", "_chain_groups", "min_cost_assignment"), 0)

    def counting(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return counted

    monkeypatch.setattr(linalg, "_chain_groups", counting(linalg, "_chain_groups"))
    assignment = counting(linalg, "min_cost_assignment")
    monkeypatch.setattr(linalg, "min_cost_assignment", assignment)
    monkeypatch.setattr(module, "min_cost_assignment", assignment)
    for name in ("_integrate_legs", "_stop_terms"):
        monkeypatch.setattr(module, name, counting(module, name))
    assert verify_theorem(clustered_pair_system(), integration_tol=1e-9).overall
    assert calls["_integrate_legs"] == 1
    assert calls["_stop_terms"] == 1
    assert calls["_chain_groups"] <= 5
    assert calls["min_cost_assignment"] == 5


@pytest.mark.parametrize("base", [1e16, 1e100])
def test_far_base_point_places_hops_from_the_nearer_end(base):
    """From a base point 1e16 or 1e100 away, a leg ends near the poles 0 and
    1 in hops far shorter than eps times its length.  Each hop point is
    placed from the leg's nearer end, so the loops are continued, and each
    monodromy matrix is its closed form exp(+-2 pi i 0.2) to rounding."""
    b = np.array([[0.2]], dtype=complex)
    system = validate_system([0.0, 1.0], [b, -b])
    rep = monodromy(system, base_point=base)
    expected = np.exp(2j * np.pi * 0.2 * np.array([1.0, -1.0]))
    assert np.max(np.abs(np.array(rep.matrices).reshape(2) - expected)) <= 1e-14
    assert rep.product_defect <= 1e-14
