"""Analytic continuation: transfer matrices against closed-form oracles."""

import cmath

import numpy as np
import pytest

from conftest import diagonal_system
from fuchsia.errors import (
    NonFiniteError,
    StepSizeUnderflowError,
    ValidationError,
)
from fuchsia.monodromy import _continue_legs, coefficient_function, continue_solution, transfer_along
from fuchsia.paths import ContinuationPath, Line, build_loops
from fuchsia.system import validate_system


def scalar_two_pole(b: complex):
    """1x1 system with residues +b at 0 and -b at 1; y = z^b (z-1)^(-b)."""
    residues = [np.array([[b]], dtype=complex), np.array([[-b]], dtype=complex)]
    return validate_system([0.0, 1.0], residues)


@pytest.mark.parametrize("b", [0.25, -0.3, 0.1 + 0.2j, 0.5j])
def test_scalar_loop_matches_exponential(b):
    system = scalar_two_pole(b)
    loop = build_loops(system, 3.0 + 0.0j)[0]
    transfer, estimate = continue_solution(system, loop, tol=1e-11)
    expected = cmath.exp(2j * cmath.pi * b)
    assert abs(transfer[0, 0] - expected) < 1e-9
    assert estimate >= 0.0


def test_scalar_loop_other_pole(rng):
    """A loop around the -b pole picks up the reciprocal factor."""
    b = 0.25 - 0.15j
    system = scalar_two_pole(b)
    loop = build_loops(system, 3.0 + 0.0j)[1]
    transfer, _ = continue_solution(system, loop, tol=1e-11)
    expected = cmath.exp(-2j * cmath.pi * b)
    assert abs(transfer[0, 0] - expected) < 1e-9


def test_diagonal_system_loops_match_closed_form(rng):
    system, expected = diagonal_system(rng, p=3, n=3)
    loops = build_loops(system)
    for j, loop in enumerate(loops):
        transfer, _ = continue_solution(system, loop, tol=1e-11)
        assert np.linalg.norm(transfer - expected[j]) < 1e-8


def test_reversed_path_gives_inverse(rng):
    system, _ = diagonal_system(rng, p=2, n=2)
    loop = build_loops(system, complex(3.5))[0]
    forward, _ = continue_solution(system, loop, tol=1e-11)
    backward, _ = continue_solution(system, loop.reversed(), tol=1e-11)
    assert np.linalg.norm(forward @ backward - np.eye(2)) < 1e-8


def test_open_path_endpoints_compose(rng):
    """Continuation along a two-leg polyline equals the product of legs."""
    system, _ = diagonal_system(rng, p=2, n=2)
    mid = 3.0 + 1.5j
    leg1 = ContinuationPath((Line(5.0 + 0.0j, mid),), clearance=1.0)
    leg2 = ContinuationPath((Line(mid, 4.0 - 1.0j),), clearance=1.0)
    both = ContinuationPath(
        (Line(5.0 + 0.0j, mid), Line(mid, 4.0 - 1.0j)), clearance=1.0
    )
    t1, _ = continue_solution(system, leg1, tol=1e-11)
    t2, _ = continue_solution(system, leg2, tol=1e-11)
    t12, _ = continue_solution(system, both, tol=1e-11)
    assert np.linalg.norm(t2 @ t1 - t12) < 1e-8


def test_trivial_path_is_exact_identity():
    system = scalar_two_pole(0.3)
    path = ContinuationPath.trivial(5.0 + 0.0j)
    transfer, estimate = continue_solution(system, path)
    assert np.array_equal(transfer, np.eye(1, dtype=complex))
    assert estimate == 0.0


def test_clearance_audit_rejects_overstated_path():
    system = scalar_two_pole(0.3)
    path = ContinuationPath((Line(2.0 + 0.0j, 0.001 + 0.01j),), clearance=1.0)
    with pytest.raises(ValidationError, match="clearance"):
        continue_solution(system, path)


def test_tolerance_must_be_positive():
    system = scalar_two_pole(0.3)
    path = ContinuationPath((Line(3.0 + 0.0j, 4.0 + 0.0j),), clearance=1.0)
    with pytest.raises(ValidationError):
        continue_solution(system, path, tol=0.0)
    with pytest.raises(ValidationError):
        continue_solution(system, path, tol=-1e-9)


def test_non_finite_rhs_detected():
    rhs = lambda z: np.array([[complex("nan")]])  # noqa: E731
    path = ContinuationPath((Line(0.0, 1.0),), clearance=1.0)
    with pytest.raises(NonFiniteError):
        transfer_along(rhs, path, 1)


def test_step_size_underflow_on_stiff_rhs():
    rhs = lambda z: np.array([[1e16 + 0.0j]])  # noqa: E731
    path = ContinuationPath((Line(0.0, 1.0),), clearance=1.0)
    with pytest.raises(StepSizeUnderflowError):
        transfer_along(rhs, path, 1)


def test_error_estimate_tracks_tolerance():
    """Coarsening the tolerance by 1e4 must not shrink the actual error
    and the estimate stays a nonnegative finite number."""
    system = scalar_two_pole(0.25)
    loop = build_loops(system, 3.0 + 0.0j)[0]
    expected = cmath.exp(2j * cmath.pi * 0.25)
    tight, est_tight = continue_solution(system, loop, tol=1e-12)
    loose, est_loose = continue_solution(system, loop, tol=1e-6)
    assert abs(tight[0, 0] - expected) < 1e-10
    assert abs(loose[0, 0] - expected) < 1e-4
    assert est_tight >= 0.0 and np.isfinite(est_loose)


def collinear_generic_system():
    """Fixed non-commuting 2x2 system on the poles 0, 1, 2.

    From the default base point the loop around pole 0 detours around
    poles 1 and 2, so its approach holds lines and arcs.
    """
    b0 = np.array([[0.1 + 0.05j, 0.2], [-0.1j, -0.15]])
    b1 = np.array([[-0.05, 0.1j], [0.15, 0.2 - 0.1j]])
    return validate_system([0.0, 1.0, 2.0], [b0, b1, -(b0 + b1)])


def test_loop_factorisation_matches_separate_legs():
    """A loop equals T_back @ C @ T_a with each leg continued on its own,
    and a path without the reversed tail is still continued straight."""
    system = collinear_generic_system()
    for loop in build_loops(system):
        half = len(loop.segments) // 2
        legs = [loop.segments[:half], loop.segments[half : half + 1], loop.segments[half + 1 :]]
        t_a, circle, t_back = (
            continue_solution(system, ContinuationPath(leg, clearance=loop.clearance), tol=1e-11)[0]
            for leg in legs
        )
        whole, _ = continue_solution(system, loop, tol=1e-11)
        assert np.linalg.norm(whole - t_back @ circle @ t_a) < 1e-9
        open_path = ContinuationPath(loop.segments[: half + 1], clearance=loop.clearance)
        straight, _ = continue_solution(system, open_path, tol=1e-11)
        assert np.linalg.norm(straight - circle @ t_a) < 1e-9


@pytest.mark.parametrize("columns", [1, 3])
def test_block_start_continues_to_transfer_times_start(columns):
    """Continuing an (N, m) value gives each leg's transfer matrix times it,
    on a loop with detours (two legs) and on its open half (one leg)."""
    system = collinear_generic_system()
    start = np.array([[1.0 + 0.5j, -0.25j, 2.0], [0.5, 1.0, -1.0 + 1.0j]])[:, :columns]
    eye = np.eye(2, dtype=complex)
    loop = build_loops(system)[0]
    open_path = ContinuationPath(loop.segments[: len(loop.segments) // 2 + 1], clearance=loop.clearance)
    for path, count in ((loop, 2), (open_path, 1)):
        transfers, _ = _continue_legs(system, path, eye, 1e-11)
        legs, _ = _continue_legs(system, path, start, 1e-11)
        assert len(legs) == len(transfers) == count
        for leg, transfer in zip(legs, transfers):
            assert leg.shape == (2, columns)
            assert np.linalg.norm(leg - transfer @ start) < 1e-9


def test_evaluator_matches_pointwise_coefficient():
    system = collinear_generic_system()
    points = np.array([3.0, 0.5 + 0.5j, -1.0 - 2.0j, 1.5 - 0.01j, 2.0 + 1e-3j])
    stack = coefficient_function(system)(points)
    assert stack.shape == (len(points), 2, 2)
    for z, a in zip(points, stack):
        expected = system.coefficient(complex(z))
        assert np.max(np.abs(a - expected)) <= 1e-14 * max(1.0, np.max(np.abs(expected)))


@pytest.mark.parametrize("tol", [1e-6, 1e-8, 1e-10])
def test_realised_error_within_tolerance_and_estimate(tol, rng):
    """On closed-form oracles the realised error stays below ``tol`` and
    the reported estimate bounds it."""
    cases = []
    for b in (0.25, 0.1 + 0.2j):
        system = scalar_two_pole(b)
        loop = build_loops(system, 3.0 + 0.0j)[0]
        cases.append((system, loop, np.array([[cmath.exp(2j * cmath.pi * b)]])))
    system, expected = diagonal_system(rng, p=3, n=3)
    cases.extend((system, loop, m) for loop, m in zip(build_loops(system), expected))
    for system, loop, oracle in cases:
        transfer, estimate = continue_solution(system, loop, tol=tol)
        realised = float(np.linalg.norm(transfer - oracle))
        assert realised <= tol
        assert estimate >= realised
