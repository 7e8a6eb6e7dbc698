"""Analytic continuation: transfer matrices against closed-form oracles."""

import cmath
import importlib
import math
import time

import numpy as np
import pytest

from conftest import clustered_pair_system, dense_variational_residues, diagonal_system, reference_transfer
from fuchsia.errors import NonFiniteError, ValidationError
from fuchsia.inverse import _SENSITIVITY_SCALE
from fuchsia.monodromy import (
    _cut_paths,
    _integrate_legs,
    _stop_terms,
    coefficient_function,
    continue_solution,
    monodromy,
)
from fuchsia.paths import Arc, ContinuationPath, Line, build_loops, default_base_point
from fuchsia.system import FuchsianSystem, validate_system


def continue_paths(system, paths, columns, tol):
    """The kernel's value and estimate for each of ``paths``, cut against the
    system's poles, continuing the first ``columns`` columns of the identity."""
    return _integrate_legs(system, _cut_paths(system.poles, paths), columns, tol)


def scalar_two_pole(b: complex):
    """1x1 system with residues +b at 0 and -b at 1; y = z^b (z-1)^(-b)."""
    residues = [np.array([[b]], dtype=complex), np.array([[-b]], dtype=complex)]
    return validate_system([0.0, 1.0], residues)


@pytest.mark.parametrize("b", [0.25, -0.3, 0.1 + 0.2j, 0.5j])
def test_scalar_loop_matches_exponential(b):
    system = scalar_two_pole(b)
    loop = build_loops(system.poles, 3.0 + 0.0j)[0]
    transfer, estimate = continue_solution(system, loop, tol=1e-11)
    expected = cmath.exp(2j * cmath.pi * b)
    assert abs(transfer[0, 0] - expected) < 1e-9
    assert estimate >= 0.0


def test_scalar_loop_other_pole(rng):
    """A loop around the -b pole picks up the reciprocal factor."""
    b = 0.25 - 0.15j
    system = scalar_two_pole(b)
    loop = build_loops(system.poles, 3.0 + 0.0j)[1]
    transfer, _ = continue_solution(system, loop, tol=1e-11)
    expected = cmath.exp(-2j * cmath.pi * b)
    assert abs(transfer[0, 0] - expected) < 1e-9


def test_diagonal_system_loops_match_closed_form(rng):
    system, expected = diagonal_system(rng, p=3, n=3)
    loops = build_loops(system.poles, default_base_point(system.poles))
    for j, loop in enumerate(loops):
        transfer, _ = continue_solution(system, loop, tol=1e-11)
        assert np.linalg.norm(transfer - expected[j]) < 1e-8


def test_reversed_path_gives_inverse(rng):
    system, _ = diagonal_system(rng, p=2, n=2)
    loop = build_loops(system.poles, complex(3.5))[0]
    forward, _ = continue_solution(system, loop, tol=1e-11)
    backward, _ = continue_solution(system, loop.reversed(), tol=1e-11)
    assert np.linalg.norm(forward @ backward - np.eye(2)) < 1e-8


def test_open_path_endpoints_compose(rng):
    """Continuation along a two-leg polyline equals the product of legs."""
    system, _ = diagonal_system(rng, p=2, n=2)
    mid = 3.0 + 1.5j
    leg1 = ContinuationPath((Line(5.0 + 0.0j, mid),))
    leg2 = ContinuationPath((Line(mid, 4.0 - 1.0j),))
    both = ContinuationPath((Line(5.0 + 0.0j, mid), Line(mid, 4.0 - 1.0j)))
    t1, _ = continue_solution(system, leg1, tol=1e-11)
    t2, _ = continue_solution(system, leg2, tol=1e-11)
    t12, _ = continue_solution(system, both, tol=1e-11)
    assert np.linalg.norm(t2 @ t1 - t12) < 1e-8


def test_path_near_a_pole_is_continued_correctly():
    """A line that ends 0.01 from a pole is continued: its hops shrink toward the pole,
    and the transfer matches the closed form y = z^b (z - 1)^(-b) within
    its estimate, which is within the tolerance.  Both logs are continuous
    along this segment, which crosses neither branch cut."""
    b = 0.3
    system = scalar_two_pole(b)
    start, end = 2.0 + 0.0j, 0.001 + 0.01j
    transfer, estimate = continue_solution(system, ContinuationPath((Line(start, end),)))
    exact = cmath.exp(b * (cmath.log(end) - cmath.log(start)) - b * (cmath.log(end - 1.0) - cmath.log(start - 1.0)))
    assert abs(transfer[0, 0] - exact) <= estimate <= 1e-9


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_clearance_audit_rejects_a_nan_distance():
    """A line whose hop points' difference from a far pole overflows is
    rejected by ``paths.hops`` as invalid input (exit 2), instead of being
    passed to the kernel, whose overflow would read as a numerical failure,
    and no numpy warning comes first."""
    residues = [np.array([[0.3]], dtype=complex), np.array([[-0.3]], dtype=complex)]
    system = validate_system([0.0, complex(1e308, -1e308)], residues)
    path = ContinuationPath((Line(complex(-1e308, 1e308), complex(-7e307, 1.4e308)),))
    with pytest.raises(ValidationError, match="difference from a pole overflows"):
        continue_solution(system, path)


def test_tolerance_must_be_positive():
    system = scalar_two_pole(0.3)
    path = ContinuationPath((Line(3.0 + 0.0j, 4.0 + 0.0j),))
    with pytest.raises(ValidationError):
        continue_solution(system, path, tol=0.0)
    with pytest.raises(ValidationError):
        continue_solution(system, path, tol=-1e-9)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_majorant_fails_at_once():
    """Residues of norm 1e16 overflow the hops' majorant within a few
    dozen terms: the call raises at once instead of running on, and
    the overflow shows as the error alone, with no numpy warning."""
    system = validate_system([0.0, 1.0], [np.array([[1e16 + 0j]]), np.array([[-1e16 + 0j]])])
    loop = build_loops(system.poles, 3.0 + 0.0j)[0]
    began = time.perf_counter()
    with pytest.raises(NonFiniteError):
        continue_solution(system, loop)
    assert time.perf_counter() - began < 1.0


def test_zero_residues_give_the_identity():
    """With every residue zero every hop's majorant tail is 0 after one
    term, so each loop stops there, with the identity."""
    system = validate_system([0.0, 1.0, 2.0j], [np.zeros((2, 2))] * 3)
    for matrix in monodromy(system).matrices:
        assert np.array_equal(matrix, np.eye(2))


@pytest.mark.parametrize("r", [5, 10, 20, 30, 50])
def test_estimates_bound_the_error_on_large_residues(r):
    """Scalar residues +r at 0 and -r at 1, so each loop's exact monodromy is
    exp(2 pi i r_j).  From r of about 15 the hops' majorant products grow
    and the estimates exceed ``tol``, but they stay bounds on the error:
    at r = 50 the errors are about 0.3 and 0.8, the estimates 1e6 and more."""
    system = validate_system([0.0, 1.0], [np.array([[r + 0j]]), np.array([[-r + 0j]])])
    rep = monodromy(system, 1e-9)
    for matrix, estimate, b in zip(rep.matrices, rep.error_estimates, (r, -r), strict=True):
        assert abs(matrix[0, 0] - cmath.exp(2j * cmath.pi * b)) <= estimate


def test_majorant_terms_sum_to_the_majorant_product():
    """The rounding model's W reads each hop's majorant product
    prod_p (1 - |g_p|)^-b_p as the sum of all of its majorant terms.  On
    200 seeded draws of |g_p| <= 1/2 and b_p in [0, 2], the kernel's
    recurrence M_{p,k} = |g_p| (m_k + M_{p,k-1}),
    m_{k+1} = sum_p b_p M_{p,k} / (k + 1), m_0 = 1, has partial sums that
    never pass the product and that reach it by term 400."""
    rng = np.random.default_rng(36)
    size = 0.5 * rng.random((200, 6))
    norms = 2.0 * rng.random((200, 6)) * (np.arange(6) < rng.integers(1, 7, (200, 1)))  # 1 to 6 poles
    product = np.exp(-(norms * np.log1p(-size)).sum(axis=1))
    bound, partial, total = np.ones(200), np.zeros((200, 6)), np.ones(200)
    for k in range(400):
        partial += bound[:, None]
        partial *= size
        bound = (norms / (k + 1) * partial).sum(axis=1)
        total += bound
        assert np.all(total <= product * (1.0 + 1e-14))
    assert np.all(total >= product * (1.0 - 1e-13))


def test_error_estimate_tracks_tolerance():
    """Coarsening the tolerance by 1e4 must not shrink the actual error
    and the estimate stays a nonnegative finite number."""
    system = scalar_two_pole(0.25)
    loop = build_loops(system.poles, 3.0 + 0.0j)[0]
    expected = cmath.exp(2j * cmath.pi * 0.25)
    tight, est_tight = continue_solution(system, loop, tol=1e-12)
    loose, est_loose = continue_solution(system, loop, tol=1e-6)
    assert abs(tight[0, 0] - expected) < 1e-10
    assert abs(loose[0, 0] - expected) < 1e-4
    assert est_tight >= 0.0 and np.isfinite(est_loose)


def collinear_generic_system():
    """Fixed non-commuting 2x2 system on the poles 0, 1, 2.

    From the default base point, in line with the poles, each loop's
    approach holds three lines: onto the comb's line, along it, and down
    the tooth.
    """
    b0 = np.array([[0.1 + 0.05j, 0.2], [-0.1j, -0.15]])
    b1 = np.array([[-0.05, 0.1j], [0.15, 0.2 - 0.1j]])
    return validate_system([0.0, 1.0, 2.0], [b0, b1, -(b0 + b1)])


def test_loop_factorisation_matches_separate_legs():
    """A loop equals T_back @ C @ T_a with each leg continued on its own,
    and a path without the reversed tail is still continued straight."""
    system = collinear_generic_system()
    for loop in build_loops(system.poles, default_base_point(system.poles)):
        half = len(loop.segments) // 2
        legs = [loop.segments[:half], loop.segments[half : half + 1], loop.segments[half + 1 :]]
        t_a, circle, t_back = (
            continue_solution(system, ContinuationPath(leg), tol=1e-11)[0]
            for leg in legs
        )
        whole, _ = continue_solution(system, loop, tol=1e-11)
        assert np.linalg.norm(whole - t_back @ circle @ t_a) < 1e-9
        open_path = ContinuationPath(loop.segments[: half + 1])
        straight, _ = continue_solution(system, open_path, tol=1e-11)
        assert np.linalg.norm(straight - circle @ t_a) < 1e-9


@pytest.mark.parametrize("columns", [1, 3])
def test_block_start_continues_to_transfer_times_start(columns):
    """The start [I_m; 0] continues to the first block column of each path's
    transfer, on the variational system of an m x m system on the poles 0
    and 1 from the base point 2: on the loop around 0, whose approach is
    three lines of the comb (two legs: approach and circle), and on its
    open half (one leg).  On the loop the column's lower blocks come from
    T^-1 (S_C T + C S_T - S_T M) and are checked against the full transfer
    T^-1 C T.  The sensitivity blocks ride at ``_SENSITIVITY_SCALE``, so
    they are also compared with that scale divided out."""
    rng = np.random.default_rng(columns)
    b = 0.1 * (rng.standard_normal((columns, columns)) + 1j * rng.standard_normal((columns, columns)))
    system = validate_system([0.0, 1.0], dense_variational_residues([b, -b], _SENSITIVITY_SCALE))
    assert system.dimension == (columns * columns + 1) * columns
    loop = build_loops(system.poles, 2.0 + 0.0j)[0]
    assert [type(seg) for seg in loop.segments[: len(loop.segments) // 2]] == [Line] * 3
    open_path = ContinuationPath(loop.segments[: len(loop.segments) // 2 + 1])
    assert [len(legs) for legs in _cut_paths(system.poles, (loop, open_path))] == [2, 1]
    for path in (loop, open_path):
        [(transfer, _)] = continue_paths(system, (path,), system.dimension, 1e-11)
        [(column, _)] = continue_paths(system, (path,), columns, 1e-11)
        assert column.shape == (system.dimension, columns)
        assert np.linalg.norm(column - transfer[:, :columns]) < 1e-9
        sensitivities = (column - transfer[:, :columns])[columns:] / _SENSITIVITY_SCALE
        assert np.linalg.norm(sensitivities) < 1e-6


def five_pole_generic_system(dimension=2):
    """Fixed non-commuting system on 0, 1, 2, 3 and 1.5 + 1.5i.

    The 2x2 residues are written out; the 3x3 ones are a seeded draw.  From
    the default base point each loop's approach holds the three lines of
    the comb, each around a full circle.
    """
    if dimension == 2:
        residues = [
            np.array([[0.1 + 0.05j, 0.2], [-0.1j, -0.15]]),
            np.array([[-0.05, 0.1j], [0.15, 0.2 - 0.1j]]),
            np.array([[0.12, -0.08], [0.05j, 0.02]]),
            np.array([[-0.1j, 0.05], [0.1, 0.07 + 0.03j]]),
        ]
    else:
        rng = np.random.default_rng(dimension)
        shape = (4, dimension, dimension)
        residues = list(0.1 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)))
    residues.append(-sum(residues))
    return validate_system([0.0, 1.0, 2.0, 3.0, 1.5 + 1.5j], residues)


@pytest.mark.parametrize("columns", [2, 3])
def test_batch_equals_each_path_alone(columns):
    """Every path continued in one batch has the transfer it has continued alone.

    The batch holds the five loops (approaches of three lines and full
    circles, each path at its own rate, split into hops)
    and a short line that finishes long before the others; the start is
    the identity of the 2x2 or the 3x3 system.
    """
    system = five_pole_generic_system(columns)
    loops = build_loops(system.poles, default_base_point(system.poles))
    assert [len(loop.segments) // 2 for loop in loops] == [3] * 5
    assert {type(seg) for loop in loops for seg in loop.segments} == {Line, Arc}
    short = ContinuationPath((Line(5.0 + 0.0j, 5.0 + 0.1j),))
    paths = loops + [short]
    assert [len(legs) for legs in _cut_paths(system.poles, paths)] == [2] * len(loops) + [1]
    batch = continue_paths(system, paths, columns, 1e-9)
    for path, (transfer, estimate) in zip(paths, batch, strict=True):
        [(alone, alone_estimate)] = continue_paths(system, (path,), columns, 1e-9)
        assert transfer.shape == (columns, columns)
        assert np.max(np.abs(transfer - alone)) <= 1e-10
        assert estimate == pytest.approx(alone_estimate, rel=1e-6)


@pytest.mark.parametrize("tol", [1e-2, 1e-4])
@pytest.mark.parametrize("columns", [2, 3])
def test_path_that_meets_tol_early_runs_to_the_last_deviation_point(columns, tol):
    """At a loose ``tol`` the short line's bound can meet ``tol`` before the
    loops pass their deviation points; it then runs on with the batch, so
    its estimate is no larger than alone.  Every path's realised error,
    against the same batch at 1e-13, stays within its estimate and the
    estimate within ``tol``; each loop keeps its value and estimate alone."""
    system = five_pole_generic_system(columns)
    loops = build_loops(system.poles, default_base_point(system.poles))
    short = ContinuationPath((Line(5.0 + 0.0j, 5.0 + 0.1j),))
    paths = loops + [short]
    batch = continue_paths(system, paths, columns, tol)
    reference = continue_paths(system, paths, columns, 1e-13)
    for (transfer, estimate), (exact, _) in zip(batch, reference, strict=True):
        assert np.linalg.norm(transfer - exact, 2) <= estimate <= tol
    for path, (transfer, estimate) in zip(loops, batch):
        [(alone, alone_estimate)] = continue_paths(system, (path,), columns, tol)
        assert np.max(np.abs(transfer - alone)) <= 1e-10
        assert estimate == pytest.approx(alone_estimate, rel=1e-6)
    [(_, alone_estimate)] = continue_paths(system, (short,), columns, tol)
    assert batch[-1][1] <= alone_estimate * (1.0 + 1e-12)


@pytest.mark.parametrize("tol", [1e-1, 1e-2, 1e-4, 1e-6, 1e-9, 1e-12])
def test_monodromy_loops_equal_each_loop_alone(tol):
    """The loops of one ``monodromy`` batch pass ``tol`` after their last
    deviation point, so each has the matrix and estimate of
    ``continue_solution`` on that loop alone, at loose and tight ``tol``."""
    for system in (five_pole_generic_system(2), clustered_pair_system()):
        rep = monodromy(system, tol)
        for loop, matrix, estimate in zip(rep.loops, rep.matrices, rep.error_estimates, strict=True):
            alone, alone_estimate = continue_solution(system, loop, tol)
            assert np.max(np.abs(matrix - alone)) <= 1e-12
            assert estimate == pytest.approx(alone_estimate, rel=1e-9)


def test_monodromy_evaluator_calls(monkeypatch):
    """All hops of all loops are the columns of one batch, so monodromy
    asks the field once, for every hop start together.  The clustered pair
    returns down to tol 1e-14, every loop matrix within 1e-10 of its 1e-12
    value.  The count raises once it passes one call, so a kernel that
    calls the field per step fails at once instead of running on."""
    calls = []

    def counting(system):
        evaluate = coefficient_function(system)

        def counted(points):
            calls.append(len(points))
            if len(calls) > 1:
                raise AssertionError("more than one evaluator call")
            return evaluate(points)

        return counted

    # The package attribute ``fuchsia.monodromy`` is a function, so the module comes from importlib.
    monkeypatch.setattr(importlib.import_module("fuchsia.monodromy"), "coefficient_function", counting)
    matrices = {}
    for name, system, tol in (
        ("five", five_pole_generic_system(), 1e-9),
        ("clustered", clustered_pair_system(), 1e-9),
        ("clustered", clustered_pair_system(), 1e-11),
        ("clustered", clustered_pair_system(), 1e-12),
        ("clustered", clustered_pair_system(), 1e-13),
        ("clustered", clustered_pair_system(), 1e-14),
    ):
        calls.clear()
        rep = monodromy(system, tol)
        assert rep.product_defect <= 1e-9
        assert len(calls) == 1
        matrices[name, tol] = np.array(rep.matrices)
    for tol in (1e-13, 1e-14):
        assert np.max(np.abs(matrices["clustered", tol] - matrices["clustered", 1e-12])) <= 1e-10


def test_composed_bound_is_not_checked_per_term(monkeypatch):
    """Each path's stop term comes from the majorant, with the hops'
    deviations fixed once, so ``_hop_bounds`` runs only for the reported
    estimates: at most twice per ``monodromy``, however many terms the
    hops take.  ``_taylor_term`` runs once per matrix term; taking the
    deviations at each path's deviation point costs at most one term over
    the 29, 42 and 52 of a composed bound checked after every term."""
    module = importlib.import_module("fuchsia.monodromy")
    calls = {"_hop_bounds": 0, "_taylor_term": 0}

    def counting(name):
        original = getattr(module, name)

        def counted(*args):
            calls[name] += 1
            return original(*args)

        return counted

    for name in calls:
        monkeypatch.setattr(module, name, counting(name))
    for system, tol, terms in (
        (five_pole_generic_system(), 1e-9, 29),
        (clustered_pair_system(), 1e-9, 42),
        (clustered_pair_system(), 1e-12, 52),
    ):
        calls.update(dict.fromkeys(calls, 0))
        assert monodromy(system, tol).product_defect <= 1e-9
        assert calls["_hop_bounds"] <= 2
        assert terms <= calls["_taylor_term"] <= terms + 1


def stub_cut():
    """Two one-line paths cut against a pole at -1: a calm one near 0, and one on Re z > 10."""
    paths = [ContinuationPath((Line(0.0, 1.0),)), ContinuationPath((Line(20.0 + 0.0j, 20.0 + 1.0j),))]
    return _cut_paths([-1.0 + 0j], paths)


def stub_field():
    """A 1x1 field with the one residue 0.1 at the pole -1."""
    return FuchsianSystem((-1.0 + 0j,), (np.array([[0.1 + 0j]]),), 1, 0.0)


def test_non_finite_on_one_leg_fails_the_batch(monkeypatch):
    def weights(points):
        return np.where(points.real > 10.0, complex("nan"), 1.0)[:, None]

    monkeypatch.setattr(importlib.import_module("fuchsia.monodromy"), "coefficient_function", lambda field: weights)
    with pytest.raises(NonFiniteError):
        _integrate_legs(stub_field(), stub_cut(), 1, 1e-9)


class VanishingField:
    """A 1x1 field on the pole 0 whose every hop sums to 1 - 1 = 0: its first term cancels the start, and no term follows."""

    dimension = 1
    rows = slice(None)
    bounds = np.array([0.1])

    @staticmethod
    def weights(points):
        return 1.0 / points[:, None]

    @staticmethod
    def apply(k, stack, out):
        out[...] = -1.0 if k == 1 else 0.0


def test_singular_approach_transfer_is_a_non_finite_error():
    """A loop whose approach transfer T is singular cannot be solved into
    T^-1 C T: the kernel raises ``NonFiniteError`` (exit 3), not numpy's
    ``LinAlgError``."""
    cut = _cut_paths([0.0, 1.0], build_loops([0.0, 1.0], 3.0 + 0.0j)[:1])
    with pytest.raises(NonFiniteError, match="singular"):
        _integrate_legs(VanishingField(), cut, 1, 1e-9)


def test_infinite_tail_fails_before_it_meets_a_zero_weight():
    """An infinite tail raises ``NonFiniteError`` before it is multiplied by
    a zero weight, whose NaN would warn first (tier-1 turns the warning
    into an error)."""
    cut = stub_cut()
    hops = len(cut.owner)
    size = np.full((1, hops), 0.1)
    tail = np.ones(hops)
    tail[0] = np.inf
    with pytest.raises(NonFiniteError):
        _stop_terms(size, size[0], np.array([0.1]), 0.1, 3, np.ones(hops), np.zeros_like(size), tail, np.zeros(hops), cut, 1e-9)


def test_infinite_weight_fails_before_it_meets_a_zero_tail():
    """An infinite weight, from a composed factor F_p that overflowed,
    raises ``NonFiniteError`` before it is multiplied by a zero tail."""
    cut = stub_cut()
    hops = len(cut.owner)
    size = np.full((1, hops), 0.1)
    tail = np.ones(hops)
    tail[0] = 0.0
    weight = np.ones(hops)
    weight[0] = np.inf
    with pytest.raises(NonFiniteError):
        _stop_terms(size, size[0], np.array([0.1]), 0.1, 3, np.ones(hops), np.zeros_like(size), tail, weight, cut, 1e-9)


def test_one_cut_serves_many_calls():
    """A cut continued 3 times, for two systems and two tolerances, gives
    each call's values and estimates bit for bit as a fresh cut does."""
    system = five_pole_generic_system()
    half = validate_system(system.poles, [0.5 * b for b in system.residues])
    loops = build_loops(system.poles, default_base_point(system.poles))
    cut = _cut_paths(system.poles, loops)
    for field, tol in ((system, 1e-9), (half, 1e-9), (system, 1e-12)):
        reused = _integrate_legs(field, cut, 2, tol)
        fresh = _integrate_legs(field, _cut_paths(system.poles, loops), 2, tol)
        for (value, estimate), (again, again_estimate) in zip(reused, fresh, strict=True):
            assert np.array_equal(value, again)
            assert estimate == again_estimate


def test_estimates_are_computed_when_read():
    """The kernel's result gives the same estimates, bit for bit, whether
    they are read before its values or after them, as a fresh call's pairs;
    a second read returns the same list, and iterating it gives the pairs."""
    system = five_pole_generic_system()
    loops = build_loops(system.poles, default_base_point(system.poles))
    cut = _cut_paths(system.poles, loops)
    fresh = list(_integrate_legs(system, cut, 2, 1e-9))
    first = _integrate_legs(system, cut, 2, 1e-9)
    estimates = first.estimates
    later = _integrate_legs(system, cut, 2, 1e-9)
    values = later.values
    assert len(first) == len(later) == len(loops)
    assert later.estimates == estimates == [estimate for _, estimate in fresh]
    assert first.estimates is estimates
    for (value, estimate), again, (pair_value, pair_estimate) in zip(fresh, values, first, strict=True):
        assert np.array_equal(value, again) and np.array_equal(value, pair_value)
        assert pair_estimate == estimate
    assert later[-1][1] == fresh[-1][1]


def test_evaluator_matches_pointwise_coefficient():
    """The field's weights with its residues give A(z), and so does ``evaluate``."""
    system = collinear_generic_system()
    points = np.array([3.0, 0.5 + 0.5j, -1.0 - 2.0j, 1.5 - 0.01j, 2.0 + 1e-3j])
    weights = coefficient_function(system)(points)
    assert weights.shape == (len(points), system.pole_count)
    stack = np.einsum("ip,pjk->ijk", weights, np.array(system.residues))
    for z, a, evaluated in zip(points, stack, system.evaluate(points)):
        expected = sum(b / (z - p) for p, b in zip(system.poles, system.residues))
        scale = max(1.0, np.max(np.abs(expected)))
        assert np.max(np.abs(a - expected)) <= 1e-14 * scale
        assert np.max(np.abs(evaluated - expected)) <= 1e-14 * scale


def test_open_path_matches_a_reference_integrator():
    """``continue_solution`` on an open two-line path agrees with scipy's
    DOP853 on ``system.evaluate``, which shares no code with the hops."""
    system = collinear_generic_system()
    corner = 0.5 + 1.5j
    path = ContinuationPath((Line(3.0 + 1.0j, corner), Line(corner, -1.5 - 0.5j)))
    transfer, _ = continue_solution(system, path, tol=1e-11)
    reference = reference_transfer(system.evaluate, [3.0 + 1.0j, corner, -1.5 - 0.5j])
    assert np.max(np.abs(transfer - reference)) <= 1e-9


@pytest.mark.parametrize("tol", [1e-9, 1e-12])
def test_open_line_matches_closed_form(tol):
    """A one-leg path that is no loop: residues 1 at 0 and -1 at 10 have the
    solution y = z / (z - 10), so the transfer from 1 to 2 is 9/4, and the
    realised error stays below ``tol`` and below the reported estimate."""
    system = validate_system([0.0, 10.0], [np.array([[1.0 + 0j]]), np.array([[-1.0 + 0j]])])
    path = ContinuationPath((Line(1.0 + 0j, 2.0 + 0j),))
    transfer, estimate = continue_solution(system, path, tol=tol)
    realised = abs(transfer[0, 0] - 9.0 / 4.0)
    assert realised <= tol
    assert realised <= estimate


@pytest.mark.parametrize("tol", [1e-6, 1e-8, 1e-9, 1e-10, 1e-11, 1e-12, 1e-13, 1e-14])
def test_realised_error_within_tolerance_and_estimate(tol, rng):
    """On closed-form oracles the realised error stays below ``tol`` and
    the reported estimate bounds it, loop by loop through
    ``continue_solution`` and for all loops in one batch through
    ``monodromy``.  On a 2x2 diagonal system with two poles 1e-3 apart,
    whose small circles once took the whole batch's steps, the estimate
    also stays within 20 tol."""
    cases = []
    for b in (0.25, 0.1 + 0.2j):
        system = scalar_two_pole(b)
        oracles = [np.array([[cmath.exp(2j * cmath.pi * b)]]), np.array([[cmath.exp(-2j * cmath.pi * b)]])]
        cases.append((system, build_loops(system.poles, 3.0 + 0.0j), oracles, 3.0 + 0.0j, math.inf))
    system, expected = diagonal_system(rng, p=3, n=3)
    cases.append((system, build_loops(system.poles, default_base_point(system.poles)), expected, None, math.inf))
    entries = np.array([[0.2, -0.15], [-0.3, 0.1], [0.1, 0.05]])
    system = validate_system([-1.0, 0.6, 0.6 + 1e-3j], [np.diag(e.astype(complex)) for e in entries])
    expected = [np.diag(np.exp(2j * np.pi * e)) for e in entries]
    cases.append((system, build_loops(system.poles, default_base_point(system.poles)), expected, None, 20.0 * tol))
    for system, loops, oracles, base_point, estimate_cap in cases:
        singly = [continue_solution(system, loop, tol=tol) for loop in loops]
        rep = monodromy(system, tol, base_point)
        batched = zip(rep.matrices, rep.error_estimates)
        for oracle, (transfer, estimate), (matrix, batch_estimate) in zip(oracles, singly, batched, strict=True):
            for m, e in ((transfer, estimate), (matrix, batch_estimate)):
                realised = float(np.linalg.norm(m - oracle))
                assert realised <= tol
                assert realised <= e <= estimate_cap
