"""Acceptance contract: seven end-to-end criteria, one test line each.

Every test pins the tolerance it claims and, where a wall-clock budget is
part of the contract, measures and asserts it.  All randomness is seeded
(override with FUCHSIA_SEED), so a failure is reproducible.

The seven criteria:

1. Commuting oracle: 20 random simultaneously-diagonal systems across
   p in {1,2,3}, n in {2,3,4}; computed monodromy within 1e-7 of the
   closed-form exp(2 pi i B_j).  Budget 20 s.
2. Generic theorem check: 20 random non-commuting non-resonant systems
   (p=2, n=3, |B_j| <= 0.4); verify_theorem passes spectrum and structure
   for every pole at tol 1e-6 with conjugator residual <= 1e-6.  Budget 30 s.
3. Loop product identity: for all 40 systems above, the ordered product of
   the monodromy matrices is the identity within 1e-6.
4. Inverse round trip: 10 random near-identity instances (p=2, n=3,
   |A_j| <= 0.05) solved to residual <= 1e-8 within 25 iterations, residues
   recovered to 1e-6 elementwise; seed error decays quadratically in the
   residue scale (ratio >= 3.5 per halving across 0.04/0.02/0.01).
   Budget 60 s.
5. Equivalence exactness: 200 exact-arithmetic property checks (50 rounds
   of 4: gauge group action, module round trip, Leibniz rule, companion
   shape), zero tolerance.  Budget 10 s.
6. Jordan robustness: 50 matrices with known block structure, conjugated
   at condition <= 100 and perturbed at 1e-12, all recovered exactly at
   default tolerance.
7. Resonance classifier: the four canonical eigenvalue pairs classify
   correctly, with integer witnesses on the resonant ones.
"""

import time
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

from conftest import (
    SEED,
    assert_jordan_structure,
    diagonal_system,
    generic_system,
    jordan_matrix,
    random_conjugator,
    sample_poles,
)
from fuchsia.equivalence import (
    RationalMatrix,
    ScalarEquation,
    companion_of_scalar,
    gauge_transform,
    matrix_from_module,
    module_from_matrix,
)
from fuchsia import linalg
from fuchsia.inverse import first_order_seed, solve, validate_instance
from fuchsia.linalg import jordan_structure
from fuchsia.monodromy import monodromy, verify_theorem
from fuchsia.paths import build_loops, composition_order, default_base_point
from fuchsia.rational import (
    CR_ONE,
    RF_ONE,
    RF_ZERO,
    ComplexRational,
    Polynomial,
    RationalFunction,
)
from fuchsia.system import is_non_resonant, validate_system


def reindex_by_traversal(system, companions=None):
    """Relabel poles so index order equals the loop traversal order.

    The loop product identity is stated in index order; relabeling makes
    the two orders coincide without changing any individual matrix.
    """
    z0 = default_base_point(system.poles)
    order = composition_order(build_loops(system.poles, z0))
    poles = [system.poles[i] for i in order]
    residues = [system.residues[i] for i in order]
    relabeled = validate_system(poles, residues)
    if companions is None:
        return relabeled
    return relabeled, [companions[i] for i in order]


@pytest.fixture(scope="module")
def commuting_batch():
    """20 diagonal systems with closed-form monodromy, plus computed reps."""
    rng = np.random.default_rng([SEED, 1])
    combos = [(p, n) for p in (1, 2, 3) for n in (2, 3, 4)]
    items = []
    start = time.perf_counter()
    for k in range(20):
        p, n = combos[k % len(combos)]
        system, expected = diagonal_system(rng, p, n)
        system, expected = reindex_by_traversal(system, expected)
        rep = monodromy(system)
        items.append((system, expected, rep))
    elapsed = time.perf_counter() - start
    return items, elapsed


@pytest.fixture(scope="module")
def generic_batch():
    """20 non-commuting systems with their theorem reports."""
    rng = np.random.default_rng([SEED, 2])
    items = []
    start = time.perf_counter()
    for _ in range(20):
        system = reindex_by_traversal(generic_system(rng, p=2, n=3, bound=0.4))
        report = verify_theorem(system, tol=1e-6)
        items.append((system, report))
    elapsed = time.perf_counter() - start
    return items, elapsed


def test_commuting_oracle_monodromy_matches_closed_form(commuting_batch):
    items, elapsed = commuting_batch
    assert len(items) == 20
    worst = 0.0
    for system, expected, rep in items:
        for j in range(system.pole_count):
            err = float(np.linalg.norm(rep.matrices[j] - expected[j]))
            worst = max(worst, err)
            assert err <= 1e-7, (
                f"pole {j} of a {system.dimension}x{system.dimension} system "
                f"with {system.pole_count} poles: |M - exp(2 pi i B)| = {err:.3e}"
            )
    assert elapsed <= 20.0, f"commuting batch took {elapsed:.1f}s (budget 20s)"


def test_generic_systems_verify_theorem(generic_batch):
    items, elapsed = generic_batch
    assert len(items) == 20
    for system, report in items:
        assert report.all_non_resonant
        assert report.overall
        for v in report.verdicts:
            assert v.spectrum_match, f"pole {v.pole_index}: spectrum distance {v.spectrum_distance:.3e}"
            assert v.structure_match, f"pole {v.pole_index}: Jordan structures differ"
            assert v.conjugator is not None
            assert v.conjugator_residual <= 1e-6, (
                f"pole {v.pole_index}: conjugator residual {v.conjugator_residual:.3e}"
            )
    assert elapsed <= 30.0, f"generic batch took {elapsed:.1f}s (budget 30s)"


def test_loop_product_identity(commuting_batch, generic_batch):
    reps = [rep for _, _, rep in commuting_batch[0]]
    reps += [report.representation for _, report in generic_batch[0]]
    assert len(reps) == 40
    for rep in reps:
        assert rep.composition == tuple(range(len(rep.matrices)))
        product = np.eye(rep.dimension, dtype=complex)
        for j in range(len(rep.matrices)):
            product = rep.matrices[j] @ product
        defect = float(np.linalg.norm(product - np.eye(rep.dimension)))
        assert defect <= 1e-6, f"loop product defect {defect:.3e}"


def _small_residue_system(rng, bound=0.05, draw=0.04):
    """Random p=2, n=3 system with every residue 2-norm at most ``bound``."""
    poles = sample_poles(rng, 3)
    while True:
        mats = []
        for _ in range(2):
            m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            mats.append(m * (draw / np.linalg.norm(m, 2)))
        last = -(mats[0] + mats[1])
        if np.linalg.norm(last, 2) > bound:
            continue
        return validate_system(poles, mats + [last])


def test_inverse_round_trip_and_seed_order():
    rng = np.random.default_rng([SEED, 4])
    start = time.perf_counter()

    for trial in range(10):
        system = _small_residue_system(rng)
        targets = monodromy(system, tol=1e-10).matrices
        instance = validate_instance(system.poles, targets)
        solution = solve(instance, tol=1e-8, max_iter=25)
        assert solution.converged, (
            f"trial {trial}: residual {solution.final_residual:.3e} "
            f"after {solution.iterations} iterations"
        )
        assert solution.final_residual <= 1e-8
        for recovered, truth in zip(solution.residues, system.residues):
            worst = float(np.max(np.abs(recovered - truth)))
            assert worst <= 1e-6, f"trial {trial}: residue entry error {worst:.3e}"

    # Seed order: fix a residue direction, shrink it, and watch the
    # first-order seed error drop by at least 3.5x per halving.
    direction = []
    for _ in range(2):
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        direction.append(m / np.linalg.norm(m, 2))
    direction.append(-(direction[0] + direction[1]))
    scale = max(np.linalg.norm(m, 2) for m in direction)
    direction = [m / scale for m in direction]
    poles = sample_poles(rng, 3)

    errors = []
    for delta in (0.04, 0.02, 0.01):
        scaled = validate_system(poles, [delta * m for m in direction])
        targets = monodromy(scaled, tol=1e-10).matrices
        instance = validate_instance(scaled.poles, targets)
        seeds = first_order_seed(instance)
        err = max(
            float(np.linalg.norm(seed - truth))
            for seed, truth in zip(seeds, scaled.residues)
        )
        errors.append(err)
    assert errors[0] > 0
    assert errors[0] / errors[1] >= 3.5, f"seed decay {errors}"
    assert errors[1] / errors[2] >= 3.5, f"seed decay {errors}"

    elapsed = time.perf_counter() - start
    assert elapsed <= 60.0, f"inverse criterion took {elapsed:.1f}s (budget 60s)"


def _random_cr(rng, span=3):
    return ComplexRational(
        Fraction(int(rng.integers(-span, span + 1)), int(rng.integers(1, 4))),
        Fraction(int(rng.integers(-span, span + 1)), int(rng.integers(1, 4))),
    )


def _random_poly(rng, max_degree=2):
    degree = int(rng.integers(0, max_degree + 1))
    return Polynomial([_random_cr(rng) for _ in range(degree + 1)])


def _random_rational(rng):
    dens = [
        Polynomial([CR_ONE]),
        Polynomial([ComplexRational(0), CR_ONE]),
        Polynomial([ComplexRational(-1), CR_ONE]),
    ]
    return RationalFunction(_random_poly(rng), dens[int(rng.integers(0, 3))])


def _random_matrix(rng, n=2):
    return RationalMatrix([[_random_rational(rng) for _ in range(n)] for _ in range(n)])


def _random_unitriangular(rng, n=2, upper=True):
    rows = [[RF_ONE if i == j else RF_ZERO for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            entry = RationalFunction(_random_poly(rng, max_degree=1))
            if upper:
                rows[i][j] = entry
            else:
                rows[j][i] = entry
    return RationalMatrix(rows)


def test_equivalence_exactness_200_checks():
    rng = np.random.default_rng([SEED, 5])
    start = time.perf_counter()
    checks = 0
    for _ in range(50):
        a = _random_matrix(rng)
        b = _random_unitriangular(rng, upper=True)
        c = _random_unitriangular(rng, upper=False)

        # 1. Gauge transformations compose as a right group action.
        assert gauge_transform(gauge_transform(a, b), c) == gauge_transform(a, b @ c)
        checks += 1

        # 2. Module and matrix representations round-trip exactly.
        assert matrix_from_module(module_from_matrix(a)) == a
        checks += 1

        # 3. The derivation satisfies the Leibniz rule exactly.
        f = _random_rational(rng)
        g = _random_rational(rng)
        assert (f * g).derivative() == f.derivative() * g + f * g.derivative()
        checks += 1

        # 4. Companion matrices have the stated shape: superdiagonal ones,
        # last row the negated coefficients, zeros elsewhere.
        order = int(rng.integers(2, 5))
        eq = ScalarEquation(tuple(_random_rational(rng) for _ in range(order)))
        comp = companion_of_scalar(eq)
        for i in range(order):
            for j in range(order):
                if i == order - 1:
                    assert comp.entries[i][j] == -eq.coeffs[j]
                elif j == i + 1:
                    assert comp.entries[i][j] == RF_ONE
                else:
                    assert comp.entries[i][j] == RF_ZERO
        checks += 1
    assert checks == 200
    elapsed = time.perf_counter() - start
    assert elapsed <= 10.0, f"equivalence checks took {elapsed:.1f}s (budget 10s)"


_EIGENVALUE_POOL = [
    -3.0 + 0.0j,
    -1.0 + 0.0j,
    1.0 + 0.0j,
    3.0 + 0.0j,
    -2.0 + 2.0j,
    2.0 + 2.0j,
    -2.0 - 2.0j,
    2.0 - 2.0j,
    4.0j,
]

_STRUCTURE_TEMPLATES = [
    [(2,), (1,)],
    [(3,)],
    [(2, 1)],
    [(1, 1), (2,)],
    [(2, 2)],
    [(1,), (1,), (1,)],
    [(3, 1)],
    [(2,), (2,)],
    [(2, 1), (1,)],
    [(1, 1, 1)],
]


def _robustness_cases():
    """The 50 (matrix, blocks) cases: 5 rounds of the 10 templates, conjugated and perturbed by 1e-12."""
    rng = np.random.default_rng([SEED, 6])
    for round_index in range(5):
        for template in _STRUCTURE_TEMPLATES:
            pool = list(_EIGENVALUE_POOL)
            rng.shuffle(pool)
            blocks = [(pool[k], sizes) for k, sizes in enumerate(template)]
            j = jordan_matrix(blocks)
            dim = j.shape[0]
            s = random_conjugator(rng, dim, cond_limit=100.0)
            noise = 1e-12 * (
                rng.uniform(-1, 1, size=(dim, dim))
                + 1j * rng.uniform(-1, 1, size=(dim, dim))
            )
            yield s @ j @ np.linalg.inv(s) + noise, blocks


def test_jordan_structure_robustness_50_cases():
    cases = 0
    for m, blocks in _robustness_cases():
        observed = jordan_structure(m)
        assert_jordan_structure(observed, blocks)
        cases += 1
    assert cases == 50


def test_stacked_jordan_structure_matches_single_calls_on_the_50_cases():
    by_dimension = {}
    for m, _ in _robustness_cases():
        by_dimension.setdefault(m.shape[0], []).append(m)
    assert sum(len(stack) for stack in by_dimension.values()) == 50
    for stack in by_dimension.values():
        assert jordan_structure(np.array(stack)) == tuple(jordan_structure(m) for m in stack)


def _scipy_schur_restrict(m, lam, other_reps, mu):
    """The restriction as a sorted Schur form gives it: the reference for ``_schur_restrict``."""
    if mu == m.shape[0]:
        return scipy.linalg.schur(m, output="complex")[0]

    def selector(w):
        return all(abs(w - lam) < abs(w - r) for r in other_reps)

    t, _, sdim = scipy.linalg.schur(m, output="complex", sort=selector)
    return t[:mu, :mu] if sdim == mu else None


def test_schur_restriction_weyr_profiles_match_scipy_on_the_50_cases(monkeypatch):
    """Every cluster the 50 cases validate gets from ``_schur_restrict`` the
    Weyr profile that scipy's sorted Schur form gives, and fails where it fails."""
    calls = []
    validate = linalg._validate_cluster

    def recorded(m, w, members, other_reps, scale, rho0, tol, strict):
        calls.append((m, w, members, other_reps, rho0))
        return validate(m, w, members, other_reps, scale, rho0, tol, strict)

    monkeypatch.setattr(linalg, "_validate_cluster", recorded)
    for m, _ in _robustness_cases():
        jordan_structure(m)
    assert any(len(members) < m.shape[0] for m, _, members, _, _ in calls)
    for m, w, members, other_reps, rho0 in calls:
        mu, lam = len(members), complex(np.mean(members))
        r_eff = max(max(abs(w - lam) for w in members), rho0)
        got = linalg._schur_restrict(m, w, lam, other_reps, mu)
        want = _scipy_schur_restrict(m, lam, other_reps, mu)
        assert (got is None) == (want is None)
        if got is not None:
            assert linalg._weyr_profile(got, lam, r_eff)[0] == linalg._weyr_profile(want, lam, r_eff)[0]


def test_non_resonance_classifier_pairs():
    cases = [
        ((0.5, 1.5), True, 1),
        ((0.3, 0.7), False, None),
        ((0.2, 0.2), False, None),
        ((0.1, 2.1), True, 2),
    ]
    for pair, expect_resonant, integer in cases:
        b = np.diag(pair).astype(complex)
        system = validate_system([0.0, 3.0], [b, -b])
        record = is_non_resonant(system)[0]
        assert record.resonant == expect_resonant, f"pair {pair}"
        if expect_resonant:
            assert record.witnesses, f"pair {pair}: no witnesses reported"
            ints = {abs(k) for _, _, k in record.witnesses}
            assert ints == {integer}, f"pair {pair}: witnesses {record.witnesses}"
            seen = {round(a.real, 6) for a, _, _ in record.witnesses}
            assert seen <= {round(pair[0], 6), round(pair[1], 6)}
        else:
            assert not record.witnesses
