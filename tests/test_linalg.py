"""Eigenvalue clustering, Jordan structure recovery, similarity search."""

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

from conftest import (
    SEED,
    assert_jordan_structure,
    jordan_matrix,
    random_conjugator,
)
from fuchsia.errors import (
    ClusterAmbiguityError,
    MatrixExpOverflowError,
    NumericsError,
    ValidationError,
)
from fuchsia.linalg import (
    _CHAIN_FACTOR,
    DEFAULT_CLUSTER_TOL,
    JordanStructure,
    SimilarityResult,
    _chain_groups,
    _conjugators,
    _jordan,
    _mean,
    _validate_cluster,
    eigen_decompose,
    jordan_structure,
    matrix_exp,
    min_cost_assignment,
    operator_norm,
    similarity_transform,
)


def test_eigen_decompose_diagonal_multiplicities():
    m = np.diag([2.0, 2.0, -1.0, 0.5])
    got = eigen_decompose(m, 1e-10)
    assert got == [(-1.0 + 0j, 1), (0.5 + 0j, 1), (2.0 + 0j, 2)]


def test_eigen_decompose_sorted_by_real_then_imag():
    m = np.diag([1.0 + 1.0j, 1.0 - 1.0j, 0.0])
    got = eigen_decompose(m, 1e-10)
    assert [lam for lam, _ in got] == [0.0 + 0j, 1.0 - 1.0j, 1.0 + 1.0j]


def test_eigen_decompose_clusters_near_duplicates():
    m = np.diag([1.0, 1.0 + 3e-11, 4.0])
    got = eigen_decompose(m, 1e-10)
    assert [mult for _, mult in got] == [2, 1]
    assert abs(got[0][0] - (1.0 + 1.5e-11)) < 1e-12


@pytest.mark.parametrize("tol", [-1e-9, float("nan"), float("inf")])
def test_eigen_decompose_rejects_bad_tol(tol):
    with pytest.raises(ValidationError):
        eigen_decompose(np.eye(2), tol)


def test_eigen_decompose_zero_tol_clusters_exact_ties():
    assert eigen_decompose(np.diag([1.0, 1.0, 2.0]), 0.0) == [(1.0 + 0j, 2), (2.0 + 0j, 1)]


def test_eigen_decompose_rejects_nonsquare():
    with pytest.raises(ValidationError):
        eigen_decompose(np.ones((2, 3)), 1e-10)


def test_matrix_exp_agrees_with_series_small():
    rng = np.random.default_rng(SEED)
    a = 0.01 * (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    # Five Taylor terms leave a truncation error around |a|^6/720 ~ 1e-14,
    # well inside the asserted 1e-10.
    a2 = a @ a
    series = np.eye(3) + a + a2 / 2 + a2 @ a / 6 + a2 @ a2 / 24 + a2 @ a2 @ a / 120
    assert np.linalg.norm(matrix_exp(a) - series) < 1e-10


def test_matrix_exp_overflow_guard():
    with pytest.raises(MatrixExpOverflowError):
        matrix_exp(np.array([[1e6]]))


def test_jordan_structure_diagonalizable_exact():
    m = np.diag([0.0, 1.0, 3.5 + 0.5j])
    assert_jordan_structure(
        jordan_structure(m),
        [(0.0, (1,)), (1.0, (1,)), (3.5 + 0.5j, (1,))],
    )


def test_jordan_structure_single_block_exact():
    j = jordan_matrix([(1.5, (3,))])
    assert_jordan_structure(jordan_structure(j), [(1.5, (3,))])


def test_jordan_structure_mixed_sizes_same_eigenvalue():
    j = jordan_matrix([(0.5, (2, 1))])
    assert_jordan_structure(jordan_structure(j), [(0.5, (2, 1))])


def test_jordan_structure_perturbed_j3():
    """A cube-root scatter case: 1e-12 noise moves J3 eigenvalues ~1e-4."""
    rng = np.random.default_rng(SEED + 1)
    j = jordan_matrix([(0.0, (3,)), (2.0, (1,))])
    noise = 1e-12 * (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    got = jordan_structure(j + noise)
    assert_jordan_structure(got, [(0.0, (3,)), (2.0, (1,))])


def test_jordan_structure_conjugated_and_perturbed():
    rng = np.random.default_rng(SEED + 2)
    blocks = [(-1.0, (2,)), (1.0 + 1.0j, (2, 1)), (3.0, (1,))]
    j = jordan_matrix(blocks)
    s = random_conjugator(rng, j.shape[0])
    m = s @ j @ np.linalg.inv(s)
    m += 1e-12 * (rng.normal(size=m.shape) + 1j * rng.normal(size=m.shape))
    assert_jordan_structure(jordan_structure(m), blocks)


def test_jordan_structure_cluster_ambiguity():
    # Two eigenvalues 1.9e-7 apart with an off-diagonal coupling sized so
    # the merged cluster fails the strict gap test: neither separable nor
    # mergeable, which is exactly the ambiguous case.
    d = 1.9e-7
    m = np.array([[0.0, 2e-6], [0.0, d]], dtype=complex)
    with pytest.raises(ClusterAmbiguityError) as info:
        jordan_structure(m)
    first, second = info.value.pair
    assert abs(first - second) <= 2.1e-7


def test_jordan_structure_scaled_matrix():
    """Tolerances scale with the matrix norm, not just the absolute gap."""
    j = 50.0 * jordan_matrix([(1.0, (2,)), (-1.0, (1,))])
    assert_jordan_structure(jordan_structure(j), [(50.0, (2,)), (-50.0, (1,))])


def test_same_structure_and_match_blocks():
    a = jordan_structure(jordan_matrix([(0.0, (2,)), (1.0, (1,))]))
    b = jordan_structure(jordan_matrix([(1.0, (1,)), (0.0, (2,))]))
    c = jordan_structure(jordan_matrix([(0.0, (1, 1)), (1.0, (1,))]))
    assert a.match_blocks(b, 0.0) is not None
    assert a.match_blocks(c, 0.0) is None


def test_jordan_structure_tolerance_recorded():
    m = np.diag([0.0, 5.0])
    got = jordan_structure(m)
    assert got.tolerance == pytest.approx(1e-7 * max(1.0, operator_norm(m)))


def test_similarity_transform_recovers_conjugation():
    rng = np.random.default_rng(SEED + 3)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    s0 = random_conjugator(rng, 3, cond_limit=20.0)
    b = s0 @ a @ np.linalg.inv(s0)
    found = similarity_transform(a, b)
    assert found is not None
    assert np.linalg.norm(found.matrix @ a - b @ found.matrix) < 1e-8
    assert abs(np.linalg.norm(found.matrix) - 1.0) < 1e-12
    assert found.condition >= 1.0


def test_similarity_transform_defective_pair():
    j = jordan_matrix([(0.25, (2,))])
    rng = np.random.default_rng(SEED + 4)
    s0 = random_conjugator(rng, 2, cond_limit=10.0)
    b = s0 @ j @ np.linalg.inv(s0)
    found = similarity_transform(j, b)
    assert found is not None
    assert np.linalg.norm(found.matrix @ j - b @ found.matrix) < 1e-8


def test_similarity_transform_structure_mismatch_returns_none():
    a = jordan_matrix([(0.0, (2,))])
    b = np.zeros((2, 2), dtype=complex)
    assert similarity_transform(a, b) is None


def test_similarity_transform_dimension_mismatch():
    with pytest.raises(ValidationError):
        similarity_transform(np.eye(2), np.eye(3))


def test_similarity_transform_deterministic():
    rng = np.random.default_rng(SEED + 5)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    s0 = random_conjugator(rng, 3, cond_limit=20.0)
    b = s0 @ a @ np.linalg.inv(s0)
    first = similarity_transform(a, b)
    second = similarity_transform(a, b)
    assert np.array_equal(first.matrix, second.matrix)


def test_jordan_structure_block_dimension_property():
    got = JordanStructure(blocks=((0.0 + 0j, (2, 1)), (1.0 + 0j, (1,))), tolerance=1e-7, norm=1.0)
    assert got.dimension == 4


def _fixture_matrices(n):
    """The n x n matrices of this file's Jordan, exponential and similarity tests."""
    rng = np.random.default_rng(SEED + 1)
    fixtures = [
        np.diag([0.0, 1.0, 3.5 + 0.5j]),
        jordan_matrix([(1.5, (3,))]),
        jordan_matrix([(0.5, (2, 1))]),
        jordan_matrix([(0.0, (3,)), (2.0, (1,))]) + 1e-12 * (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))),
        50.0 * jordan_matrix([(1.0, (2,)), (-1.0, (1,))]),
        np.diag([0.0, 5.0]),
        jordan_matrix([(0.25, (2,))]),
        jordan_matrix([(0.0, (2,)), (1.0, (1,))]),
        jordan_matrix([(0.0, (1, 1)), (1.0, (1,))]),
    ]
    rng = np.random.default_rng(SEED + 2)
    blocks = [(-1.0, (2,)), (1.0 + 1.0j, (2, 1)), (3.0, (1,))]
    s = random_conjugator(rng, 6)
    fixtures.append(s @ jordan_matrix(blocks) @ np.linalg.inv(s) + 1e-12 * rng.normal(size=(6, 6)))
    for seed in (SEED + 3, SEED + 5):
        rng = np.random.default_rng(seed)
        fixtures.append(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    return [np.asarray(m, dtype=complex) for m in fixtures if m.shape == (n, n)]


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_stacked_jordan_structure_equals_single_calls(n):
    stack = _fixture_matrices(n)
    assert stack
    assert jordan_structure(np.array(stack)) == tuple(jordan_structure(m) for m in stack)
    assert eigen_decompose(np.array(stack), 1e-10) == [eigen_decompose(m, 1e-10) for m in stack]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_stacked_matrix_exp_equals_single_calls_bitwise(n):
    rng = np.random.default_rng(SEED + 6)
    stack = [m / (1.0 + np.linalg.norm(m)) for m in _fixture_matrices(n)]
    stack.append(0.3 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))))
    stacked = matrix_exp(2j * np.pi * np.array(stack))
    for got, m in zip(stacked, stack, strict=True):
        assert got.tobytes() == matrix_exp(2j * np.pi * m).tobytes()


def test_stacked_matrix_exp_names_the_overflowing_matrix():
    stack = np.zeros((3, 2, 2), dtype=complex)
    stack[1, 0, 0] = 1e6
    with pytest.raises(MatrixExpOverflowError, match="matrix 1 "):
        matrix_exp(stack)


@pytest.mark.parametrize("n", range(1, 7))
def test_matrix_exp_agrees_with_scipy_expm(n):
    """On a stack whose 1-norms run from 1e-3 to 700, where exp of an
    eigenvalue nears the largest float, ``matrix_exp`` agrees with scipy's
    ``expm`` to 1e-13 relative up to 1-norm 10, and to 1e-14 times the
    1-norm above it, as the exponential's relative condition number grows
    like the norm.  One more matrix, shifted past the guard, overflows in
    both, and ``matrix_exp`` names it.  The zero matrix maps to the identity
    exactly."""
    rng = np.random.default_rng([SEED, 31, n])
    norms = np.geomspace(1e-3, 700.0, 12)
    stack = rng.normal(size=(12, n, n)) + 1j * rng.normal(size=(12, n, n))
    stack *= (norms / np.abs(stack).sum(axis=1).max(axis=1))[:, None, None]
    assert np.array_equal(matrix_exp(np.zeros((n, n))), np.eye(n))
    got, want = matrix_exp(stack), scipy.linalg.expm(stack)
    for g, w, norm in zip(got, want, norms, strict=True):
        assert np.abs(g - w).max() <= 1e-13 * max(1.0, norm / 10.0) * np.abs(w).max()
    beyond = np.concatenate([stack, stack[-1:] + 1500.0 * np.eye(n)])
    with np.errstate(over="ignore", invalid="ignore"):
        assert not np.isfinite(scipy.linalg.expm(beyond[-1])).all()
    with pytest.raises(MatrixExpOverflowError, match="matrix 12 "):
        matrix_exp(beyond)


def test_min_cost_assignment_equals_scipy():
    """The port picks scipy's matching, also among the many optimal ones of tie-heavy integer costs."""
    rng = np.random.default_rng([SEED, 31])
    for k in range(1, 9):
        for trial in range(150):
            if trial % 3 == 0:
                cost = rng.random((k, k))
            else:
                cost = rng.integers(0, 1 + trial % 3, size=(k, k)).astype(float)
            rows, cols = min_cost_assignment(cost)
            want_rows, want_cols = scipy.optimize.linear_sum_assignment(cost)
            assert (rows.tolist(), cols.tolist()) == (want_rows.tolist(), want_cols.tolist()), cost


def _loop_conjugator(a, b, ja, jb, pairs, tol):
    """Reference for ``_conjugators``: one pair, ``np.kron`` and one ``svd`` per candidate."""
    n = a.shape[0]
    dim = sum(min(si, sj) for i, j in pairs for si in ja.blocks[i][1] for sj in jb.blocks[j][1])
    eye = np.eye(n)
    _, _, vh = np.linalg.svd(np.kron(a.T, eye) - np.kron(eye, b))
    basis = vh[n * n - dim:].conj()
    candidates = [basis[i] for i in range(dim)]
    for t in (1.0, -1.0, 2.0, 0.5, 1.0 + 0.5j):
        candidates.append(np.array([t**k for k in range(dim)], dtype=complex) @ basis)
    for t in (2.0, 1.0 + 0.5j):
        candidates.append(np.array([t ** (k * k) for k in range(dim)], dtype=complex) @ basis)
    best, best_ratio = None, -1.0
    for vec in candidates:
        s = np.reshape(vec, (n, n), order="F")
        sv = np.linalg.svd(s, compute_uv=False)
        if sv[0] != 0.0 and float(sv[-1] / sv[0]) > best_ratio:
            best, best_ratio = s, float(sv[-1] / sv[0])
    if best is None or best_ratio < 1e-12:
        return None
    s = best / np.linalg.norm(best)
    residual = float(np.linalg.norm(s @ a - b @ s))
    if residual > tol * (operator_norm(a) + operator_norm(b)):
        return None
    sv = np.linalg.svd(s, compute_uv=False)
    return SimilarityResult(matrix=s, residual=residual, condition=float(sv[0] / sv[-1]))


def test_stacked_conjugator_search_equals_single_pairs_bitwise():
    """Pair by pair, the stacked search equals ``similarity_transform`` and the one-pair loop, bit for bit."""
    rng = np.random.default_rng(SEED + 7)
    a, b = [], []
    for m in _fixture_matrices(3) + [jordan_matrix([(0.25, (2,)), (0.5, (1,))])]:
        s0 = random_conjugator(rng, 3, cond_limit=20.0)
        a.append(m)
        b.append(s0 @ m @ np.linalg.inv(s0))
    a, b = np.array(a), np.array(b)
    structures = jordan_structure(np.concatenate([a, b]))
    halves = zip(structures[: len(a)], structures[len(a):])
    matches = [(ja, jb, ja.match_blocks(jb, DEFAULT_CLUSTER_TOL)) for ja, jb in halves]
    assert all(pairs is not None for _, _, pairs in matches)
    found = _conjugators(a, b, matches, DEFAULT_CLUSTER_TOL)
    assert len(found) == len(a)
    for got, x, y, match in zip(found, a, b, matches, strict=True):
        # Every pair is found, diag(0, 0, 1) with its repeated eigenvalue too.
        assert isinstance(got, SimilarityResult)
        for other in (similarity_transform(x, y), _loop_conjugator(x, y, *match, DEFAULT_CLUSTER_TOL)):
            assert got.matrix.tobytes() == other.matrix.tobytes()
            assert (got.residual, got.condition) == (other.residual, other.condition)


def test_similarity_transform_diagonal_with_a_repeated_eigenvalue():
    """For a = diag(0.3, 0.3, 1) the Sylvester null space comes out column
    by column, so every sum of it with geometric weights t^i is singular;
    the t^(i^2) sums are not, and all 100 random conjugates are found."""
    rng = np.random.default_rng(SEED + 8)
    a = np.diag([0.3, 0.3, 1.0]).astype(complex)
    for _ in range(100):
        s0 = random_conjugator(rng, 3, cond_limit=20.0)
        b = s0 @ a @ np.linalg.inv(s0)
        found = similarity_transform(a, b)
        assert np.linalg.norm(found.matrix @ a - b @ found.matrix) < 1e-8


def _ladder_jordan(arr, norm, w):
    """``_jordan`` as it was before it returned all-single structures directly: the reference."""
    tol = DEFAULT_CLUSTER_TOL
    n = arr.shape[0]
    scale = max(1.0, norm)
    rho0 = tol * scale
    clusters = [[w[i] for i in group] for group in _chain_groups(w, rho0)]
    for rung in range(2, n + 1):
        radius = min(_CHAIN_FACTOR * scale * tol ** (1.0 / rung), 0.25 * scale)
        changed = True
        while changed and len(clusters) > 1:
            changed = False
            reps = [_mean(c) for c in clusters]
            for group in _chain_groups(reps, radius):
                if len(group) < 2:
                    continue
                merged = []
                for idx in group:
                    merged.extend(clusters[idx])
                other_reps = [reps[i] for i in range(len(reps)) if i not in group]
                sizes = _validate_cluster(arr, w, merged, other_reps, scale, rho0, tol, strict=True)
                if sizes is not None:
                    clusters = [c for i, c in enumerate(clusters) if i not in group]
                    clusters.append(merged)
                    changed = True
                    break
    reps = [_mean(c) for c in clusters]
    order = sorted(range(len(clusters)), key=lambda i: (reps[i].real, reps[i].imag))
    clusters = [clusters[i] for i in order]
    reps = [reps[i] for i in order]
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            if abs(reps[i] - reps[j]) <= 2.0 * rho0:
                raise ClusterAmbiguityError(reps[i], reps[j], rho0)
    blocks = []
    for i, cluster in enumerate(clusters):
        if len(cluster) == 1:
            blocks.append((reps[i], (1,)))
            continue
        other_reps = [r for k, r in enumerate(reps) if k != i]
        sizes = _validate_cluster(arr, w, cluster, other_reps, scale, rho0, tol, strict=False)
        if sizes is None:
            raise NumericsError(
                f"rank profile of eigenvalue cluster near {reps[i]} is not "
                f"consistent with any Jordan structure at tolerance {tol:g}"
            )
        blocks.append((reps[i], sizes))
    return JordanStructure(blocks=tuple(blocks), tolerance=rho0, norm=norm)


def _last_rung_radius(n, scale=1.0):
    return min(_CHAIN_FACTOR * scale * DEFAULT_CLUSTER_TOL ** (1.0 / n), 0.25 * scale)


def _jordan_reference_cases():
    """About 500 matrices: random ones of n = 1-6, spectra with one pair at 0.5, 1 and 2 times the
    last rung's radius (diagonal and conjugated), near-repeated eigenvalues, conjugated and
    perturbed Jordan matrices, and the 50 cases of criterion 6."""
    from test_acceptance import _robustness_cases

    rng = np.random.default_rng(SEED + 9)
    for n in range(1, 7):
        for _ in range(20):
            yield rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            yield 1e-3 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    for n in range(2, 7):
        radius = _last_rung_radius(n)
        # The other eigenvalues sit on a circle of radius 0.8, at least 0.8 apart, so |d| <= 0.9 and scale = 1.
        ring = [0.8 * np.exp(2j * np.pi * (k + 0.5) / 6) for k in range(n - 2)]
        for gap in (0.5, 1.0, 2.0):
            for _ in range(6):
                centre = 0.05 * (rng.normal() + 1j * rng.normal())
                turn = np.exp(2j * np.pi * rng.uniform())
                d = np.array([centre, centre + gap * radius * turn] + ring)
                yield np.diag(d)
                yield np.diag(d[rng.permutation(n)])
                s = random_conjugator(rng, n, cond_limit=10.0)
                yield s @ np.diag(d) @ np.linalg.inv(s)
    for n in range(2, 7):
        for scale in (1e-9, 1e-7, 1e-5):
            d = rng.normal(size=n) + 1j * rng.normal(size=n)
            d[1] = d[0] + scale * (rng.normal() + 1j * rng.normal())
            s = random_conjugator(rng, n, cond_limit=10.0)
            yield np.diag(d)
            yield s @ np.diag(d) @ np.linalg.inv(s)
    templates = [[(0.5, (2,))], [(0.0, (2,)), (1.0, (1,))], [(1.0j, (3,))], [(0.3, (2, 1)), (-1.0, (1,))],
                 [(0.0, (2,)), (2.0, (2,))], [(0.1, (3,)), (0.9, (1,)), (-0.9, (1,))], [(1.0, (4,)), (0.0, (2,))]]
    for blocks in templates:
        for noise in (0.0, 1e-12, 1e-9):
            j = jordan_matrix(blocks)
            n = j.shape[0]
            s = random_conjugator(rng, n, cond_limit=20.0)
            yield s @ j @ np.linalg.inv(s) + noise * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    for m, _ in _robustness_cases():
        yield m
    # Neither separable nor mergeable (test_jordan_structure_cluster_ambiguity), at a few couplings.
    for coupling in (2e-6, 3e-6, 5e-6):
        yield np.array([[0.0, coupling], [0.0, 1.9e-7]])


def _bits(outcome):
    """A structure as exact bits, or an exception as its type and message."""
    if isinstance(outcome, Exception):
        return type(outcome).__name__, str(outcome)
    blocks = tuple((lam.real.hex(), lam.imag.hex(), sizes) for lam, sizes in outcome.blocks)
    return blocks, outcome.tolerance.hex(), outcome.norm.hex()


def test_jordan_equals_the_merge_ladder_reference_bitwise():
    """``_jordan``'s all-single shortcut gives, bit for bit, what the clustering and the merge ladder give,
    and raises where they raise, on about 600 matrices; ties at the last rung's radius take the ladder."""
    seen = {"shortcut": 0, "ladder": 0, "tie": 0, "merged": 0, "raised": 0}
    for m in _jordan_reference_cases():
        m = np.asarray(m, dtype=complex)
        norm = float(np.linalg.norm(m, 2))
        w = np.linalg.eigvals(m).tolist()
        outcomes = []
        for analyse in (_jordan, _ladder_jordan):
            try:
                outcomes.append(_bits(analyse(m, norm, w)))
            except (ClusterAmbiguityError, NumericsError) as exc:
                outcomes.append(_bits(exc))
        assert outcomes[0] == outcomes[1], m
        n = len(w)
        closest = min((abs(w[i] - w[j]) for i in range(n) for j in range(i + 1, n)), default=np.inf)
        widest = _last_rung_radius(n, max(1.0, norm)) if n > 1 else 0.0
        seen["shortcut" if closest > widest else "ladder"] += 1
        seen["tie"] += closest == widest
        seen["raised"] += isinstance(outcomes[0][0], str)
        seen["merged"] += not isinstance(outcomes[0][0], str) and len(outcomes[0][0]) < n
    assert sum(seen[k] for k in ("shortcut", "ladder")) >= 500
    assert min(seen.values()) >= 2, seen
