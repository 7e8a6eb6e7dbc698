"""Eigenvalue clustering, Jordan structure recovery, similarity search."""

import numpy as np
import pytest

from conftest import (
    SEED,
    assert_jordan_structure,
    jordan_matrix,
    random_conjugator,
)
from fuchsia.errors import (
    ClusterAmbiguityError,
    MatrixExpOverflowError,
    ValidationError,
)
from fuchsia.linalg import (
    DEFAULT_CLUSTER_TOL,
    JordanStructure,
    eigen_decompose,
    jordan_structure,
    matrix_exp,
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
    got = JordanStructure(blocks=((0.0 + 0j, (2, 1)), (1.0 + 0j, (1,))), tolerance=1e-7)
    assert got.dimension == 4
