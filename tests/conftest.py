"""Shared fixtures: seeded generators and system factories.

Set FUCHSIA_SEED to fuzz the property tests with a different seed; the
default keeps runs reproducible.
"""

import os

import numpy as np
import pytest

from fuchsia.system import validate_system

SEED = int(os.environ.get("FUCHSIA_SEED", "20240815"))


@pytest.fixture
def rng():
    return np.random.default_rng(SEED)


def sample_poles(rng, n, radius=2.0, separation=0.5):
    """Poles in the disk |z| <= radius with pairwise separation."""
    while True:
        pts = rng.uniform(-radius, radius, size=(n, 2))
        poles = [complex(x, y) for x, y in pts]
        if all(abs(p) <= radius for p in poles) and all(
            abs(poles[i] - poles[j]) >= separation
            for i in range(n)
            for j in range(i + 1, n)
        ):
            return poles


def diagonal_system(rng, p, n):
    """Commuting fixture: simultaneously diagonal real residues.

    Eigenvalues are real, drawn from (-0.45, 0.45) including the forced
    last residue, so every pole is automatically non-resonant.  Returns the
    system together with the closed-form monodromy exp(2 pi i B_j) computed
    directly from the diagonal entries.
    """
    poles = sample_poles(rng, n)
    while True:
        diags = rng.uniform(-0.45, 0.45, size=(n - 1, p))
        last = -diags.sum(axis=0)
        if np.all(np.abs(last) < 0.45):
            break
    entries = np.vstack([diags, last[None, :]])
    residues = [np.diag(entries[j].astype(complex)) for j in range(n)]
    system = validate_system(poles, residues)
    expected = [np.diag(np.exp(2j * np.pi * entries[j])) for j in range(n)]
    return system, expected


def generic_system(rng, p=2, n=3, bound=0.4):
    """Non-commuting, non-resonant random fixture with |B_j| <= bound.

    Needs at least 3 poles: with 2, B2 = -B1 commutes with B1.
    """
    if n < 3:
        raise ValueError(f"generic_system needs at least 3 poles, got {n}")
    poles = sample_poles(rng, n)
    while True:
        mats = [
            rng.normal(size=(p, p)) + 1j * rng.normal(size=(p, p))
            for _ in range(n - 1)
        ]
        mats = [0.5 * bound * m / max(1.0, np.linalg.norm(m, 2)) for m in mats]
        last = -sum(mats)
        if np.linalg.norm(last, 2) > bound:
            continue
        residues = mats + [last]
        if p >= 2:
            commutator = residues[0] @ residues[1] - residues[1] @ residues[0]
            if np.linalg.norm(commutator) < 1e-3:
                continue
        # Keep residue spectra simple so Jordan recovery of exp(2 pi i B)
        # is never ambiguous at default tolerance.
        separated = True
        for b in residues:
            eigs = np.linalg.eigvals(b)
            for i in range(p):
                for j in range(i + 1, p):
                    if abs(eigs[i] - eigs[j]) < 0.02:
                        separated = False
        if separated:
            return validate_system(poles, residues)


def jordan_block_system():
    """Non-resonant 3-pole system whose residue at 0 is a 2x2 Jordan block.

    The single eigenvalues of exp(2 pi i B1) and of its monodromy scatter
    like the square root of the rounding error; their mean does not.
    """
    b1 = np.array([[0.2, 0.1], [0.0, 0.2]], dtype=complex)
    b2 = np.array([[-0.1, 0.05], [0.03, 0.15]], dtype=complex)
    return validate_system([0.0, 1.0, 1j], [b1, b2, -b1 - b2])


def random_conjugator(rng, n, cond_limit=100.0):
    """Random invertible matrix with condition number below the limit."""
    while True:
        s = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        sv = np.linalg.svd(s, compute_uv=False)
        if sv[-1] > 0 and sv[0] / sv[-1] <= cond_limit:
            return s


def jordan_matrix(blocks):
    """Exact Jordan matrix from ((eigenvalue, sizes), ...)."""
    total = sum(sum(sizes) for _, sizes in blocks)
    j = np.zeros((total, total), dtype=complex)
    at = 0
    for lam, sizes in blocks:
        for size in sizes:
            for k in range(size):
                j[at + k, at + k] = lam
                if k + 1 < size:
                    j[at + k, at + k + 1] = 1.0
            at += size
    return j


def assert_jordan_structure(observed, expected_blocks, eig_tol=1e-4):
    """Observed JordanStructure matches ((eigenvalue, sizes desc), ...)."""
    assert len(observed.blocks) == len(expected_blocks), (
        f"expected {len(expected_blocks)} eigenvalue clusters, "
        f"got {observed.blocks}"
    )
    remaining = list(observed.blocks)
    for lam, sizes in expected_blocks:
        match = None
        for k, (mu, got_sizes) in enumerate(remaining):
            if abs(mu - lam) < eig_tol:
                match = k
                assert got_sizes == tuple(sorted(sizes, reverse=True)), (
                    f"eigenvalue {lam}: expected sizes {sizes}, got {got_sizes}"
                )
                break
        assert match is not None, f"no cluster found near {lam}: {observed.blocks}"
        remaining.pop(match)
