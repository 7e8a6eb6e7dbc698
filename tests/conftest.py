"""Shared fixtures: seeded generators and system factories.

Set FUCHSIA_SEED to fuzz the property tests with a different seed; the
default keeps runs reproducible.
"""

import os

# One BLAS thread unless the caller sets its own: with the default pool,
# tests on systems of dimension 30 or more ran 30x slower or worse while
# other processes kept the cores busy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest

from fuchsia.system import FuchsianSystem, validate_system

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


def clustered_pair_system():
    """Generic 2x2 system on 5 poles, poles 2 and 4 1e-3 apart.

    Unit 11 of the benchmark's verify-mixed pool on seed 140, a system of
    its clustered class.  The literals are the system's exact doubles, as
    (re, im) pairs.
    """
    return FuchsianSystem.from_dict(
        {
            "dimension": 2,
            "poles": [
                [-0.29865535461696124, 0.10492401761712422],
                [1.4013859723488085, -0.2565571137683835],
                [-1.6058736511743832, 0.3356612702885564],
                [1.1872655242078913, 1.5749017278798827],
                [-1.6052743629921977, 0.3348607369196749],
            ],
            "residues": [
                [
                    [
                        [0.05976791597193347, 0.009653445858743344],
                        [-0.04019696508351556, -0.1062961574564279],
                    ],
                    [
                        [0.0457967864613521, 0.05065778085181608],
                        [0.14547417588923503, 0.023800076806425072],
                    ],
                ],
                [
                    [
                        [0.003634128319630249, 0.06057413248180077],
                        [0.020475046709928273, 0.05557895102560086],
                    ],
                    [
                        [-0.09113872440936109, 0.11274035316275352],
                        [-0.11690281860202527, -0.029519318777158545],
                    ],
                ],
                [
                    [
                        [-0.12408070857397911, -0.11858000318024123],
                        [0.04156208414007195, -0.0676233918174089],
                    ],
                    [
                        [0.0026523383579638636, -0.032131650964050094],
                        [0.01223118070823049, -0.10252732273281474],
                    ],
                ],
                [
                    [
                        [0.1258794058618231, -0.09520555422137782],
                        [0.03774211565172441, -0.017545978144700346],
                    ],
                    [
                        [0.10264589167013186, 0.018327983049927336],
                        [-0.08839454006811924, 0.07078813537659777],
                    ],
                ],
                [
                    [
                        [-0.06520074157940772, 0.14355797906107493],
                        [-0.05958228141820908, 0.13588657639293628],
                    ],
                    [
                        [-0.05995629208008673, -0.14959446610044683],
                        [0.04759200207267899, 0.03745842932695044],
                    ],
                ],
            ],
        }
    )


def jordan_block_system():
    """Non-resonant 3-pole system whose residue at 0 is a 2x2 Jordan block.

    The single eigenvalues of exp(2 pi i B1) and of its monodromy scatter
    like the square root of the rounding error; their mean does not.
    """
    b1 = np.array([[0.2, 0.1], [0.0, 0.2]], dtype=complex)
    b2 = np.array([[-0.1, 0.05], [0.03, 0.15]], dtype=complex)
    return validate_system([0.0, 1.0, 1j], [b1, b2, -b1 - b2])


def reference_transfer(field, corners):
    """Transfer of dY/dz = A(z) Y along the polyline through ``corners``, by
    scipy's DOP853 (rtol 1e-13, atol 1e-15), ``field`` mapping z to A(z).

    Each line z0 -> z0 + h is dY/dt = h A(z0 + t h) Y on t in [0, 1]: a
    reference that shares no code with the package's continuation.
    """
    from scipy.integrate import solve_ivp

    n = len(field(corners[0]))
    y = np.eye(n, dtype=complex)
    for z0, z1 in zip(corners[:-1], corners[1:]):
        h = z1 - z0
        solution = solve_ivp(
            lambda t, v: (h * field(z0 + t * h) @ v.reshape(n, n)).ravel(),
            (0.0, 1.0),
            y.ravel(),
            method="DOP853",
            rtol=1e-13,
            atol=1e-15,
        )
        assert solution.success, solution.message
        y = solution.y[:, -1].reshape(n, n)
    return y


def dense_variational_residues(residues, scale):
    """The residues of Y stacked with its ``scale``-scaled residue derivatives, built densely in block order.

    For each free entry theta = B_k[p, q] (k before the last pole) the
    block column [Y; scale S_1; ...] has residues kron(I_{K+1}, B_j) plus
    +scale at row (theta + 1, p), column (0, q) of B_k's and -scale there
    in the last pole's: the reference for ``inverse._VariationalField``.
    """
    dim = residues[0].shape[0]
    last = len(residues) - 1
    params = last * dim * dim
    stacked = [np.kron(np.eye(params + 1), b) for b in residues]
    for theta in range(params):
        k, entry = divmod(theta, dim * dim)
        p, q = divmod(entry, dim)
        row = (theta + 1) * dim + p
        stacked[k][row, q] += scale
        stacked[last][row, q] -= scale
    return stacked


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
