"""Numerical linear algebra for small dense complex matrices.

Provides eigenvalue clustering, matrix exponentials, numerical Jordan block
structure, and similarity (conjugator) search.  Everything here is
deterministic: no randomness is used anywhere, so repeated calls on equal
inputs return identical results.

Jordan structure is computed from nullity (Weyr) sequences of restricted
Schur blocks rather than from eigenvector chains, which keeps the result
stable under small perturbations.  Eigenvalues of a defective block scatter
like noise**(1/k) for a block of size k, so clustering cannot use a single
fixed radius; a merge ladder proposes wider groupings at amplified radii and
accepts a merge only when the merged cluster's rank profile is internally
consistent and the observed scatter is explainable by the block sizes the
profile claims.

scipy is imported inside the functions that use it, not at module level:
loading it adds about 0.3 s to every import of the package, and the
``monodromy`` and ``invert`` commands never need it.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    ClusterAmbiguityError,
    EigenConvergenceError,
    MatrixExpOverflowError,
    NumericsError,
    SimilaritySearchError,
    ValidationError,
)

DEFAULT_CLUSTER_TOL = 1e-7

# Merge-ladder calibration.  CHAIN_FACTOR widens the proposal radius at each
# rung, NOISE_FACTOR sets the per-power singular-value threshold above the
# expected noise ceiling, GAP_FACTOR is the cleanliness margin demanded of
# structural singular values during merge validation, and EXPLAIN_FACTOR is
# the allowed eigenvalue scatter per claimed block size, all relative to
# scale * tol**(1/size).
_CHAIN_FACTOR = 4.0
_NOISE_FACTOR = 4.0
_GAP_FACTOR = 4.0
_EXPLAIN_FACTOR = 10.0


def as_square_matrix(m, name: str = "matrix") -> np.ndarray:
    """Validate and return ``m`` as a square complex ndarray (a copy)."""
    arr = np.array(m, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
        raise ValidationError(f"{name} must be square and non-empty, got shape {arr.shape}")
    if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
        raise ValidationError(f"{name} contains non-finite entries")
    return arr


def check_tolerance(tol: float, name: str) -> None:
    """Raise ``ValidationError`` naming ``name`` unless ``tol`` is positive and finite."""
    if not 0.0 < tol < np.inf:
        raise ValidationError(f"{name} must be positive and finite, got {tol!r}")


def operator_norm(m: np.ndarray) -> float:
    return float(np.linalg.norm(m, 2)) if m.size else 0.0


def min_cost_assignment(cost: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of a minimum-cost matching on ``cost``."""
    import scipy.optimize

    return scipy.optimize.linear_sum_assignment(cost)


def matrix_exp(m) -> np.ndarray:
    """Matrix exponential of a square complex matrix.

    Uses scaling-and-squaring with Pade approximants.  The zero matrix maps
    to the identity exactly; a non-finite result raises
    ``MatrixExpOverflowError``.
    """
    import scipy.linalg

    arr = as_square_matrix(m)
    # Overflow is detected on the result, so silence the intermediate
    # floating-point warnings the computation emits on the way there.
    with np.errstate(over="ignore", invalid="ignore"):
        result = scipy.linalg.expm(arr)
    if not np.all(np.isfinite(result.real)) or not np.all(np.isfinite(result.imag)):
        raise MatrixExpOverflowError(
            f"matrix exponential overflowed (input norm {operator_norm(arr):.3e})"
        )
    return result


def _eigenvalues(m: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:
        raise EigenConvergenceError(f"eigenvalue iteration failed: {exc}") from exc


def _chain_groups(values: list[complex], radius: float) -> list[list[int]]:
    """Partition indices into connected components of the radius graph."""
    k = len(values)
    parent = list(range(k))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(k):
        for j in range(i + 1, k):
            if abs(values[i] - values[j]) <= radius:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[rj] = ri
    groups: dict[int, list[int]] = {}
    for i in range(k):
        groups.setdefault(find(i), []).append(i)
    out = list(groups.values())
    out.sort(key=lambda g: (values[g[0]].real, values[g[0]].imag))
    return out


def eigen_decompose(m, tol: float = DEFAULT_CLUSTER_TOL) -> list[tuple[complex, int]]:
    """Eigenvalues of ``m`` clustered at absolute distance ``tol``.

    Returns ``(eigenvalue, multiplicity)`` pairs where each eigenvalue is the
    mean of its cluster, ordered lexicographically by (real, imaginary).
    Multiplicities always sum to the dimension.
    """
    arr = as_square_matrix(m)
    if not 0.0 <= tol < np.inf:
        raise ValidationError(f"tol must be nonnegative and finite, got {tol!r}")
    w = list(_eigenvalues(arr))
    out = []
    for group in _chain_groups(w, tol):
        members = [w[i] for i in group]
        rep = complex(np.mean(members))
        out.append((rep, len(members)))
    out.sort(key=lambda p: (p[0].real, p[0].imag))
    return out


@dataclass(frozen=True)
class JordanStructure:
    """Jordan block structure: ``blocks[i] = (eigenvalue, sizes)``.

    ``sizes`` is a descending tuple of block sizes for that eigenvalue.
    Entries are ordered lexicographically by (real, imaginary) part and the
    ``tolerance`` field records the absolute clustering radius that was used.
    """

    blocks: tuple[tuple[complex, tuple[int, ...]], ...]
    tolerance: float

    @property
    def dimension(self) -> int:
        return sum(sum(sizes) for _, sizes in self.blocks)

    def match_blocks(self, other: "JordanStructure", match_tol: float | None = None):
        """Pair up eigenvalue clusters with ``other``.

        Returns a list of index pairs ``(i, j)`` such that eigenvalues match
        within ``match_tol`` and size tuples agree, or ``None`` when no such
        pairing exists.  The default ``match_tol`` is twice the larger of the
        two stored clustering radii.
        """
        if match_tol is None:
            match_tol = 2.0 * max(self.tolerance, other.tolerance)
        if len(self.blocks) != len(other.blocks) or self.dimension != other.dimension:
            return None
        k = len(self.blocks)
        cost = np.zeros((k, k))
        for i, (lam, _) in enumerate(self.blocks):
            for j, (mu, _) in enumerate(other.blocks):
                cost[i, j] = abs(lam - mu)
        rows, cols = min_cost_assignment(cost)
        pairs = []
        for i, j in zip(rows, cols):
            if cost[i, j] > match_tol:
                return None
            if self.blocks[i][1] != other.blocks[j][1]:
                return None
            pairs.append((int(i), int(j)))
        return pairs

    def same_structure(self, other: "JordanStructure", match_tol: float | None = None) -> bool:
        return self.match_blocks(other, match_tol) is not None


def _schur_restrict(m: np.ndarray, lam: complex, other_reps: list[complex], mu: int):
    """Leading mu x mu Schur block for the eigenvalue group nearest ``lam``.

    Returns ``None`` when the sorted Schur form does not isolate exactly
    ``mu`` eigenvalues, which a caller treats as a failed grouping.
    """
    import scipy.linalg

    n = m.shape[0]
    if mu == n:
        t, _ = scipy.linalg.schur(m, output="complex")
        return t

    def selector(w):
        d = abs(w - lam)
        return bool(all(d < abs(w - r) for r in other_reps))

    try:
        t, _, sdim = scipy.linalg.schur(m, output="complex", sort=selector)
    except (scipy.linalg.LinAlgError, ValueError):
        return None
    if sdim != mu:
        return None
    return t[:mu, :mu]


def _weyr_profile(t11: np.ndarray, lam: complex, r_eff: float):
    """Nullity sequence of (t11 - lam I)**k with noise-aware thresholds.

    Returns ``(nullities, min_gap)`` where ``min_gap`` is the smallest ratio
    of a kept singular value to its threshold (inf when every power dropped
    all singular values).
    """
    mu = t11.shape[0]
    a = t11 - lam * np.eye(mu)
    anorm = operator_norm(a)
    base = max(anorm, r_eff)
    power = np.eye(mu, dtype=complex)
    nullities = [0]
    min_gap = np.inf
    for k in range(1, mu + 1):
        power = power @ a
        sv = np.linalg.svd(power, compute_uv=False)
        theta = _NOISE_FACTOR * mu * r_eff * base ** (k - 1)
        kept = sv[sv > theta]
        if kept.size:
            min_gap = min(min_gap, float(kept.min() / theta))
        nullity = mu - int(kept.size)
        if nullity <= nullities[-1]:
            break
        nullities.append(nullity)
        if nullity == mu:
            break
    return nullities, min_gap


def _sizes_from_weyr(nullities: list[int], mu: int):
    """Convert a nullity sequence into block sizes, or None if inconsistent."""
    if nullities[-1] != mu:
        return None
    diffs = [nullities[k + 1] - nullities[k] for k in range(len(nullities) - 1)]
    for k in range(len(diffs) - 1):
        if diffs[k + 1] > diffs[k]:
            return None
    sizes = []
    diffs.append(0)
    for k in range(len(diffs) - 1):
        sizes.extend([k + 1] * (diffs[k] - diffs[k + 1]))
    sizes.sort(reverse=True)
    return tuple(sizes)


def _validate_cluster(
    m: np.ndarray,
    members: list[complex],
    other_reps: list[complex],
    scale: float,
    rho0: float,
    tol: float,
    strict: bool,
):
    """Check that ``members`` form a coherent eigenvalue cluster of ``m``.

    Returns the descending block-size tuple on success, None on failure.
    ``strict`` additionally demands clean singular-value gaps, which is how
    speculative merges are filtered; the final per-cluster pass relaxes it.
    """
    mu = len(members)
    lam = complex(np.mean(members))
    offsets = sorted(abs(w - lam) for w in members)
    r_eff = max(offsets[-1], rho0)
    t11 = _schur_restrict(m, lam, other_reps, mu)
    if t11 is None:
        return None
    nullities, min_gap = _weyr_profile(t11, lam, r_eff)
    sizes = _sizes_from_weyr(nullities, mu)
    if sizes is None:
        return None
    if strict and np.isfinite(min_gap) and min_gap < _GAP_FACTOR:
        return None
    # Scatter feasibility: each claimed block of size s tolerates eigenvalue
    # offsets up to EXPLAIN_FACTOR * scale * tol**(1/s); sorted offsets must
    # fit into sorted slot allowances (Hall's condition for thresholds).
    slots = []
    for s in sizes:
        slots.extend([_EXPLAIN_FACTOR * scale * tol ** (1.0 / s)] * s)
    slots.sort()
    for off, slot in zip(offsets, slots):
        if off > slot:
            return None
    return sizes


def jordan_structure(m, tol: float = DEFAULT_CLUSTER_TOL) -> JordanStructure:
    """Numerical Jordan block structure of a square complex matrix.

    Eigenvalues are chained into clusters at radius ``tol * max(1, norm)``,
    then a merge ladder joins groups whose scatter is consistent with
    defective blocks (noise amplifies like its k-th root through a block of
    size k).  Per-cluster block sizes come from nullity sequences of the
    cluster's Schur-restricted block with singular values thresholded
    relative to the expected noise at each power.

    Raises ``ClusterAmbiguityError`` when two final clusters sit closer than
    twice the base clustering radius, and ``NumericsError`` when a cluster's
    rank profile is not consistent with any block structure.
    """
    arr = as_square_matrix(m)
    check_tolerance(tol, "clustering tolerance")
    n = arr.shape[0]
    scale = max(1.0, operator_norm(arr))
    rho0 = tol * scale
    w = list(_eigenvalues(arr))

    clusters = [[w[i] for i in group] for group in _chain_groups(w, rho0)]

    for rung in range(2, n + 1):
        radius = min(_CHAIN_FACTOR * scale * tol ** (1.0 / rung), 0.25 * scale)
        changed = True
        while changed and len(clusters) > 1:
            changed = False
            reps = [complex(np.mean(c)) for c in clusters]
            for group in _chain_groups(reps, radius):
                if len(group) < 2:
                    continue
                merged = []
                for idx in group:
                    merged.extend(clusters[idx])
                other_reps = [reps[i] for i in range(len(reps)) if i not in group]
                sizes = _validate_cluster(arr, merged, other_reps, scale, rho0, tol, strict=True)
                if sizes is not None:
                    clusters = [c for i, c in enumerate(clusters) if i not in group]
                    clusters.append(merged)
                    changed = True
                    break

    reps = [complex(np.mean(c)) for c in clusters]
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
        sizes = _validate_cluster(arr, cluster, other_reps, scale, rho0, tol, strict=False)
        if sizes is None:
            raise NumericsError(
                f"rank profile of eigenvalue cluster near {reps[i]} is not "
                f"consistent with any Jordan structure at tolerance {tol:g}"
            )
        blocks.append((reps[i], sizes))
    return JordanStructure(blocks=tuple(blocks), tolerance=rho0)


@dataclass(frozen=True)
class SimilarityResult:
    """Conjugator ``s`` with ``s @ a = b @ s``, its residual and condition."""

    matrix: np.ndarray
    residual: float
    condition: float


def _commutant_dimension(ja: JordanStructure, jb: JordanStructure, pairs) -> int:
    dim = 0
    for i, j in pairs:
        for si in ja.blocks[i][1]:
            for sj in jb.blocks[j][1]:
                dim += min(si, sj)
    return dim


def similarity_transform(a, b, tol: float = 1e-7):
    """Search for s with ``s @ a = b @ s`` and ``s`` invertible.

    Returns ``None`` when the two Jordan structures at the default
    clustering radius differ (no conjugator exists), otherwise a
    ``SimilarityResult`` whose residual satisfies
    ``|s a - b s|_F <= tol * (|a| + |b|)``.  The intertwiner space is taken
    from the trailing right singular vectors of the Sylvester operator and
    searched over a fixed deterministic family of combinations; failure to
    find a well-conditioned certified candidate raises
    ``SimilaritySearchError``.
    """
    a = as_square_matrix(a, "a")
    b = as_square_matrix(b, "b")
    if a.shape != b.shape:
        raise ValidationError(f"dimension mismatch: {a.shape} vs {b.shape}")
    ja = jordan_structure(a)
    jb = jordan_structure(b)
    pairs = ja.match_blocks(jb, max(2.0 * max(ja.tolerance, jb.tolerance), tol))
    if pairs is None:
        return None
    return _conjugator(a, b, ja, jb, pairs, tol)


def _conjugator(a: np.ndarray, b: np.ndarray, ja: JordanStructure, jb: JordanStructure, pairs, tol: float):
    """The search of ``similarity_transform``, given both Jordan structures and their block matching."""
    n = a.shape[0]
    dim = _commutant_dimension(ja, jb, pairs)
    eye = np.eye(n)
    sylvester = np.kron(a.T, eye) - np.kron(eye, b)
    _, _, vh = np.linalg.svd(sylvester)
    basis = vh[n * n - dim:].conj()

    candidates = [basis[i] for i in range(dim)]
    for t in (1.0, -1.0, 2.0, 0.5, 1.0 + 0.5j):
        weights = np.array([t**k for k in range(dim)], dtype=complex)
        candidates.append(weights @ basis)

    best = None
    best_ratio = -1.0
    for vec in candidates:
        s = np.reshape(vec, (n, n), order="F")
        sv = np.linalg.svd(s, compute_uv=False)
        if sv[0] == 0.0:
            continue
        ratio = float(sv[-1] / sv[0])
        if ratio > best_ratio:
            best_ratio = ratio
            best = s
    if best is None or best_ratio < 1e-12:
        raise SimilaritySearchError(
            "matching Jordan structures but every candidate conjugator was "
            f"numerically singular (best ratio {best_ratio:.3e})"
        )
    s = best / np.linalg.norm(best)
    residual = float(np.linalg.norm(s @ a - b @ s))
    bound = tol * (operator_norm(a) + operator_norm(b))
    if residual > bound:
        raise SimilaritySearchError(
            f"conjugator residual {residual:.3e} exceeds certified bound {bound:.3e}"
        )
    sv = np.linalg.svd(s, compute_uv=False)
    condition = float(sv[0] / sv[-1])
    return SimilarityResult(matrix=s, residual=residual, condition=condition)
