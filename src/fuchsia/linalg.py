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
    stack, single = _square_stack(m, name)
    if not single:
        raise ValidationError(f"{name} must be square and non-empty, got shape {stack.shape}")
    return stack[0]


def _square_stack(m, name: str) -> tuple[np.ndarray, bool]:
    """``m`` as a validated (k, n, n) complex stack (a copy), and whether it was one 2-D matrix.

    A 2-D ``m`` is a stack of one, so the stacked functions of this module
    have one code path and unwrap only their result.
    """
    arr = np.array(m, dtype=complex)
    single = arr.ndim == 2
    stack = arr[None] if single else arr
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2] or 0 in stack.shape:
        raise ValidationError(f"{name} must be square and non-empty, got shape {arr.shape}")
    if not np.all(np.isfinite(stack.real)) or not np.all(np.isfinite(stack.imag)):
        raise ValidationError(f"{name} contains non-finite entries")
    return stack, single


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
    """Matrix exponential of a square complex matrix, or of each matrix of a (k, n, n) stack.

    Uses scaling-and-squaring with Pade approximants, one scipy call for
    the whole stack.  The zero matrix maps to the identity exactly; a
    non-finite result raises ``MatrixExpOverflowError`` naming the first
    matrix that overflowed.
    """
    import scipy.linalg

    stack, single = _square_stack(m, "matrix")
    # Overflow is detected on the result, so silence the intermediate
    # floating-point warnings the computation emits on the way there.
    with np.errstate(over="ignore", invalid="ignore"):
        result = scipy.linalg.expm(stack)
    finite = np.isfinite(result).all(axis=(1, 2))
    if not finite.all():
        index = int(np.argmin(finite))
        raise MatrixExpOverflowError(
            f"matrix exponential of matrix {index} overflowed "
            f"(input norm {operator_norm(stack[index]):.3e})"
        )
    return result[0] if single else result


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


def _mean(values) -> complex:
    """The mean of a cluster; a cluster of one is its own mean."""
    return complex(values[0]) if len(values) == 1 else complex(np.mean(values))


def eigen_decompose(m, tol: float):
    """Eigenvalues of ``m`` clustered at absolute distance ``tol``.

    Returns ``(eigenvalue, multiplicity)`` pairs where each eigenvalue is the
    mean of its cluster, ordered lexicographically by (real, imaginary).
    Multiplicities always sum to the dimension.  A (k, n, n) stack gets one
    ``eigvals`` call and a list of k such lists.
    """
    stack, single = _square_stack(m, "matrix")
    if not 0.0 <= tol < np.inf:
        raise ValidationError(f"tol must be nonnegative and finite, got {tol!r}")
    tables = []
    for w in _eigenvalues(stack).tolist():
        out = []
        for group in _chain_groups(w, tol):
            members = [w[i] for i in group]
            out.append((_mean(members), len(members)))
        out.sort(key=lambda p: (p[0].real, p[0].imag))
        tables.append(out)
    return tables[0] if single else tables


@dataclass(frozen=True)
class JordanStructure:
    """Jordan block structure: ``blocks[i] = (eigenvalue, sizes)``.

    ``sizes`` is a descending tuple of block sizes for that eigenvalue.
    Entries are ordered lexicographically by (real, imaginary) part, the
    ``tolerance`` field records the absolute clustering radius that was
    used, and ``norm`` the operator 2-norm of the analysed matrix.
    """

    blocks: tuple[tuple[complex, tuple[int, ...]], ...]
    tolerance: float
    norm: float

    @property
    def dimension(self) -> int:
        return sum(sum(sizes) for _, sizes in self.blocks)

    def match_blocks(self, other: "JordanStructure", tol: float):
        """Pair up eigenvalue clusters with ``other``.

        Returns a list of index pairs ``(i, j)`` such that size tuples agree
        and eigenvalues match within ``max(tol, 2 * max(self.tolerance,
        other.tolerance))``, or ``None`` when no such pairing exists.  This
        is the one structure-match rule: a cluster pair always matches
        within twice the larger of the two stored clustering radii.
        """
        match_tol = max(tol, 2.0 * max(self.tolerance, other.tolerance))
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


def jordan_structure(m):
    """Numerical Jordan block structure of a square complex matrix, or of each matrix of a stack.

    Eigenvalues are chained into clusters at radius
    ``DEFAULT_CLUSTER_TOL * max(1, norm)``, then a merge ladder joins groups
    whose scatter is consistent with defective blocks (noise amplifies like
    its k-th root through a block of size k).  Per-cluster block sizes come
    from nullity sequences of the cluster's Schur-restricted block with
    singular values thresholded relative to the expected noise at each power.

    A (k, n, n) stack gets one validation, one ``norm`` and one ``eigvals``
    call, whose values are bit for bit those of the matrices one by one, and
    a tuple of k structures; a 2-D matrix is a stack of one and gets its
    structure.  The clustering and the merge ladder run per matrix.

    Raises ``ClusterAmbiguityError`` when two final clusters sit closer than
    twice the base clustering radius, and ``NumericsError`` when a cluster's
    rank profile is not consistent with any block structure.
    """
    stack, single = _square_stack(m, "matrix")
    norms = np.linalg.norm(stack, 2, axis=(1, 2))
    structures = tuple(
        _jordan(arr, norm, w) for arr, norm, w in zip(stack, norms.tolist(), _eigenvalues(stack).tolist())
    )
    return structures[0] if single else structures


def _jordan(arr: np.ndarray, norm: float, w: list) -> JordanStructure:
    """The structure of ``jordan_structure`` for one matrix, its 2-norm and its eigenvalues."""
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
                sizes = _validate_cluster(arr, merged, other_reps, scale, rho0, tol, strict=True)
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
        sizes = _validate_cluster(arr, cluster, other_reps, scale, rho0, tol, strict=False)
        if sizes is None:
            raise NumericsError(
                f"rank profile of eigenvalue cluster near {reps[i]} is not "
                f"consistent with any Jordan structure at tolerance {tol:g}"
            )
        blocks.append((reps[i], sizes))
    return JordanStructure(blocks=tuple(blocks), tolerance=rho0, norm=norm)


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


def similarity_transform(a, b):
    """Search for s with ``s @ a = b @ s`` and ``s`` invertible.

    Returns ``None`` when the two Jordan structures do not match (no
    conjugator exists), otherwise a ``SimilarityResult`` whose residual
    satisfies ``|s a - b s|_F <= DEFAULT_CLUSTER_TOL * (|a| + |b|)``.  The
    intertwiner space is taken from the trailing right singular vectors of
    the Sylvester operator and searched over a fixed deterministic family of
    combinations (``_conjugators`` on the one pair); failure to find a
    well-conditioned certified candidate raises ``SimilaritySearchError``.
    """
    a = as_square_matrix(a, "a")
    b = as_square_matrix(b, "b")
    if a.shape != b.shape:
        raise ValidationError(f"dimension mismatch: {a.shape} vs {b.shape}")
    ja, jb = jordan_structure(np.stack([a, b]))
    pairs = ja.match_blocks(jb, DEFAULT_CLUSTER_TOL)
    if pairs is None:
        return None
    [found] = _conjugators(a[None], b[None], [(ja, jb, pairs)], DEFAULT_CLUSTER_TOL)
    if isinstance(found, SimilaritySearchError):
        raise found
    return found


def _conjugators(a: np.ndarray, b: np.ndarray, matches, tol: float) -> list:
    """The search of ``similarity_transform`` for k pairs of (n, n) matrices at once.

    ``a`` and ``b`` are (k, n, n) stacks and ``matches`` holds each pair's
    two Jordan structures and their block matching.  Returns one entry per
    pair: a ``SimilarityResult``, or the ``SimilaritySearchError`` its
    search met.  Every pair's Sylvester operator kron(a^T, I) - kron(I, b)
    is built by broadcasting and all get one full ``svd``; the intertwiners
    are the trailing right singular vectors, as many as the commutant
    dimension.  The candidates are those vectors and seven weighted sums of
    them, reshaped in F order, and all candidates of all pairs get one
    ``svd``; a pair keeps its first candidate whose ratio of extreme
    singular values is strictly the largest, normalised in Frobenius norm.
    Its residual |s a - b s|_F must be at most ``tol`` (|a|_2 + |b|_2), with
    the norms that the structures recorded, and the conditions come from
    one ``svd`` of the chosen conjugators.  The batched LAPACK calls give,
    bit for bit, what they give on each matrix alone.
    """
    k, n = a.shape[:2]
    eye = np.eye(n)
    # Entry (i n + p, j n + q) is a[j, i] I[p, q] - I[i, j] b[p, q], as np.kron multiplies it.
    at = a.transpose(0, 2, 1)
    sylvester = at[:, :, None, :, None] * eye[:, None, :] - eye[:, None, :, None] * b[:, None, :, None, :]
    _, _, vh = np.linalg.svd(sylvester.reshape(k, n * n, n * n))
    groups = []
    for (ja, jb, pairs), v in zip(matches, vh):
        dim = _commutant_dimension(ja, jb, pairs)
        basis = v[n * n - dim:].conj()
        # Every sum with geometric weights t^i is singular when the basis repeats one column
        # pattern, as for a diagonal a with a repeated eigenvalue; t^(i^2) weights are not.
        weights = [[t**i for i in range(dim)] for t in (1.0, -1.0, 2.0, 0.5, 1.0 + 0.5j)]
        weights = np.array(weights + [[t ** (i * i) for i in range(dim)] for t in (2.0, 1.0 + 0.5j)], complex)
        # One (1, dim) @ (dim, n^2) product per weight vector, as a vector @ matrix product rounds.
        groups.append(np.concatenate([basis, (weights[:, None, :] @ basis)[:, 0]]))
    candidates = np.concatenate(groups)
    sv = np.linalg.svd(candidates.reshape(-1, n, n).transpose(0, 2, 1), compute_uv=False)
    ratios = np.divide(sv[:, -1], sv[:, 0], out=np.full(len(sv), -1.0), where=sv[:, 0] != 0.0)
    found = [None] * k
    chosen = []  # (pair, conjugator, residual) of every pair whose conjugator is certified
    first = 0
    for index, ((ja, jb, _), x, y, group) in enumerate(zip(matches, a, b, groups)):
        best = first + int(np.argmax(ratios[first:first + len(group)]))
        first += len(group)
        if ratios[best] < 1e-12:
            found[index] = SimilaritySearchError(
                "matching Jordan structures but every candidate conjugator was "
                f"numerically singular (best ratio {ratios[best]:.3e})"
            )
            continue
        s = np.reshape(candidates[best], (n, n), order="F")
        s = s / np.linalg.norm(s)
        residual = float(np.linalg.norm(s @ x - y @ s))
        bound = tol * (ja.norm + jb.norm)
        if residual > bound:
            found[index] = SimilaritySearchError(
                f"conjugator residual {residual:.3e} exceeds certified bound {bound:.3e}"
            )
            continue
        chosen.append((index, s, residual))
    if chosen:
        singular = np.linalg.svd(np.stack([s for _, s, _ in chosen]), compute_uv=False)
        for (index, s, residual), values in zip(chosen, singular):
            found[index] = SimilarityResult(matrix=s, residual=residual, condition=float(values[0] / values[-1]))
    return found
