"""Monodromy by analytic continuation and the generator-comparison report.

The fundamental solution of dY/dz = A(z) Y, A(z) = sum_p B_p / (z - a_p),
is continued along paths by Taylor hops (the holonomic-function method of
Chudnovsky & Chudnovsky and of van der Hoeven, in partial-fraction form).
Transfer matrices obey Y(end) = T Y(start), so the transfer of gamma2
after gamma1 is T2 @ T1.  A pole loop is an approach, a circle and the
exact reverse of the approach, so its transfer is T^-1 C T and its two
legs are the approach and the circle.  ``paths.hops`` cuts every leg into
hops z -> z + h with |h| at most half the distance from z to every pole,
and all hops of all loops are the columns of one batch.  A hop sums its
Taylor series by a recurrence with one product with the residues per
term; a scalar majorant bounds what the terms left out can add, so each
path takes the terms its composed bound needs, with no step size and no
controller.  Hops continue the first block column [I_m; 0] and compose in
that form (``_compose``), so the inverse solver continues just n columns
of its variational system.

``verify_theorem`` compares the monodromy around each pole against the
exponential generator exp(2 pi i B_j) from one Jordan analysis of each:
spectra, block structures, and an explicit conjugator, with resonant poles
reported but excluded from the hypothesis.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import zip_longest

import numpy as np

from .errors import (
    NonFiniteError,
    ValidationError,
)
from .linalg import (
    SimilarityResult,
    _conjugators,
    check_tolerance,
    eigen_decompose,  # noqa: F401 - perfbench/spans.py traces this name here
    jordan_structure,
    matrix_exp,
    min_cost_assignment,
    similarity_transform,  # noqa: F401 - perfbench/spans.py traces this name here
)
from .paths import (
    HOP_RATIO,
    LOOP_CONVENTION,
    ContinuationPath,
    build_loops,
    composition_order,
    default_base_point,
    hops,
    path_clearance_audit,  # noqa: F401 - perfbench/spans.py traces this name here
    segment_distances,
)
from .rational import ComplexRational, polynomial_gcd
from .system import TWO_PI_I, FuchsianSystem, is_non_resonant

DEFAULT_INTEGRATION_TOL = 1e-9
DEFAULT_VERIFY_TOL = 1e-7


def coefficient_function(system: FuchsianSystem):
    """The system's field: points -> (weights (M, P), residues (P, N, N)).

    A(z_i) = sum_p weights[i, p] residues[p], with the partial-fraction
    weights 1 / (z_i - a_p) and the residues B_p of ``partial_fractions``.
    """
    return system.partial_fractions


def _apply_residues(operator, stack, out):
    """Write sum_p R_p stack[p] into ``out``, (N, m, B).

    ``operator`` is [R_1 ... R_P] as one (N, P N) matrix and ``stack``
    (P, N, m, B), so the sum is one (N, P N) @ (P N, m B) product.
    """
    np.matmul(operator, stack.reshape(operator.shape[1], -1), out=out.reshape(len(out), -1))


def _hop_bounds(tail, deviation, majorant, head, owner, count):
    """Composed truncation bound of each group of hops in ``owner``.

    A hop's exact and computed transfers lie within ``deviation`` d_i of
    the identity and within ``tail`` tau_i of each other, so both have norm
    at most n_i = 1 + d_i, and their inverses at most n'_i = 1 / (1 - d_i),
    or the hop's ``majorant`` when d_i >= 1.  The error of a product is the
    sum of each factor's error between the factors after and before it, so
    a group is off by at most prod_j n_j sum_i tau_i / n_i; a ``head`` hop,
    which a loop T^-1 C T also runs backward (off by n'^2 tau), adds the
    factor n'_i and the term n'_i tau_i.
    """
    near = 1.0 + deviation
    inverse = np.divide(1.0, 1.0 - deviation, out=majorant.copy(), where=deviation < 1.0)
    scale = np.bincount(owner, np.log(near) + head * np.log(inverse), count)
    return np.exp(scale) * np.bincount(owner, tail / near + head * tail * inverse, count)


def _compose(columns: np.ndarray, runs: np.ndarray) -> np.ndarray:
    """First block columns of the products of the factors of each run.

    ``columns`` (H, N, m) holds each factor's first block column [T; S],
    T its top m x m block and S the rest as m x m blocks, and ``runs`` (H,)
    the sorted run of each factor, first factor first.  For transfers
    [[T, 0], [S, I (x) T]] (every transfer when m = N, every variational
    transfer of ``inverse``) Phi2 Phi1 has the column
    [T2 T1; S2 T1 + (I (x) T2) S1].  Neighbours are multiplied pairwise,
    all runs at once, until each run is one factor: (runs, N, m).
    """
    m = columns.shape[2]
    t, s = columns[:, :m], columns[:, m:].reshape(len(columns), -1, m, m)
    while True:
        position = np.arange(len(runs)) - np.searchsorted(runs, runs)
        if not position.any():
            return np.concatenate([t, s.reshape(len(t), -1, m)], axis=1)
        first = np.flatnonzero(position % 2 == 0)
        pair = first + 1 < len(runs)
        pair[pair] = runs[first[pair] + 1] == runs[first[pair]]
        lo = first[pair]
        t_lo, s_lo, t_hi, s_hi = t[lo], s[lo], t[lo + 1], s[lo + 1]
        t, s, runs = t[first], s[first], runs[first]
        s[pair] = s_hi @ t_lo[:, None] + t_hi[:, None] @ s_lo
        t[pair] = t_hi @ t_lo


def _integrate_legs(field, cut, start: np.ndarray, tol: float):
    """Continue the (N, m) value ``start`` along every leg of ``cut``, one hop per batch column.

    ``field`` maps the B hop starts, in one call, to ``(weights (B, P),
    residues (P, N, N))`` with A(z_i) = sum_p weights[i, p] residues[p].
    Hop z -> z + h has g_p = h weights_p, and from y_0 = start,
    U_{p,-1} = 0, m_0 = |start|_2, M_{p,-1} = 0 and b_p = |B_p|_2 it runs
        U_{p,k} = g_p (y_k - U_{p,k-1}),  y_{k+1} = sum_p B_p U_{p,k} / (k + 1),
        M_{p,k} = |g_p| (m_k + M_{p,k-1}),  m_{k+1} = sum_p b_p M_{p,k} / (k + 1),
    and sums Y(z + h) = sum_k y_k; the y_k are the (N, m, B) columns and
    each term is one ``_apply_residues``.  The majorant bounds
    |y_k|_2 <= m_k, and m_{k+1} <= G (k + S) / (k + 1) m_k, the coefficient
    ratio of the single factor (1 - G u)^-S with G = max_p |g_p| and
    S = sum_p b_p, so the terms after the k-th add at most
    tau = m_k r / (1 - r), r = G max(1, (k + S) / (k + 1)).  After each
    term a path's composed bound (``_hop_bounds``, with the deviations
    |sum - start|_F + tau) is checked, skipped while the path's summed
    tails, which it is never below, exceed ``tol``; once it meets ``tol``
    the path leaves the batch.  The term count depends on the path alone,
    so a path gets the same values in any batch.  A non-finite majorant,
    value or bound raises ``NonFiniteError``.

    Returns one ``(legs, error_estimate)`` per path, each leg its hops'
    values composed by ``_compose``.  The estimate is the composed bound,
    for a loop at most cond(T) E_C + |T^-1| (|C| + E_C + |M| + E) E_T with
    E_T, E_C the legs' bounds, E the loop's and M = T^-1 C T, plus a
    rounding model eps W max(1, |Y|_2), W the sum over hops (a head hop
    twice) of sum_k m_k, which bounds the magnitudes a hop adds up however
    they cancel.  Norms are of the top m x m blocks: for m = N the
    transfers, for ``inverse``'s variational systems the system's own.
    """
    legs = [leg for path in cut for leg in path]
    leg_of = np.repeat(np.arange(len(legs)), [len(leg) - 1 for leg in legs])
    owner = np.repeat(np.arange(len(cut)), [len(path) for path in cut])[leg_of]
    heads = np.array([len(path) == 2 and i == 0 for path in cut for i in range(len(path))])[leg_of]
    weights, residues = field(np.concatenate([leg[:-1] for leg in legs]))
    g = np.concatenate([np.diff(leg) for leg in legs]) * weights.T  # (P, B)
    size = np.abs(g)
    norms = np.linalg.norm(residues, 2, axis=(1, 2))
    total = float(norms.sum())
    count = len(leg_of)
    m = start.shape[1]
    operator = residues.transpose(1, 0, 2).reshape(len(start), -1)
    values = np.empty((count,) + start.shape, dtype=complex)
    tails = np.empty(count)
    deviations = np.empty(count)
    masses = np.full(count, float(np.linalg.norm(start, 2)))  # sum_k m_k
    term = np.repeat(start[:, :, None], count, axis=2)  # y_k
    sums = term.copy()
    stack = np.zeros((len(g),) + term.shape, dtype=complex)  # U_{p,k}
    bound = np.full(count, float(np.linalg.norm(start, 2)))  # m_k
    partial = np.zeros_like(size)  # M_{p,k}
    k = 0
    # Overflows are left as inf here; the isfinite checks below raise NonFiniteError on them.
    with np.errstate(over="ignore"):
        majorants = np.exp(-(norms @ np.log1p(-size)))  # prod_p (1 - |g_p|)^-b_p bounds |Phi^-1|
        # The active hops: their ids, paths, flags and majorant data, and their state on the last axis.
        ids, path_of, head, majorant, reach = np.arange(count), owner, heads, majorants, size.max(axis=0)
        while ids.size:
            partial = size * (bound + partial)
            bound = norms @ partial / (k + 1)
            if not np.isfinite(bound).all():
                raise NonFiniteError("continuation majorant overflowed: the residues are too large")
            np.subtract(term, stack, out=stack)
            stack *= g[:, None, None, :]
            _apply_residues(operator, stack, term)
            k += 1
            term /= k
            sums += term
            masses[ids] += bound
            ratio = reach * max(1.0, (k + total) / (k + 1))
            tau = np.divide(bound * ratio, 1.0 - ratio, out=np.full(len(ids), np.inf), where=ratio < 1.0)
            # Every norm in a composed bound is at least 1, so it is at least the path's summed tails.
            checked = np.bincount(path_of, tau, len(cut)) <= tol
            if not checked[path_of].any():
                continue
            near = np.linalg.norm(sums - start[:, :, None], axis=(0, 1)) + tau
            composed = _hop_bounds(tau, near, majorant, head, path_of, len(cut))
            if not np.isfinite(composed[checked]).all():
                raise NonFiniteError("continuation bound overflowed: the hops' transfers are too large")
            done = (checked & (composed <= tol))[path_of]
            if not done.any():
                continue
            if not np.isfinite(sums[..., done]).all():
                raise NonFiniteError("continuation produced a non-finite solution value")
            values[ids[done]] = sums[..., done].transpose(2, 0, 1)
            tails[ids[done]] = tau[done]
            deviations[ids[done]] = near[done]
            keep = ~done
            ids, path_of, head, majorant, reach, bound = (a[keep] for a in (ids, path_of, head, majorant, reach, bound))
            # C-contiguous, unlike a[..., keep]: the terms are written through reshaped views.
            g, size, partial, term, sums, stack = (
                np.compress(keep, a, axis=-1) for a in (g, size, partial, term, sums, stack)
            )
    composed = _compose(values, leg_of)
    estimates = _hop_bounds(tails, deviations, majorants, heads, owner, len(cut))
    sizes = np.linalg.norm(composed[:, :m], 2, axis=(1, 2))
    starts = np.cumsum([0] + [len(path) for path in cut[:-1]])
    is_loop = np.array([len(path) == 2 for path in cut])
    loops = starts[is_loop]
    if loops.size:
        leg_bounds = _hop_bounds(tails, deviations, majorants, 0.0, leg_of, len(legs))
        approach, turn = composed[loops, :m], composed[loops + 1, :m]
        e_t, e_c = leg_bounds[loops], leg_bounds[loops + 1]
        product = estimates[is_loop]
        singular = np.linalg.svd(approach, compute_uv=False)
        loop_size = np.linalg.norm(np.linalg.solve(approach, turn @ approach), 2, axis=(1, 2))
        turn_size = np.linalg.norm(turn, 2, axis=(1, 2))
        conditioned = (singular[:, 0] * e_c + e_t * (turn_size + e_c + loop_size + product)) / singular[:, -1]
        estimates[is_loop] = np.minimum(product, conditioned)
        sizes[loops] = loop_size
    rounding = np.bincount(owner, masses * (1.0 + heads), len(cut))
    estimates += np.finfo(float).eps * rounding * np.maximum(1.0, sizes[starts])
    return [
        (tuple(composed[first:first + len(path)]), float(estimate))
        for first, path, estimate in zip(starts, cut, estimates)
    ]


def _loop_transfer(legs) -> np.ndarray:
    """The transfer from ``_continue_legs``'s legs from the identity: T^-1 C T for a loop."""
    if len(legs) == 2:
        approach, turn = legs
        return np.linalg.solve(approach, turn @ approach)
    return legs[0]


def _cut_paths(poles, paths):
    """Audit every path against ``poles`` and cut its legs into hops.

    The audit is one ``paths.segment_distances`` pass over every segment of
    every path and every pole; a path that comes closer to a pole than its
    stated clearance, or whose distance is NaN, raises ``ValidationError``.  Returns one tuple of legs
    per path, each leg the (H + 1,) points of its H hops from
    ``paths.hops``, which cuts all legs of all paths in one bisection.  A
    path whose tail is, segment by segment, the exact reverse of its head
    around one middle segment (every pole loop) gives two legs, the head
    and the middle, and its transfer is T^-1 C T.  Any other path gives
    the one leg of all its segments.  The cut depends on the poles alone,
    so the systems of one Gauss-Newton solve share it.
    """
    distances = segment_distances([seg for path in paths for seg in path.segments], poles).min(axis=1)
    audited = np.minimum.reduceat(distances, np.cumsum([0] + [len(path.segments) for path in paths[:-1]]))
    chains = []
    for path, distance in zip(paths, audited.tolist()):
        if not distance >= path.clearance * (1.0 - 1e-9):
            raise ValidationError(
                f"path passes within {distance:.3e} of a pole, closer than its "
                f"stated clearance {path.clearance:.3e}"
            )
        segments = path.segments
        half = len(segments) // 2
        head, middle, tail = segments[:half], segments[half:half + 1], segments[half + 1:]
        if head and tail == tuple(seg.reversed() for seg in reversed(head)):
            chains.append((head, middle))
        else:
            chains.append((segments,))
    points = iter(hops([leg for legs in chains for leg in legs], poles))
    return tuple(tuple(next(points) for _ in legs) for legs in chains)


def _continue_cut(system: FuchsianSystem, cut, start: np.ndarray, tol: float):
    """Continue the first block column ``start`` = [I_m; 0] along every leg of a cut in one batch.

    Returns one ``(legs, error_estimate)`` per path of ``_cut_paths``: for
    a loop T @ start along the head and C @ start around the middle, for
    any other path Y @ start.  Every hop is a column of one
    ``_integrate_legs`` batch.  Stopping rule: a path stops after the first
    term at which its composed truncation bound is at most ``tol``: each
    hop's majorant tail times the norms, from the computed values, of the
    hops after and before it, with a loop's head counted forward and
    backward.  The estimate is that bound, or for a loop the smaller bound
    through cond(T), plus a rounding model.  The composition holds for
    every system when m = N and for the variational systems of
    ``inverse``; the package passes no other start.
    """
    check_tolerance(tol, "integration tolerance")
    return _integrate_legs(coefficient_function(system), cut, start, tol)


def _continue_legs(system: FuchsianSystem, paths, start: np.ndarray, tol: float):
    """``_continue_cut`` of ``paths`` cut against the system's poles."""
    return _continue_cut(system, _cut_paths(system.poles, paths), start, tol)


def transfer_along(matrix, path: ContinuationPath, tol: float = DEFAULT_INTEGRATION_TOL):
    """Transfer matrix of dY/dz = A(z) Y along ``path`` for a ``RationalMatrix`` A.

    A is written once as P / q, q the monic lcm of the entries'
    denominators, and ``paths.hops`` cuts the path against the roots of q
    (no clearance audit).  Each hop is walked along its chord in steps
    z -> z + h: P and q are shifted exactly to the double z by
    ``Polynomial.translate``, and h is halved while |h| sum_j |P_j|_2 |h|^j
    > HOP_RATIO |q_0|, so h P / q(z) stays small on the step however large
    A is.  With P_j, q_j the shifted terms times h^j, Y(z + h u) = sum_k
    y_k u^k solves q Y' = h P Y term by term:
        (k + 1) q_0 y_{k+1} = sum_j (h P_j - (k - j) q_{j+1}) y_{k-j}.
    Stopping rule: a step stops after two consecutive terms whose largest
    entries are at most tol / H times max(1, the sum's largest entry), H
    the step count.  Returns ``(transfer, error_estimate)``, the estimate
    the sum of every step's last two terms' largest entries: a heuristic,
    not a bound.  A step too short to move z raises ``NonFiniteError``.
    """
    check_tolerance(tol, "integration tolerance")
    cells = [cell for row in matrix.entries for cell in row]
    q = reduce(lambda a, b: a * b // polynomial_gcd(a, b), (cell.den for cell in cells))
    numerators = [cell.num * (q // cell.den) for cell in cells]
    roots = np.roots([c.to_complex() for c in reversed(q.coeffs)]) if q.degree else []
    [points] = hops([path.segments], roots)
    n = matrix.dimension
    steps = []
    for z, end in zip(points[:-1], points[1:]):
        while z != end:
            center = ComplexRational(Fraction(z.real), Fraction(z.imag))
            columns = [[c.to_complex() for c in p.translate(center).coeffs] for p in [q] + numerators]
            shifted = np.array(list(zip_longest(*columns, fillvalue=0j)))
            den, num = shifted[:, 0], shifted[:, 1:].reshape(-1, n, n)
            sizes = np.linalg.norm(num, 2, axis=(1, 2))
            h = end - z
            while abs(h) * (sizes @ abs(h) ** np.arange(len(sizes))) > HOP_RATIO * abs(den[0]):
                h /= 2.0
            if z + h == z:
                raise NonFiniteError("continuation cannot resolve the field: A is too large for a step to move")
            powers = h ** np.arange(len(den))
            steps.append((den[0], num * (h * powers[:, None, None]), np.append(den[1:] * powers[1:], 0.0)))
            z = end if h == end - z else z + h
    budget = tol / len(steps)
    transfer = np.eye(n, dtype=complex)
    estimate = 0.0
    for lead, num, rest in steps:
        terms = [np.eye(n, dtype=complex)]
        total = terms[0].copy()
        while True:
            k = len(terms) - 1
            acc = sum(num[j] @ terms[k - j] - (k - j) * rest[j] * terms[k - j] for j in range(min(k + 1, len(num))))
            terms.append(acc / ((k + 1) * lead))
            total += terms[-1]
            if not np.isfinite(total).all():
                raise NonFiniteError("continuation produced a non-finite solution value")
            last = [float(np.abs(t).max()) for t in terms[-2:]]
            if max(last) <= budget * max(1.0, float(np.abs(total).max())):
                break
        estimate += sum(last)
        transfer = total @ transfer
    if not np.isfinite(transfer).all():
        raise NonFiniteError("continuation produced a non-finite solution value")
    return transfer, estimate


def continue_solution(system: FuchsianSystem, path: ContinuationPath, tol: float = DEFAULT_INTEGRATION_TOL):
    """Transfer matrix of analytic continuation along ``path``.

    Returns ``(transfer, error_estimate)`` with Y(end) = transfer @ Y(start).
    The path is audited against the system's poles and cut into hops, a
    pole loop continued as head T and middle C only, giving T^-1 C T; the
    hops take terms until the path's composed truncation bound is at most
    ``tol``, and the estimate is that bound plus a rounding model
    (``_continue_cut``).
    """
    [(legs, err)] = _continue_legs(system, (path,), np.eye(system.dimension, dtype=complex), tol)
    return _loop_transfer(legs), err


def _product_defect(matrices, order) -> float:
    """|M[order[-1]] ... M[order[0]] - I|_F, the loop product with the first loop rightmost."""
    eye = np.eye(matrices[0].shape[0])
    product = eye
    for index in order:
        product = matrices[index] @ product
    return float(np.linalg.norm(product - eye))


@dataclass(frozen=True)
class MonodromyRepresentation:
    """Monodromy matrices, their loops, and the composition bookkeeping.

    ``composition`` lists pole indices in traversal order such that the
    product of the matrices, rightmost factor first, is the identity;
    ``product_defect`` reports how far that product actually is from the
    identity in Frobenius norm (recorded, never enforced).
    """

    base_point: complex
    matrices: tuple[np.ndarray, ...]
    error_estimates: tuple[float, ...]
    loops: tuple[ContinuationPath, ...]
    composition: tuple[int, ...]
    product_defect: float
    convention: str

    @property
    def dimension(self) -> int:
        return self.matrices[0].shape[0]


def monodromy(
    system: FuchsianSystem,
    tol: float = DEFAULT_INTEGRATION_TOL,
    base_point=None,
) -> MonodromyRepresentation:
    """Monodromy representation of ``system`` from one loop per pole."""
    z0 = default_base_point(system.poles) if base_point is None else complex(base_point)
    loops = build_loops(system.poles, z0)
    results = _continue_legs(system, loops, np.eye(system.dimension, dtype=complex), tol)
    matrices = [_loop_transfer(legs) for legs, _ in results]
    estimates = [err for _, err in results]
    order = composition_order(system.poles, z0)
    defect = _product_defect(matrices, order)
    for m in matrices:
        m.flags.writeable = False
    return MonodromyRepresentation(
        base_point=z0,
        matrices=tuple(matrices),
        error_estimates=tuple(estimates),
        loops=tuple(loops),
        composition=tuple(order),
        product_defect=defect,
        convention=LOOP_CONVENTION,
    )


def _spectrum_distance(ja, jb) -> float:
    """Largest matched distance of the cluster means, by multiplicity: stable for defective blocks."""
    left = [lam for lam, sizes in ja.blocks for _ in range(sum(sizes))]
    right = [lam for lam, sizes in jb.blocks for _ in range(sum(sizes))]
    cost = np.array([[abs(x - y) for y in right] for x in left])
    rows, cols = min_cost_assignment(cost)
    return float(cost[rows, cols].max())


@dataclass(frozen=True)
class PoleVerdict:
    """Comparison of one monodromy matrix with its exponential generator."""

    pole_index: int
    non_resonant: bool
    spectrum_match: bool
    spectrum_distance: float
    structure_match: bool
    conjugator: np.ndarray | None
    conjugator_residual: float | None
    monodromy_error: float
    ok: bool


@dataclass(frozen=True)
class TheoremReport:
    """Per-pole verdicts plus the overall generator-vs-monodromy verdict.

    ``overall`` covers exactly the poles satisfying the non-resonance
    hypothesis; resonant poles are reported with their individual checks but
    do not gate the verdict.
    """

    verdicts: tuple[PoleVerdict, ...]
    overall: bool
    all_non_resonant: bool
    representation: MonodromyRepresentation


def verify_theorem(
    system: FuchsianSystem,
    tol: float = DEFAULT_VERIFY_TOL,
    integration_tol: float = DEFAULT_INTEGRATION_TOL,
    base_point=None,
) -> TheoremReport:
    """Check that monodromy matches exp(2 pi i B_j) pole by pole.

    The generators come from one stacked ``matrix_exp``, and the Jordan
    structures of the generators and the monodromy matrices, interleaved
    pole by pole, from one stacked ``jordan_structure``, so each matrix is
    analysed once.  All three checks read those structures: the spectra,
    compared as the Jordan cluster means with multiplicity, agree within
    ``tol``; the block structures match; and an explicit conjugator takes
    the generator to the monodromy matrix, with its residual, from one
    search over every matched pole (``linalg._conjugators``).  ``tol``
    bounds the spectrum distance and the conjugator residual relative to
    the matrix norms.
    """
    check_tolerance(tol, "verification tolerance")
    rep = monodromy(system, integration_tol, base_point)
    resonance = is_non_resonant(system)
    generators = matrix_exp(TWO_PI_I * np.array(system.residues))
    observed = np.array(rep.matrices)
    # Interleaved g_0, m_0, g_1, m_1, ..., so an analysis that raises does so at the first pole that cannot be analysed.
    structures = jordan_structure(np.stack([generators, observed], axis=1).reshape(-1, *observed.shape[1:]))
    matches = [
        (jg, jm, jg.match_blocks(jm, max(tol, 2.0 * max(jg.tolerance, jm.tolerance))))
        for jg, jm in zip(structures[0::2], structures[1::2])
    ]
    matched = [j for j, (_, _, pairs) in enumerate(matches) if pairs is not None]
    found = _conjugators(generators[matched], observed[matched], [matches[j] for j in matched], tol) if matched else ()
    conjugators = {j: result for j, result in zip(matched, found) if isinstance(result, SimilarityResult)}
    verdicts = []
    for j, (jg, jm, pairs) in enumerate(matches):
        sdist = _spectrum_distance(jg, jm)
        spectrum_ok = sdist <= tol
        structure_ok = pairs is not None
        result = conjugators.get(j)
        ok = spectrum_ok and structure_ok and result is not None
        verdicts.append(
            PoleVerdict(
                pole_index=j,
                non_resonant=not resonance[j].resonant,
                spectrum_match=spectrum_ok,
                spectrum_distance=sdist,
                structure_match=structure_ok,
                conjugator=None if result is None else result.matrix,
                conjugator_residual=None if result is None else result.residual,
                monodromy_error=rep.error_estimates[j],
                ok=ok,
            )
        )
    hypothesis_verdicts = [v for v in verdicts if v.non_resonant]
    overall = all(v.ok for v in hypothesis_verdicts)
    return TheoremReport(
        verdicts=tuple(verdicts),
        overall=overall,
        all_non_resonant=all(v.non_resonant for v in verdicts),
        representation=rep,
    )
