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
term; a scalar majorant bounds what the terms left out can add, and
decides each path's term count before the matrix terms run: the stop term
is the first whose composed bound, with each hop's deviation fixed once at
the path's deviation point, is at most the tolerance.  There is no step
size and no controller.  Hops continue the first block column [I_m; 0]
and compose in that form (``_compose``), so the inverse solver continues
just n columns of its variational system.  ``_integrate_legs`` alone turns a loop's two
legs into the first block column of T^-1 C T, all loops in one solve.

``verify_theorem`` compares the monodromy around each pole against the
exponential generator exp(2 pi i B_j) from one Jordan analysis of each:
spectra, block structures, and an explicit conjugator, with resonant poles
reported but excluded from the hypothesis.
"""

from dataclasses import dataclass

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
    LOOP_CONVENTION,
    ContinuationPath,
    build_loops,
    composition_order,
    default_base_point,
    hops,
    path_clearance_audit,  # noqa: F401 - perfbench/spans.py traces this name here
    segment_distances,
)
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


def _taylor_term(operator, g, stack, term, sums, k):
    """Advance the hops' recurrence in place to its k-th term y_k, and add it to ``sums``."""
    np.subtract(term, stack, out=stack)
    stack *= g[:, None, None, :]
    _apply_residues(operator / k, stack, term)
    sums += term


def _stop_terms(size, reach, norms, total, k, bound, partial, tail, weight, groups, tol):
    """Each group's stop term, and each hop's tail there, from the majorant alone.

    The hops' majorant stands at term k with ``bound`` m_k, ``partial``
    M_{p,k-1} and ``tail`` tau_i; ``groups`` is the first hop of each path,
    whose bound is sum_i tau_i ``weight``_i.  Past a path's deviation point
    r_i < 1 falls and tau_i(k + 1) <= r_i(k) tau_i(k), so the path's bound
    meets ``tol`` within log(tol / bound) / log(max_i r_i) terms; that many
    run as one block (another follows should rounding leave a path open).
    The block is read one path at a time, so its temporaries are one path
    wide, not as wide as every open hop.  The stop term is the first from k
    on whose bound meets ``tol``; a non-finite bound raises
    ``NonFiniteError``.  Returns the stop terms and each hop's tau_i there.
    """
    stops = np.zeros(len(groups), dtype=int)
    tails = np.empty(len(reach))
    paths = [slice(lo, hi) for lo, hi in zip(groups.tolist(), groups[1:].tolist() + [len(reach)])]
    while not stops.all():
        open_ = stops == 0
        composed = np.add.reduceat(tail * weight, groups)
        if not np.isfinite(composed[open_]).all():
            raise NonFiniteError("continuation bound overflowed: the hops' transfers are too large")
        pending = open_ & (composed > tol)
        ratio = np.maximum.reduceat(reach, groups)[pending] * max(1.0, (k + total) / (k + 1))
        span = int(np.ceil(np.max(np.log(tol / composed[pending]) / np.log(ratio), initial=0.0)))
        terms = np.arange(k, k + span + 1)[:, None]
        scaled = norms / terms  # b_p / j in the row of term j
        history = np.empty((span + 1, len(reach)))  # m_k ... m_{k+span}
        history[0] = bound
        for j in range(1, span + 1):
            partial += bound
            partial *= size
            bound = np.dot(scaled[j], partial, out=history[j])
        if not np.isfinite(history).all():
            raise NonFiniteError("continuation majorant overflowed: the residues are too large")
        limit = np.minimum(1.0, (terms + 1) / (terms + total))  # 1 / max(1, (j + S) / (j + 1))
        tail = tail.copy()
        for index in np.flatnonzero(open_).tolist():
            hops = paths[index]
            taus = history[:, hops] * reach[hops] / (limit - reach[hops])
            taus[0] = tail[hops]
            # reduceat adds a path's hops in order, as the first stretch does; sum would pair them.
            met = np.add.reduceat(taus * weight[hops], [0], axis=1)[:, 0] <= tol
            if met.any():
                row = int(met.argmax())
                stops[index] = k + row
                tails[hops] = taus[row]
            else:
                tail[hops] = taus[-1]
        k += span
    return stops, tails


def _hop_norms(deviation, majorant, head):
    """Each hop's log factor and weight in a composed bound (``_hop_bounds``)."""
    near = 1.0 + deviation
    inverse = np.divide(1.0, 1.0 - deviation, out=majorant.copy(), where=deviation < 1.0)
    return np.log(near) + head * np.log(inverse), 1.0 / near + head * inverse


def _hop_bounds(tail, deviation, majorant, head, owner, count):
    """Composed truncation bound of each group of hops in ``owner``.

    A hop's exact and computed transfers lie within ``deviation`` d_i of
    the identity and within ``tail`` tau_i of each other, so both have norm
    at most n_i = 1 + d_i, and their inverses at most n'_i = 1 / (1 - d_i),
    or the hop's ``majorant`` when d_i >= 1.  The error of a product is the
    sum of each factor's error between the factors after and before it, so
    a group is off by at most prod_j n_j sum_i tau_i / n_i; a ``head`` hop,
    which a loop T^-1 C T also runs backward (off by n'^2 tau), adds the
    factor n'_i and the term n'_i tau_i.  So the bound is
    exp(sum_i log n_i + head_i log n'_i) sum_i tau_i w_i with the weights
    w_i = 1 / n_i + head_i n'_i (``_hop_norms``).
    """
    scale, weight = _hop_norms(deviation, majorant, head)
    return np.exp(np.bincount(owner, scale, count)) * np.bincount(owner, tail * weight, count)


def _compose(columns: np.ndarray, runs: np.ndarray) -> np.ndarray:
    """First block columns of the products of the factors of each run.

    ``columns`` (H, N, m) holds each factor's first block column [T; S],
    T its top m x m block and S the rest, K = N / m - 1 blocks of m x m,
    and ``runs`` (H,) the sorted run of each factor, first factor first.
    For transfers [[T, 0], [S, I (x) T]] (every transfer when m = N, every
    variational transfer of ``inverse``) Phi2 Phi1 has the column
    [T2 T1; S2 T1 + (I (x) T2) S1].  Neighbours are multiplied pairwise,
    all runs at once, until each run is one factor: (runs, N, m).  Each
    product is by whole blocks: S2 T1 is one (K m, m) @ (m, m) product,
    and (I (x) T2) S1 one (m, m) @ (m, K m) product on S1's blocks laid
    side by side.
    """
    m = columns.shape[2]
    blocks = (columns.shape[1] - m) // m
    t, s = columns[:, :m], columns[:, m:]
    while True:
        position = np.arange(len(runs)) - np.searchsorted(runs, runs)
        if not position.any():
            return np.concatenate([t, s], axis=1)
        first = np.flatnonzero(position % 2 == 0)
        pair = first + 1 < len(runs)
        pair[pair] = runs[first[pair] + 1] == runs[first[pair]]
        lo = first[pair]
        t_lo, s_lo, t_hi, s_hi = t[lo], s[lo], t[lo + 1], s[lo + 1]
        t, s, runs = t[first], s[first], runs[first]
        if blocks:
            # S1's blocks side by side, (m, K m), and back.
            side = s_lo.reshape(len(lo), blocks, m, m).transpose(0, 2, 1, 3).reshape(len(lo), m, blocks * m)
            lifted = (t_hi @ side).reshape(len(lo), m, blocks, m).transpose(0, 2, 1, 3).reshape(len(lo), blocks * m, m)
            s[pair] = s_hi @ t_lo + lifted
        t[pair] = t_hi @ t_lo


def _integrate_legs(system: FuchsianSystem, cut, m: int, tol: float):
    """Continue the first block column [I_m; 0] along every leg of ``cut``, one hop per batch column.

    ``cut`` is the legs of ``_cut_paths``.  The system's field
    (``coefficient_function``) maps the B hop starts, in one call, to
    ``(weights (B, P), residues (P, N, N))`` with
    A(z_i) = sum_p weights[i, p] residues[p].
    Hop z -> z + h has g_p = h weights_p, and from the start
    y_0 = [I_m; 0], the first m columns of the N x N identity (N read from
    the field's residues), U_{p,-1} = 0, m_0 = |y_0|_2 = 1, M_{p,-1} = 0 and
    b_p = |B_p|_2 it runs
        U_{p,k} = g_p (y_k - U_{p,k-1}),  y_{k+1} = sum_p B_p U_{p,k} / (k + 1),
        M_{p,k} = |g_p| (m_k + M_{p,k-1}),  m_{k+1} = sum_p b_p M_{p,k} / (k + 1),
    and sums Y(z + h) = sum_k y_k; the y_k are the (N, m, B) columns and
    each term is one ``_apply_residues``.  The majorant bounds
    |y_k|_2 <= m_k, and m_{k+1} <= G (k + S) / (k + 1) m_k, the coefficient
    ratio of the single factor (1 - G u)^-S with G = max_p |g_p| and
    S = sum_p b_p, so the terms after the k-th add at most
    tau = m_k r / (1 - r), r = G max(1, (k + S) / (k + 1)).

    Each path's term count is decided before its last matrix terms run.
    (1) Matrix and majorant terms run together until every path has passed
    its deviation point, the first term at which its summed tails are
    below 1.  There each of its hops takes its deviation once,
    d_i = |S_i - start|_F + tau_i: the partial sum S_i is within tau_i of
    the hop's exact transfer and of every later partial sum, so the
    composed bound of ``_hop_bounds`` with these d_i, F_p sum_i tau_i w_i
    with F_p and w_i fixed (``_hop_norms``), holds at every later term, and
    the path leaves at the first term at which that bound is at most
    ``tol``.  (2) From the last deviation point the majorant alone gives
    the stop terms of the paths still open, in one ``_stop_terms`` call.
    (3) The bare recurrence runs their hops, sorted by stop term so that
    the hops that leave are a slice, and each hop's value and deviation
    |S_i - start|_F + tau_i are those of its stop term.  A path's term
    count depends on the path alone, so it gets the same values in any
    batch.  A non-finite majorant or value, or a non-finite bound at a
    deviation point, raises ``NonFiniteError``.

    Returns one ``(value, error_estimate)`` per path.  An open path's value
    is its one leg, its hops' values composed by ``_compose``.  A loop's is
    the first block column of T^-1 C T, from the composed approach [T; S_T]
    and circle [C; S_C]: the top block M = T^-1 C T and, below it, the
    blocks T^-1 (S_C T + C S_T - S_T M), all loops and blocks in one batched
    solve (empty when m = N).  The estimate is the composed bound of
    ``_hop_bounds`` with each hop's tail and deviation at its stop term, for a
    loop at most cond(T) E_C + |T^-1| (|C| + E_C + |M| + E) E_T with E_T,
    E_C the legs' bounds and E the loop's, plus a rounding model eps W
    max(1, |Y|_2), W the sum over hops (a head hop twice) of the majorant
    product prod_p (1 - |g_p|)^-b_p.  That is the majorant function
    m_0 prod_p (1 - |g_p| u)^-b_p at u = 1, the sum of all of the hop's
    m_k, so it bounds the magnitudes a hop adds up however they cancel.  Norms
    are of the top m x m blocks: for m = N the transfers, for ``inverse``'s
    variational systems the system's own.
    """
    legs = [leg for path in cut for leg in path]
    leg_of = np.repeat(np.arange(len(legs)), [len(leg) - 1 for leg in legs])
    owner = np.repeat(np.arange(len(cut)), [len(path) for path in cut])[leg_of]
    heads = np.array([len(path) == 2 and i == 0 for path in cut for i in range(len(path))])[leg_of]
    points = np.concatenate(legs)
    inner = np.ones(len(points), dtype=bool)  # every point but a leg's last starts a hop
    inner[np.cumsum([len(leg) for leg in legs]) - 1] = False
    weights, residues = coefficient_function(system)(points[inner])
    g = (points[1:] - points[:-1])[inner[:-1]] * weights.T  # (P, B)
    size = np.abs(g)
    reach = size.max(axis=0)
    norms = np.linalg.norm(residues, 2, axis=(1, 2))
    total = float(norms.sum())
    count, paths = len(leg_of), len(cut)
    start = np.eye(residues.shape[1], m, dtype=complex)
    operator = residues.transpose(1, 0, 2).reshape(len(start), -1)
    values = np.empty((count,) + start.shape, dtype=complex)
    tails = np.empty(count)
    deviations = np.empty(count)
    bound = np.ones(count)  # m_k
    weight = np.empty(count)  # F_p w_i, fixed at the path's deviation point
    term = np.repeat(start[:, :, None], count, axis=2)  # y_k
    sums = term.copy()
    stack = np.zeros((len(g),) + term.shape, dtype=complex)  # U_{p,k}
    partial = np.zeros_like(size)  # M_{p,k}
    passed = np.zeros(paths, dtype=bool)  # past the deviation point
    stop = np.zeros(paths, dtype=int)  # the stop term, 0 while the path is open

    def leave(hops, front):
        """Read off the values and deviations of ``hops``, whose sums are ``front`` (N, m, H)."""
        values[hops] = front.transpose(2, 0, 1)
        deviations[hops] = np.linalg.norm(front - start[:, :, None], axis=(0, 1)) + tails[hops]

    k = 0
    # Overflows are left as inf here; the isfinite checks raise NonFiniteError on them.
    with np.errstate(over="ignore"):
        majorants = np.exp(-(norms @ np.log1p(-size)))  # prod_p (1 - |g_p|)^-b_p = sum_k m_k bounds |Phi^-1|
        # Matrix and majorant terms together, until every path has passed its deviation point.
        while not passed.all():
            partial += bound
            partial *= size
            bound = (norms / (k + 1)) @ partial
            if not np.isfinite(bound).all():
                raise NonFiniteError("continuation majorant overflowed: the residues are too large")
            k += 1
            gap = min(1.0, (k + 1) / (k + total)) - reach  # 1 / max(1, (k + S) / (k + 1)) - G: tau is inf unless > 0
            tau = np.divide(bound * reach, gap, out=np.full(count, np.inf), where=gap > 0.0)
            _taylor_term(operator, g, stack, term, sums, k)
            fresh = ~passed & (np.bincount(owner, tau, paths) < 1.0)
            if fresh.any():
                hops = np.flatnonzero(fresh[owner])
                path_of = owner[hops]
                near = np.linalg.norm(sums[..., hops] - start[:, :, None], axis=(0, 1)) + tau[hops]
                scale, weight[hops] = _hop_norms(near, majorants[hops], heads[hops])
                weight[hops] *= np.exp(np.bincount(path_of, scale, paths))[path_of]
                passed |= fresh
            # A path past its deviation point leaves at the first term whose fixed-weight bound meets tol.
            hops = np.flatnonzero((passed & (stop == 0))[owner])
            if hops.size:
                path_of = owner[hops]
                groups = np.flatnonzero(np.diff(path_of, prepend=-1))
                composed = np.add.reduceat(tau[hops] * weight[hops], groups)
                if not np.isfinite(composed).all():
                    raise NonFiniteError("continuation bound overflowed: the hops' transfers are too large")
                if (composed <= tol).any():
                    stop[path_of[groups][composed <= tol]] = k
                    hops = np.flatnonzero((stop == k)[owner])
                    tails[hops] = tau[hops]
                    leave(hops, sums[..., hops])
        # From the last deviation point, the majorant alone gives the open paths' stop terms.
        hops = np.flatnonzero((stop == 0)[owner])
        if hops.size:
            path_of = owner[hops]
            groups = np.flatnonzero(np.diff(path_of, prepend=-1))
            majorant = size[:, hops], reach[hops], norms, total, k, bound[hops], partial[:, hops], tau[hops]
            stop[path_of[groups]], tails[hops] = _stop_terms(*majorant, weight[hops], groups, tol)
        # The bare recurrence, the open hops sorted by stop term, last first, so the hops that leave are a slice.
        hops = np.flatnonzero((stop > k)[owner])
        hops = hops[np.argsort(-stop[owner[hops]], kind="stable")]
        ends = stop[owner[hops]]
        # C-contiguous, unlike a[..., hops] and a[..., :first]: the terms are written through reshaped views.
        g, term, sums, stack = (np.take(a, hops, axis=-1) for a in (g, term, sums, stack))
        fronts = []
        for end in sorted(set(ends.tolist())):
            while k < end:
                k += 1
                _taylor_term(operator, g, stack, term, sums, k)
            first = int(np.searchsorted(-ends, -end))
            fronts.append(sums[..., first:])
            g, term, sums, stack = (np.ascontiguousarray(a[..., :first]) for a in (g, term, sums, stack))
        if fronts:
            leave(hops, np.concatenate(fronts[::-1], axis=-1))
        if not np.isfinite(values).all():
            raise NonFiniteError("continuation produced a non-finite solution value")
    composed = _compose(values, leg_of)
    estimates = _hop_bounds(tails, deviations, majorants, heads, owner, len(cut))
    starts = np.cumsum([0] + [len(path) for path in cut[:-1]])
    is_loop = np.array([len(path) == 2 for path in cut])
    loops = starts[is_loop]
    transfers = composed[starts]
    approach, turn = composed[loops], composed[loops + 1]
    t, c = approach[:, :m], turn[:, :m]
    if loops.size:
        s_t, s_c = (leg[:, m:].reshape(len(loops), -1, m, m) for leg in (approach, turn))
        loop = np.linalg.solve(t, c @ t)
        lower = np.linalg.solve(t[:, None], s_c @ t[:, None] + c[:, None] @ s_t - s_t @ loop[:, None])
        transfers[is_loop] = np.concatenate([loop, lower.reshape(len(loops), -1, m)], axis=1)
    # One SVD gives each path's |Y|_2, and for each loop cond(T)'s singular values and |C|_2.
    singular = np.linalg.svd(np.concatenate([transfers[:, :m], t, c]), compute_uv=False)
    sizes = singular[: len(cut), 0]
    if loops.size:
        singular, turn = np.split(singular[len(cut) :], 2)
        leg_bounds = _hop_bounds(tails, deviations, majorants, 0.0, leg_of, len(legs))
        e_t, e_c = leg_bounds[loops], leg_bounds[loops + 1]
        product = estimates[is_loop]
        conditioned = (singular[:, 0] * e_c + e_t * (turn[:, 0] + e_c + sizes[is_loop] + product)) / singular[:, -1]
        estimates[is_loop] = np.minimum(product, conditioned)
    rounding = np.bincount(owner, majorants * (1.0 + heads), len(cut))
    estimates += np.finfo(float).eps * rounding * np.maximum(1.0, sizes)
    return list(zip(transfers, estimates.tolist()))


def _cut_paths(poles, paths):
    """Audit every path against ``poles`` and cut its legs into hops.

    A path whose tail is, segment by segment, the exact reverse of its head
    around one middle segment (every pole loop) gives two legs, the head
    and the middle, and its transfer is T^-1 C T.  Any other path gives
    the one leg of all its segments.  The audit is one
    ``paths.segment_distances`` pass over the segments of those legs and
    every pole: a loop's tail is its head reversed bit for bit, and a line
    is measured from its nearer end, so the tail is as far from the poles
    as the head.  A path that comes closer to a pole than its stated
    clearance, or whose distance is NaN, raises ``ValidationError``.
    Returns one tuple of legs per path, each leg the (H + 1,) points of its
    H hops from ``paths.hops``, which cuts all legs of all paths in one
    bisection.  The cut depends on the poles alone, so the systems of one
    Gauss-Newton solve share it.
    """
    chains = []
    for path in paths:
        segments = path.segments
        half = len(segments) // 2
        head, middle, tail = segments[:half], segments[half:half + 1], segments[half + 1:]
        if head and tail == tuple(seg.reversed() for seg in reversed(head)):
            chains.append((head, middle))
        else:
            chains.append((segments,))
    legs = [leg for legs in chains for leg in legs]
    distances = segment_distances([seg for leg in legs for seg in leg], poles).min(axis=1)
    audited = np.minimum.reduceat(distances, np.cumsum([0] + [sum(map(len, legs)) for legs in chains[:-1]]))
    for path, distance in zip(paths, audited.tolist()):
        if not distance >= path.clearance * (1.0 - 1e-9):
            raise ValidationError(
                f"path passes within {distance:.3e} of a pole, closer than its "
                f"stated clearance {path.clearance:.3e}"
            )
    points = iter(hops(legs, poles))
    return tuple(tuple(next(points) for _ in legs) for legs in chains)


def continue_solution(system: FuchsianSystem, path: ContinuationPath, tol: float = DEFAULT_INTEGRATION_TOL):
    """Transfer matrix of analytic continuation along ``path``.

    Returns ``(transfer, error_estimate)`` with Y(end) = transfer @ Y(start),
    as the kernel returns it.  The path is audited against the system's
    poles and cut into hops, a pole loop continued as head T and middle C
    only, which the kernel solves into T^-1 C T.  The hops take the terms
    of the path's stop term, chosen from the majorant so that the composed
    truncation bound, with deviations fixed at the path's deviation point,
    is at most ``tol``; the estimate is the composed bound at the stop term
    plus a rounding model (``_integrate_legs``).
    """
    check_tolerance(tol, "integration tolerance")
    [(transfer, err)] = _integrate_legs(system, _cut_paths(system.poles, (path,)), system.dimension, tol)
    return transfer, err


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
    identity in Frobenius norm (recorded, never enforced).  ``convention``
    is the loop convention of ``paths``, the same for every representation.
    """

    base_point: complex
    matrices: tuple[np.ndarray, ...]
    error_estimates: tuple[float, ...]
    loops: tuple[ContinuationPath, ...]
    composition: tuple[int, ...]
    product_defect: float
    convention = LOOP_CONVENTION

    @property
    def dimension(self) -> int:
        return self.matrices[0].shape[0]


def monodromy(
    system: FuchsianSystem,
    tol: float = DEFAULT_INTEGRATION_TOL,
    base_point=None,
) -> MonodromyRepresentation:
    """Monodromy representation of ``system`` from one loop per pole, built, cut and continued once."""
    check_tolerance(tol, "integration tolerance")
    z0 = default_base_point(system.poles) if base_point is None else complex(base_point)
    loops = build_loops(system.poles, z0)
    results = _integrate_legs(system, _cut_paths(system.poles, loops), system.dimension, tol)
    matrices = [transfer for transfer, _ in results]
    estimates = [err for _, err in results]
    order = composition_order(loops)
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
    ``tol`` (when the structures match and every cluster is single, the
    spectrum's assignment is the match's, so its distance is the largest
    matched cost; otherwise ``_spectrum_distance`` assigns the means); the
    block structures match (``JordanStructure.match_blocks``);
    and an explicit conjugator takes the generator to the monodromy matrix,
    with its residual, from one search over every matched pole
    (``linalg._conjugators``).  ``tol``
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
    matches = [(jg, jm, jg.match_blocks(jm, tol)) for jg, jm in zip(structures[0::2], structures[1::2])]
    matched = [j for j, (_, _, pairs) in enumerate(matches) if pairs is not None]
    found = _conjugators(generators[matched], observed[matched], [matches[j] for j in matched], tol) if matched else ()
    conjugators = {j: result for j, result in zip(matched, found) if isinstance(result, SimilarityResult)}
    verdicts = []
    for j, (jg, jm, pairs) in enumerate(matches):
        if pairs is not None and all(sizes == (1,) for _, sizes in jg.blocks):
            # Every cluster is single, so match_blocks assigned the spectrum's cost matrix already.
            sdist = max(abs(jg.blocks[i][0] - jm.blocks[k][0]) for i, k in pairs)
        else:
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
