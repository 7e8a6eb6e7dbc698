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
term; a scalar majorant (``_majorant``, its one recurrence and tail
formula) bounds what the terms left out can add, and decides each path's
term count before the last matrix terms run, in one
search per call: the stop term is the first, from the batch's last
deviation point on, whose composed bound, with each hop's deviation fixed
once at the path's deviation point, is at most the tolerance.  There is
no step size and no controller.  Hops continue the first block column [I_m; 0]
and compose in that form (``_compose``), so the inverse solver continues
just n columns of its variational system.  ``_integrate_legs`` alone turns a loop's two
legs into the first block column of T^-1 C T, all loops in one solve.  A
cut (``_cut_paths``) holds every index of its hops that the kernel reads
and nothing else, laid out once, so the inverse solver's many calls on one
cut build none.  The kernel returns the values and a function that
computes the error estimates: ``monodromy`` and ``continue_solution`` call
it once, and the inverse solver, which reads the values alone, never pays
for it.

``verify_theorem`` compares the monodromy around each pole against the
exponential generator exp(2 pi i B_j) from one Jordan analysis of each:
spectra, block structures, and an explicit conjugator, with resonant poles
reported but excluded from the hypothesis.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteError
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
)
from .system import TWO_PI_I, FuchsianSystem, is_non_resonant

DEFAULT_INTEGRATION_TOL = 1e-9
DEFAULT_VERIFY_TOL = 1e-7


def coefficient_function(field):
    """The field's weights: points -> (M, P) partial-fraction weights.

    A(z_i) = sum_p weights[i, p] R_p, with the weights 1 / (z_i - a_p) and
    the residues R_p that the field's ``apply`` multiplies: for a
    ``FuchsianSystem`` its ``weights`` and its residues B_p.
    """
    return field.weights


def _taylor_term(field, g, stack, term, sums, k):
    """Advance the hops' recurrence in place to its k-th term y_k, and add it to ``sums``; ``g`` is (P, 1, 1, B)."""
    np.subtract(term, stack, out=stack)
    stack *= g
    field.apply(k, stack, term)
    sums += term


def _majorant(bound, partial, size, norms, reach, total, k, count):
    """The hops' next ``count`` majorant terms m_{k+1} ... m_{k+count}, and each term's tail.

    The majorant stands at term k with ``bound`` m_k and ``partial``
    M_{p,k-1}, which it advances in place, one row per term:
    M_{p,j-1} = |g_p| (m_{j-1} + M_{p,j-2}) from the (P, B) ``size`` |g_p|,
    and m_j = sum_p b_p M_{p,j-1} / j from the (P,) ``norms`` b_p.  The tail
    of term j is tau = m_j r / (1 - r), r = G max(1, (j + S) / (j + 1)) with
    ``reach`` G = max_p |g_p| and ``total`` S = sum_p b_p, and inf where
    r >= 1.  A non-finite term raises ``NonFiniteError``.  Returns the
    (count, B) terms and tails.
    """
    terms = np.arange(k + 1, k + count + 1)[:, None]
    history = np.empty((count, len(reach)))
    for factors, row in zip(norms / terms, history):  # b_p / j in the row of term j
        partial += bound
        partial *= size
        bound = np.dot(factors, partial, out=row)
    if not np.isfinite(history).all():
        raise NonFiniteError("continuation majorant overflowed: the residues are too large")
    gap = np.minimum(1.0, (terms + 1) / (terms + total)) - reach  # 1 / max(1, (j + S) / (j + 1)) - G
    return history, np.divide(history * reach, gap, out=np.full(history.shape, np.inf), where=gap > 0.0)


def _stop_terms(size, reach, norms, total, k, bound, partial, tail, weight, cut, tol):
    """Each path's stop term, and each hop's tail there, from the majorant alone.

    ``_integrate_legs`` calls it once, for every path of ``cut``, at the
    batch's last deviation point.  The hops' majorant stands at term k with
    ``bound`` m_k, ``partial`` M_{p,k-1} and ``tail`` tau_i; a path's hops
    run from its ``cut.groups`` entry to the next, and its bound is
    sum_i tau_i ``weight``_i over them.  Past a
    path's deviation point r_i < 1 falls and tau_i(k + 1) <= r_i(k) tau_i(k),
    so the path's bound meets ``tol`` within log(tol / bound) / log(max_i r_i)
    terms; that many run as one block of ``_majorant`` (another follows
    should rounding leave a path open), with the current tail in front.
    The block's tails and bounds are read for every path at once, one row
    per term, and each path's hops are added in order by ``reduceat``.
    The stop term is the first from k on whose bound meets ``tol``.  An
    infinite tail or a non-finite bound raises ``NonFiniteError``, the
    tails and the weights checked for inf before they meet, so that no inf
    times a zero warns first.  Every hop is past its deviation point, so
    its tail stays finite at every later term.
    Returns the stop terms and each hop's tau_i there.
    """
    groups, owner = cut.groups, cut.owner
    stops = np.zeros(len(groups), dtype=int)
    tails = np.empty(len(reach))
    while not stops.all():
        open_ = stops == 0
        if np.isinf(tail).any() or np.isinf(weight).any():
            raise NonFiniteError("continuation bound overflowed: the hops' transfers are too large")
        composed = np.add.reduceat(tail * weight, groups)
        if not np.isfinite(composed[open_]).all():
            raise NonFiniteError("continuation bound overflowed: the hops' transfers are too large")
        pending = open_ & (composed > tol)
        ratio = np.maximum.reduceat(reach, groups)[pending] * max(1.0, (k + total) / (k + 1))
        span = int(np.ceil((np.log(tol / composed[pending]) / np.log(ratio)).max(initial=0.0)))
        block, block_tails = _majorant(bound, partial, size, norms, reach, total, k, span)
        taus = np.concatenate([tail[None], block_tails])  # tau_i at terms k ... k + span
        # reduceat adds a path's hops in order, as ``composed`` does; sum would pair them.
        met = (np.add.reduceat(taus * weight, groups, axis=1) <= tol) & open_
        rows, now = met.argmax(axis=0), met.any(axis=0)
        stops[now] = k + rows[now]
        leaving = now[owner].nonzero()[0]
        tails[leaving] = taus[rows[owner[leaving]], leaving]
        tail = np.where((stops == 0)[owner], taus[-1], tail)
        bound = block[-1] if span else bound
        k += span
    return stops, tails


def _frobenius(columns: np.ndarray) -> np.ndarray:
    """The Frobenius norm of each (N, m) block of the (N, m, B) ``columns``: ``np.linalg.norm(columns, axis=(0, 1))``'s formula."""
    return np.sqrt(np.add.reduce((columns.conj() * columns).real, axis=(0, 1)))


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


def _compose(columns: np.ndarray) -> np.ndarray:
    """First block columns of the products of the factors of each row.

    ``columns`` (L, W, N, m) holds each factor's first block column [T; S],
    T its top m x m block and S the rest, K = N / m - 1 blocks of m x m, in
    L rows of W factors, first factor first, W a power of two.  For
    transfers [[T, 0], [S, I (x) T]] (every transfer when m = N, every
    variational transfer of ``inverse``) Phi2 Phi1 has the column
    [T2 T1; S2 T1 + (I (x) T2) S1].  Neighbours are multiplied pairwise,
    every row at once, the even factors as strided views, until each row
    is one factor: (L, N, m).  Each product is by whole blocks: S2 T1 is
    one (K m, m) @ (m, m) product, and (I (x) T2) S1 one (m, m) @ (m, K m)
    product on S1's blocks laid side by side.
    """
    rows, m = columns.shape[0], columns.shape[3]
    blocks = columns.shape[2] // m - 1
    t, s = columns[:, :, :m], columns[:, :, m:]
    while t.shape[1] > 1:
        half = t.shape[1] // 2
        t_lo, t_hi = t[:, 0::2], t[:, 1::2]
        if blocks:
            # S1's blocks side by side, (m, K m), and back.
            side = s[:, 0::2].reshape(rows, half, blocks, m, m).swapaxes(2, 3).reshape(rows, half, m, blocks * m)
            lifted = (t_hi @ side).reshape(rows, half, m, blocks, m).swapaxes(2, 3).reshape(rows, half, blocks * m, m)
            s = s[:, 1::2] @ t_lo + lifted
        t = t_hi @ t_lo
    return np.concatenate([t[:, 0], s[:, 0]], axis=1)


def _integrate_legs(field, cut, m: int, tol: float):
    """Continue the first block column [I_m; 0] along every leg of ``cut``, one hop per batch column.

    ``cut`` is a ``_Cut`` from ``_cut_paths``, read only.  ``field`` is an N x N system
    dY/dz = sum_p R_p / (z - a_p) Y, known only through what it supplies:
    - ``weights``, through ``coefficient_function``, its one call here: the
      B hop starts -> their (B, P) weights 1 / (z_i - a_p);
    - ``apply(k, stack, out)``: writes sum_p R_p stack[p] / k into ``out``
      (N, m, B), from ``stack`` (P, N, m, B), both C-contiguous;
    - ``bounds``: (P,) norm bounds b_p >= |R_p|_2;
    - ``dimension`` N and ``rows``, its row order: row ``rows[i]`` of its
      columns is row i of the block order, whose first m rows are Y's.
    A ``FuchsianSystem`` is one (R_p = B_p, b_p = |B_p|_2, rows in block
    order), and so is ``inverse``'s variational field, whose R_p it never
    builds.  Hop z -> z + h has g_p = h weights_p, and from the start
    y_0 = [I_m; 0], the first m columns of the N x N identity in the
    field's row order, U_{p,-1} = 0, m_0 = |y_0|_2 = 1 and M_{p,-1} = 0 it
    runs
        U_{p,k} = g_p (y_k - U_{p,k-1}),  y_{k+1} = sum_p R_p U_{p,k} / (k + 1),
        M_{p,k} = |g_p| (m_k + M_{p,k-1}),  m_{k+1} = sum_p b_p M_{p,k} / (k + 1),
    and sums Y(z + h) = sum_k y_k; the y_k are the (N, m, B) columns and
    each term is one ``apply``.  The majorant bounds
    |y_k|_2 <= m_k, and m_{k+1} <= G (k + S) / (k + 1) m_k, the coefficient
    ratio of the single factor (1 - G u)^-S with G = max_p |g_p| and
    S = sum_p b_p, so the terms after the k-th add at most
    tau = m_k r / (1 - r), r = G max(1, (k + S) / (k + 1)).

    Each path's term count is decided before its last matrix terms run,
    in three steps.  (1) Deviation points: matrix and majorant terms run
    together until every path has passed its deviation point, the first
    term at which its summed tails are below 1.  There each of its hops
    takes its deviation once, d_i = |S_i - start|_F + tau_i: the partial
    sum S_i is within tau_i of the hop's exact transfer and of every later
    partial sum, so the composed bound of ``_hop_bounds`` with these d_i,
    F_p sum_i tau_i w_i with F_p and w_i fixed (``_hop_norms``), holds at
    every later term.  (2) One stop search: from the batch's last deviation
    point the majorant alone gives every path's stop term, the first term
    from there on at which that bound is at most ``tol``, in one
    ``_stop_terms`` call.  (3) Bare recurrence: it runs every hop, sorted
    by stop term so that the hops that leave are a slice, and each hop's
    value and deviation |S_i - start|_F + tau_i are those of its stop term.
    So a path's term count depends on the path alone, and it gets the same
    values in any batch, unless its bound meets ``tol`` before the batch's
    last deviation point: then it runs on to that point, where its bound
    still holds and is tighter.  Deviation points come within the first
    few terms, long before an ordinary ``tol`` is met, so only a loose
    ``tol``, or a short line batched with long loops, shows this.  A
    non-finite majorant or value, or a non-finite bound at the last
    deviation point, or a loop whose approach transfer T is singular,
    raises ``NonFiniteError``.

    Returns ``(values, estimate)``: ``values`` is the (paths, N, m) stack
    of every path's value, in block order, and ``estimate()`` computes the
    list of their error estimates from arrays this call made, so a caller
    that reads the values alone, as the inverse solver does, pays for no
    estimate.  The hops' values are put back in
    block order once, in the cut's layout for ``_compose``, and the
    Frobenius norms of whole columns taken before do not depend on the row
    order.  An open path's value is its one leg, its hops' values composed
    by ``_compose``.  A loop's is
    the first block column of T^-1 C T, from the composed approach [T; S_T]
    and circle [C; S_C]: the top block M = T^-1 C T and, below it, the
    blocks T^-1 (S_C T + C S_T - S_T M), all loops and blocks in one batched
    solve, skipped when m = N and no blocks lie below M.  The estimate is
    the composed bound of ``_hop_bounds`` with each hop's tail and
    deviation at its stop term, for a
    loop at most cond(T) E_C + |T^-1| (|C| + E_C + |M| + E) E_T with E_T,
    E_C the legs' bounds and E the loop's, plus a rounding model eps W
    max(1, |Y|_2), W the sum over hops (a head hop twice) of the majorant
    product prod_p (1 - |g_p|)^-b_p.  That is the majorant function
    m_0 prod_p (1 - |g_p| u)^-b_p at u = 1, the sum of all of the hop's
    m_k, so it bounds the magnitudes a hop adds up however they cancel.  Norms
    are of the top m x m blocks: for m = N the transfers, for ``inverse``'s
    variational field the system's own.
    """
    owner, heads = cut.owner, cut.heads
    g = cut.steps * coefficient_function(field)(cut.starts).T  # (P, B); the weights are not kept
    size = np.abs(g)
    g = g[:, None, None, :]  # over each hop's (N, m) block
    reach = size.max(axis=0)
    norms = field.bounds
    total = float(norms.sum())
    count, paths = len(owner), len(cut.groups)
    start = np.zeros((field.dimension, m), dtype=complex)
    start[field.rows] = np.eye(field.dimension, m)
    bound = np.ones(count)  # m_k
    near = np.empty(count)  # d_i, fixed at the path's deviation point
    term = np.repeat(start[:, :, None], count, axis=2)  # y_k
    sums = term.copy()
    stack = np.zeros((len(g),) + term.shape, dtype=complex)  # U_{p,k}
    partial = np.zeros_like(size)  # M_{p,k}
    passed = np.zeros(paths, dtype=bool)  # past the deviation point
    k = 0
    # Overflows are left as inf here; the isfinite checks raise NonFiniteError on them.
    with np.errstate(over="ignore"):
        majorants = np.exp(-(norms @ np.log1p(-size)))  # prod_p (1 - |g_p|)^-b_p = sum_k m_k bounds |Phi^-1|
        # Matrix and majorant terms together, until every path has passed its deviation point.
        while not passed.all():
            [bound], [tau] = _majorant(bound, partial, size, norms, reach, total, k, 1)
            k += 1
            _taylor_term(field, g, stack, term, sums, k)
            fresh = ~passed & (np.bincount(owner, tau, paths) < 1.0)
            if fresh.any():
                hops = fresh[owner]
                near[hops] = _frobenius(sums[..., hops] - start[:, :, None]) + tau[hops]
                passed |= fresh
        # Each hop's weight F_p w_i, from the deviations at its path's deviation point.
        scale, weight = _hop_norms(near, majorants, heads)
        weight *= np.exp(np.bincount(owner, scale, paths))[owner]
        # From the last deviation point, the majorant alone gives every path's stop term.
        stop, tails = _stop_terms(size, reach, norms, total, k, bound, partial, tau, weight, cut, tol)
        # The bare recurrence, the hops sorted by stop term, last first, so the hops that leave are a slice.
        hops = (-stop[owner]).argsort(kind="stable")
        ends = stop[owner[hops]]
        # C-contiguous, unlike a[..., hops] and a[..., :first]: the terms are written through reshaped views.
        g, term, sums, stack = (a.take(hops, axis=-1) for a in (g, term, sums, stack))
        fronts = []
        for end in sorted(set(ends.tolist())):
            while k < end:
                k += 1
                _taylor_term(field, g, stack, term, sums, k)
            first = int((-ends).searchsorted(-end))
            fronts.append(sums[..., first:])
            g, term, sums, stack = (np.ascontiguousarray(a[..., :first]) for a in (g, term, sums, stack))
        front = np.concatenate(fronts[::-1], axis=-1)
        if not np.isfinite(front).all():
            raise NonFiniteError("continuation produced a non-finite solution value")
    # Each leg's hop values in its row of the layout, identity columns after them.
    layout = np.empty((cut.legs * cut.width,) + start.shape, dtype=complex)
    layout[cut.pads] = start
    layout[cut.slots[hops]] = front.transpose(2, 0, 1)
    composed = _compose(layout[:, field.rows].reshape(cut.legs, cut.width, *start.shape))
    is_loop, loops = cut.is_loop, cut.loops
    transfers = composed[cut.first_legs]
    approach, turn = composed[loops], composed[loops + 1]
    t, c = approach[:, :m], turn[:, :m]
    if loops.size:
        try:
            loop = np.linalg.solve(t, c @ t)
        except np.linalg.LinAlgError:
            raise NonFiniteError("a loop's approach transfer is singular") from None
        if field.dimension > m:
            s_t, s_c = (leg[:, m:].reshape(len(loops), -1, m, m) for leg in (approach, turn))
            lower = np.linalg.solve(t[:, None], s_c @ t[:, None] + c[:, None] @ s_t - s_t @ loop[:, None])
            loop = np.concatenate([loop, lower.reshape(len(loops), -1, m)], axis=1)
        transfers[is_loop] = loop

    def estimate() -> list[float]:
        """Each path's error estimate, from the arrays this call made."""
        deviations = np.empty(count)
        with np.errstate(over="ignore"):
            deviations[hops] = _frobenius(front - start[:, :, None]) + tails[hops]
        estimates = _hop_bounds(tails, deviations, majorants, heads, owner, paths)
        # One SVD gives each path's |Y|_2, and for each loop cond(T)'s singular values and |C|_2.
        singular = np.linalg.svd(np.concatenate([transfers[:, :m], t, c]), compute_uv=False)
        sizes = singular[:paths, 0]
        if loops.size:
            singular, circle = np.split(singular[paths:], 2)
            leg_bounds = _hop_bounds(tails, deviations, majorants, 0.0, cut.leg_of, cut.legs)
            e_t, e_c = leg_bounds[loops], leg_bounds[loops + 1]
            product = estimates[is_loop]
            conditioned = (singular[:, 0] * e_c + e_t * (circle[:, 0] + e_c + sizes[is_loop] + product)) / singular[:, -1]
            estimates[is_loop] = np.minimum(product, conditioned)
        rounding = np.bincount(owner, majorants * (1.0 + heads), paths)
        estimates += np.finfo(float).eps * rounding * np.maximum(1.0, sizes)
        return estimates.tolist()

    return transfers, estimate


def _cut_paths(poles, paths):
    """Cut every path's legs into hops against ``poles``.

    A path's legs are its ``ContinuationPath.legs``: a pole loop gives its
    approach and its circle, whose transfer is T^-1 C T, and any other
    path the one leg of all its segments.  Returns a ``_Cut`` of the legs'
    (H + 1,) points of their H hops from ``paths.hops``, which cuts all
    legs of all paths in one bisection and rejects a leg through a pole.
    The cut depends on the poles alone, so the systems of one inverse
    solve share it.
    """
    chains = [path.legs for path in paths]
    return _Cut(hops([leg for chain in chains for leg in chain], poles), [len(chain) for chain in chains])


class _Cut:
    """Paths cut into hops, with every index of the hops that ``_integrate_legs`` reads, built once.

    It is built from each leg's (H + 1,) hop points, the legs of each path
    in turn, and ``counts``, the number of legs of each path: two for a
    loop, its approach and circle, one for any other path.  It keeps only
    what the kernel reads, not the points: ``legs`` is the number of legs,
    and ``len(groups)`` the number of paths.  Per hop, in leg order: ``leg_of`` its leg,
    ``owner`` its path, ``heads`` whether it is on a loop's approach,
    ``starts`` its start z and ``steps`` its h.  Per path: ``groups`` its
    first hop, ``first_legs`` its first leg, ``is_loop``; ``loops`` is the
    first leg of each loop.  ``_compose``
    reads the hops' values laid out as ``legs`` rows of ``width`` factors, a
    power of two: hop i at ``slots[i]``, each row's own hops first, in
    order, and the identity at the ``pads`` after them, so pairing
    neighbours row by row makes the products the hops alone make.  Every
    array is read-only, so one cut serves any number of calls.
    """

    def __init__(self, legs, counts):
        lengths = np.array([len(leg) - 1 for leg in legs])
        self.legs, hops = len(legs), int(lengths.sum())
        self.leg_of = np.repeat(np.arange(self.legs), lengths)
        self.owner = np.repeat(np.arange(len(counts)), counts)[self.leg_of]
        self.heads = np.array([count == 2 and i == 0 for count in counts for i in range(count)])[self.leg_of]
        points = np.concatenate(legs)
        inner = np.ones(len(points), dtype=bool)  # every point but a leg's last starts a hop
        inner[np.cumsum(lengths + 1) - 1] = False
        self.starts = points[inner]
        self.steps = (points[1:] - points[:-1])[inner[:-1]]
        self.groups = np.searchsorted(self.owner, np.arange(len(counts)))
        self.first_legs = np.cumsum([0] + counts[:-1])
        self.is_loop = np.array(counts) == 2
        self.loops = self.first_legs[self.is_loop]
        self.width = 1 << (int(lengths.max()) - 1).bit_length()
        self.slots = self.leg_of * self.width + np.arange(hops) - np.repeat(np.cumsum(lengths) - lengths, lengths)
        filled = np.zeros(self.legs * self.width, dtype=bool)
        filled[self.slots] = True
        self.pads = np.flatnonzero(~filled)
        for name, value in vars(self).items():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False


def continue_solution(system: FuchsianSystem, path: ContinuationPath, tol: float = DEFAULT_INTEGRATION_TOL):
    """Transfer matrix of analytic continuation along ``path``.

    Returns ``(transfer, error_estimate)`` with Y(end) = transfer @ Y(start):
    the kernel's one value, and its one estimate, computed once.  The path is cut into hops against the
    system's poles, which rejects a leg through a pole, and a pole loop is
    continued as head T and middle C only, which the kernel solves into
    T^-1 C T.  The hops take the terms of the path's stop term, chosen from
    the majorant so that the composed truncation bound, with deviations
    fixed at the path's deviation point, is at most ``tol``; the estimate
    is the composed bound at the stop term plus a rounding model
    (``_integrate_legs``).
    """
    check_tolerance(tol, "integration tolerance")
    [transfer], estimate = _integrate_legs(system, _cut_paths(system.poles, (path,)), system.dimension, tol)
    [err] = estimate()
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
    values, estimate = _integrate_legs(system, _cut_paths(system.poles, loops), system.dimension, tol)
    matrices = list(values)
    order = composition_order(loops)
    defect = _product_defect(matrices, order)
    for m in matrices:
        m.flags.writeable = False
    return MonodromyRepresentation(
        base_point=z0,
        matrices=tuple(matrices),
        error_estimates=tuple(estimate()),
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
