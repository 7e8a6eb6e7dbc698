"""Monodromy by analytic continuation and the generator-comparison report.

The fundamental solution is continued along paths with an adaptive embedded
Dormand-Prince 5(4) pair on the matrix equation dY/ds = z'(s) A(z(s)) Y,
parameterized by arc length.  Transfer matrices obey Y(end) = T Y(start),
so the transfer of a concatenation gamma2 after gamma1 is T2 @ T1.

Every pole loop is an approach, a circle, and the exact reverse of the
approach; its transfer is T^-1 C T, so the approach is integrated once.
The approach and the circle are the loop's two legs.  Every segment of a
leg is halved until no piece is longer than its distance to the nearest
pole (``paths.pieces``: a circle becomes 8 arcs, an approach line pieces
that shrink toward the pole), and every piece of every leg of every loop
is one row of a batched step loop.  The rows start together, each keeps
its own arc length, step size and error control, and each attempted step
asks the system's field for the six stage points of all active rows in
one call.  The field gives the partial-fraction weights w = 1/(z - a_p)
and the residues B_p, A(z) = sum_p w_p B_p, and A itself is never formed:
the batch is stored as columns side by side, and a stage slope applies
the residues once to the state scaled by each row's weights.  A
loop of K pieces, its head's pieces counted twice, gives every piece an
equal share tol / K of local error, so the rows take about the same
number of steps, and the estimate, ten times the head's error twice plus
the middle's, stays at most 10 tol max(1, |Y|_F).  The system is
linear, so a leg's transfer is the product of its pieces' transfers.
Each piece continues the first block column [I_m; 0] and the
pieces compose in that form, [T2 T1; S2 T1 + (I (x) T2) S1]: with m = N
that is the plain product, and the inverse solver continues just the
first block column of its variational system.

``verify_theorem`` compares the monodromy around each pole against the
exponential generator exp(2 pi i B_j) from one Jordan analysis of each:
spectra, block structures, and an explicit conjugator, with resonant poles
reported but excluded from the hypothesis.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    NonFiniteError,
    SimilaritySearchError,
    StepSizeUnderflowError,
    ValidationError,
)
from .linalg import (
    _conjugator,
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
    frame,
    path_clearance_audit,
    pieces,
)
from .system import TWO_PI_I, FuchsianSystem, is_non_resonant

DEFAULT_INTEGRATION_TOL = 1e-9
DEFAULT_VERIFY_TOL = 1e-7

# Dormand-Prince 5(4) tableau.  Row i of _DP_STAGE weighs y (column 0)
# and the earlier h-scaled slopes into the input of stage i + 1; the last
# row doubles as the 5th-order solution (first-same-as-last), and _DP_ERR
# is the difference between the 5th- and 4th-order weights.
_DP_STAGE = np.array(
    [
        [1.0, 1.0 / 5.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [1.0, 3.0 / 40.0, 9.0 / 40.0, 0.0, 0.0, 0.0, 0.0],
        [1.0, 44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0, 0.0, 0.0, 0.0],
        [1.0, 19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0, 0.0, 0.0],
        [1.0, 9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0, -5103.0 / 18656.0, 0.0],
        [1.0, 35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0],
    ]
)
_DP_C = np.array([0.2, 0.3, 0.8, 8.0 / 9.0, 1.0, 1.0])
_DP_ERR = np.array(
    [
        71.0 / 57600.0,
        0.0,
        -71.0 / 16695.0,
        71.0 / 1920.0,
        -17253.0 / 339200.0,
        22.0 / 525.0,
        -1.0 / 40.0,
    ]
)

_MIN_STEP_FRACTION = 1e-14
_MAX_GROWTH = 5.0
_MIN_SHRINK = 0.2
_SAFETY = 0.9


def coefficient_function(system: FuchsianSystem):
    """The system's field: points -> (weights (M, P), residues (P, N, N)).

    A(z_i) = sum_p weights[i, p] residues[p], with the partial-fraction
    weights 1 / (z_i - a_p) and the residues B_p of ``partial_fractions``.
    """
    return system.partial_fractions


def _norms(parts: np.ndarray, count: int) -> np.ndarray:
    """|x_k[..., b]|_F for every b < count, from the float views of the complex x_k as rows of ``parts``."""
    parts = parts.reshape(len(parts), -1, 2 * count)
    return np.sqrt(np.einsum("kib,kib->kb", parts, parts).reshape(len(parts), count, 2).sum(axis=2))


def _apply_residues(operator, scale, value, buffer, out):
    """Write sum_p R_p (scale_p * value) into ``out``, (N, m, B) like ``value``.

    ``operator`` is [R_1 ... R_P] as one (N, P N) matrix and ``scale``
    (P, 1, 1, B), one factor per residue and row.  The scaled copies fill
    ``buffer`` (P, N, m, B), and one (N, P N) @ (P N, m B) product sums
    them.
    """
    np.multiply(scale, value, out=buffer)
    np.matmul(operator, buffer.reshape(operator.shape[1], -1), out=out.reshape(len(out), -1))


def _integrate_legs(field, rows, start: np.ndarray):
    """Continue the (N, m) value ``start`` along every row in one step loop.

    A row is ``(segment, rate)``: one segment and the local error it allows
    per unit arc length, scaled by max(1, |y|_F) at each step (mixed
    absolute/relative control).  ``_rows`` sets the rate to a row's share
    of the tolerance over its length, so a row's accumulated error stays
    within its share times max(1, |y|_F).  Returns the (rows, N, m)
    values at the rows' ends and each row's accumulated local error.

    Every row keeps its own arc length, step size and error sum, so it
    takes the steps it would take alone; only the arithmetic is shared.
    ``field`` maps M points to ``(weights (M, P), residues (P, N, N))``
    with A(z_i) = sum_p weights[i, p] residues[p]; A itself is never
    formed.  All rows start together, with one ``field`` call for their
    first stage, and each attempted step of the B active rows makes one
    call on their 6B stage points.  The batch is stored column-wise, rows
    on the last axis: y and the seven h-scaled slopes K = h z' A y are
    ``stages`` (8, N, m, B).  A stage input is one real product of the
    tableau row [1, a_i] with the float view of [y, K_1 ...], and its slope
    one ``_apply_residues`` of the input scaled by each row's h z' w_p, so
    a step's temporaries grow with P N m B, not with B N^2.  The last slope
    of an accepted step is the next step's first (first-same-as-last),
    rescaled to the new step size.  A finished row leaves the batch.  A non-finite value or a collapsing
    step on any row fails the whole call.
    """
    count = len(rows)
    ends = np.empty((count,) + start.shape, dtype=complex)
    errors = np.zeros(count)
    ids = np.arange(count)  # the row each batch column advances
    rate = np.array([r for _, r in rows], dtype=float)
    coefficients = np.array([segment.coefficients for segment, _ in rows], dtype=complex)
    length = np.array([segment.length for segment, _ in rows])
    s = np.zeros(count)
    accumulated = np.zeros(count)
    stages = np.empty((8,) + start.shape + (count,), dtype=complex)  # y, then the 7 slopes
    stages[0] = start[:, :, None]
    flat = stages.reshape(8, -1).view(float)
    work = np.empty((2, flat.shape[1]))  # the error combination, then each stage input
    z, v = frame(coefficients, s[:, None])
    weights, residues = field(z.ravel())
    buffer = np.empty(residues.shape[:1] + stages.shape[1:], dtype=complex)
    operator = residues.transpose(1, 0, 2).reshape(len(start), -1)
    _apply_residues(operator, (v * weights).T[:, None, None, :], stages[0], buffer, stages[1])
    h = np.minimum(length, 0.1 / (1.0 + _norms(flat[1:2], count)[0]))
    stages[1] *= h
    while ids.size:
        batch = len(ids)
        z, v = frame(coefficients, s[:, None] + h[:, None] * _DP_C)
        weights, residues = field(z.ravel())
        operator = residues.transpose(1, 0, 2).reshape(len(start), -1)
        if buffer.shape != residues.shape[:1] + stages.shape[1:]:
            buffer = np.empty(residues.shape[:1] + stages.shape[1:], dtype=complex)
        # (6, P, 1, 1, B): h z' w_p for every stage, residue and row.
        scales = ((h[:, None] * v)[:, :, None] * weights.reshape(batch, 6, -1)).transpose(1, 2, 0)
        scales = scales[:, :, None, None, :]
        trial = work[1].view(complex).reshape(stages.shape[1:])
        for i in range(6):
            np.dot(_DP_STAGE[i, : i + 2], flat[: i + 2], out=work[1])
            _apply_residues(operator, scales[i], trial, buffer, stages[i + 2])
        np.dot(_DP_ERR, flat[1:], out=work[0])
        err, size = _norms(work, batch)
        # A finite Frobenius norm means every entry is finite, and so does a
        # finite sum of norms.
        if not math.isfinite(err.sum() + size.sum()):
            raise NonFiniteError("continuation produced a non-finite solution value")
        allowed = rate * h * np.maximum(1.0, size)
        accept = err <= allowed
        np.add(s, h, out=s, where=accept)
        np.add(accumulated, err, out=accumulated, where=accept)
        np.copyto(stages[0], trial, where=accept)
        np.copyto(stages[1], stages[7], where=accept)
        # An error of exactly 0 reads as an infinite ratio: the step grows by _MAX_GROWTH.
        ratio = np.divide(allowed, err, out=np.full(batch, np.inf), where=err > 0.0)
        grown = h * np.minimum(_MAX_GROWTH, np.maximum(_MIN_SHRINK, _SAFETY * ratio**0.2))
        ended = s >= length
        small = grown < _MIN_STEP_FRACTION * length
        if small.any():
            for row in np.flatnonzero(small & ~ended):
                raise StepSizeUnderflowError(
                    f"step size collapsed at arc length {s[row]:.6g} of {length[row]:.6g}"
                )
        np.minimum(grown, length - s, out=grown)
        stages[1] *= grown / h
        h = grown
        if ended.any():
            ends[ids[ended]] = stages[0][..., ended].transpose(2, 0, 1)
            errors[ids[ended]] = accumulated[ended]
            keep = ~ended
            ids, rate, coefficients, length, s, h, accumulated = (
                a[keep] for a in (ids, rate, coefficients, length, s, h, accumulated)
            )
            # C-contiguous, unlike stages[..., keep]: the slopes are written through reshaped views.
            stages = np.compress(keep, stages, axis=-1)
            flat = stages.reshape(8, -1).view(float)
            work = np.empty((2, flat.shape[1]))
    return ends, errors


def _compose(columns: np.ndarray) -> np.ndarray:
    """First block column of the transfer Phi_k ... Phi_1 from those of its factors.

    ``columns`` holds each factor's (N, m) first block column [T; S], Phi_1
    first: T is its top m x m block and S the rest, read as m x m blocks.
    For transfers of the form [[T, 0], [S, I (x) T]], which is every
    transfer when m = N and every variational transfer of ``inverse``,
    Phi2 Phi1 has the first block column [T2 T1; S2 T1 + (I (x) T2) S1].
    """
    m = columns.shape[2]
    t, s = columns[0, :m], columns[0, m:].reshape(-1, m, m)
    for column in columns[1:]:
        t2, s2 = column[:m], column[m:].reshape(-1, m, m)
        s = s2 @ t + t2 @ s
        t = t2 @ t
    return np.concatenate([t, s.reshape(-1, m)])


def _loop_transfer(legs) -> np.ndarray:
    """The transfer from ``_continue_legs``'s legs from the identity: T^-1 C T for a loop."""
    if len(legs) == 2:
        approach, turn = legs
        return np.linalg.solve(approach, turn @ approach)
    return legs[0]


def _rows(segments, budget: float):
    """One kernel row per segment, each allowed ``budget`` of local error over its whole length."""
    return [(segment, budget / segment.length) for segment in segments]


def _cut_paths(poles, paths):
    """Audit every path against ``poles`` and cut it into legs of pieces.

    Returns one ``(legs, weights)`` per path: each leg a tuple of pieces,
    and each leg's weight in the path's error estimate.  A path whose tail
    is, segment by segment, the exact reverse of its head around one
    middle segment (every pole loop) gives two legs, the head and the
    middle, weighted 2 and 1: the head's error counts twice.  Any other
    path gives the one leg of all its segments, weighted 1.  Every segment
    is split by ``paths.pieces`` until no piece is longer than its
    distance to the nearest pole.  The cut depends on the poles alone, so
    the systems of one Gauss-Newton solve share it.
    """
    cut = []
    for path in paths:
        audited = path_clearance_audit(path, poles)
        if audited < path.clearance * (1.0 - 1e-9):
            raise ValidationError(
                f"path passes within {audited:.3e} of a pole, closer than its "
                f"stated clearance {path.clearance:.3e}"
            )
        segments = path.segments
        half = len(segments) // 2
        head, middle, tail = segments[:half], segments[half:half + 1], segments[half + 1:]
        if head and tail == tuple(seg.reversed() for seg in reversed(head)):
            legs, weights = (head, middle), (2.0, 1.0)
        else:
            legs, weights = (segments,), (1.0,)
        cut.append((tuple(tuple(p for seg in leg for p in pieces(seg, poles)) for leg in legs), weights))
    return tuple(cut)


def _continue_cut(system: FuchsianSystem, cut, start: np.ndarray, tol: float):
    """Continue the first block column ``start`` = [I_m; 0] along every leg of a cut in one batch.

    Returns one ``(legs, error_estimate)`` per path of ``_cut_paths``: for
    a loop T @ start along the head and C @ start around the middle, for
    any other path Y @ start.  Every piece is a row of one
    ``_integrate_legs`` batch, continued from ``start``.  A path of K
    weighted pieces (K = 2 head pieces + middle pieces for a loop, the
    piece count otherwise) gives each piece an equal share ``tol / K`` of
    local error over its length, so every row takes about the same number
    of steps whatever the scale of its piece.  A leg's value is its
    pieces' first block columns composed in order by ``_compose``, and its
    error the sum of its pieces' local errors; the estimate is ten times
    the weighted sum over the legs, so it is at most
    10 tol max(1, |y|_F) over the path's steps.  The composition holds for
    a system whose transfer that column determines: every system when
    m = N, and the variational systems of ``inverse``.  The package passes
    no other start.
    """
    check_tolerance(tol, "integration tolerance")
    rows = []
    plans = []  # per path: each leg's rows, and the legs' weights
    for legs, weights in cut:
        budget = tol / sum(w * len(leg) for w, leg in zip(weights, legs))
        chains = []
        for leg in legs:
            chains.append(slice(len(rows), len(rows) + len(leg)))
            rows += _rows(leg, budget)
        plans.append((chains, weights))
    ends, errors = _integrate_legs(coefficient_function(system), rows, start)
    return [
        (
            tuple(_compose(ends[chain]) for chain in chains),
            10.0 * sum(w * float(errors[chain].sum()) for w, chain in zip(weights, chains)),
        )
        for chains, weights in plans
    ]


def _continue_legs(system: FuchsianSystem, paths, start: np.ndarray, tol: float):
    """``_continue_cut`` of ``paths`` cut against the system's poles."""
    return _continue_cut(system, _cut_paths(system.poles, paths), start, tol)


def transfer_along(rhs, path: ContinuationPath, dimension: int, tol: float = DEFAULT_INTEGRATION_TOL):
    """Transfer matrix of dY/dz = rhs(z) Y along an arbitrary path.

    ``rhs`` is any callable z -> matrix; no pole bookkeeping happens here.
    It is called point by point at every stage point, by the same step
    loop as ``continue_solution``, as a field whose weights are the
    identity and whose residues are the pointwise matrices rhs(z_i), so
    a step's work grows with the square of the path's segment count.
    With no poles to measure against, no segment is split: each segment
    of the path is one row from the identity with an equal share
    ``tol / len(path.segments)`` of local error, the rows advance side by
    side, and the transfer is the product of theirs.  Returns ``(transfer, error_estimate)`` with
    Y(end) = transfer @ Y(start), the estimate being ten times the
    accumulated local error, at most 10 tol max(1, |Y|_F).
    """
    def field(points):
        return np.eye(len(points)), np.array([rhs(complex(z)) for z in points], dtype=complex)

    check_tolerance(tol, "integration tolerance")
    eye = np.eye(dimension, dtype=complex)
    ends, errors = _integrate_legs(field, _rows(path.segments, tol / len(path.segments)), eye)
    return _compose(ends), 10.0 * float(errors.sum())


def continue_solution(system: FuchsianSystem, path: ContinuationPath, tol: float = DEFAULT_INTEGRATION_TOL):
    """Transfer matrix of analytic continuation along ``path``.

    Returns ``(transfer, error_estimate)`` with Y(end) = transfer @ Y(start).
    The path is a batch of one for ``_continue_legs``: it is audited
    against the system's poles before any integration and cut into pieces
    (no piece longer than its distance to the nearest pole), all continued
    side by side from the identity.  A pole loop is integrated as head T
    and middle C only, each the product of its pieces' transfers, giving
    T^-1 C T with the head's error counted twice.  Each of the path's K
    pieces (the head's counted twice) keeps its local error within an
    equal share tol / K, and the estimate, ten times the accumulated local
    error, is at most 10 tol max(1, |Y|_F).
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
    loops = build_loops(system, z0)
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

    The generator and the monodromy matrix get one ``jordan_structure``
    each, and all three checks read those two: the spectra, compared as the
    Jordan cluster means with multiplicity, agree within ``tol``; the block
    structures match; and an explicit conjugator takes the generator to the
    monodromy matrix, with its residual.  ``tol`` bounds the spectrum
    distance and the conjugator residual relative to the matrix norms.
    """
    check_tolerance(tol, "verification tolerance")
    rep = monodromy(system, integration_tol, base_point)
    resonance = is_non_resonant(system)
    verdicts = []
    for j in range(system.pole_count):
        generator = matrix_exp(TWO_PI_I * system.residues[j])
        observed = rep.matrices[j]
        jg = jordan_structure(generator)
        jm = jordan_structure(observed)
        sdist = _spectrum_distance(jg, jm)
        spectrum_ok = sdist <= tol
        pairs = jg.match_blocks(jm, max(tol, 2.0 * max(jg.tolerance, jm.tolerance)))
        structure_ok = pairs is not None
        conjugator = residual = None
        if structure_ok:
            try:
                found = _conjugator(generator, observed, jg, jm, pairs, tol)
                conjugator, residual = found.matrix, found.residual
            except SimilaritySearchError:
                pass
        ok = spectrum_ok and structure_ok and conjugator is not None
        verdicts.append(
            PoleVerdict(
                pole_index=j,
                non_resonant=not resonance[j].resonant,
                spectrum_match=spectrum_ok,
                spectrum_distance=sdist,
                structure_match=structure_ok,
                conjugator=conjugator,
                conjugator_residual=residual,
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
