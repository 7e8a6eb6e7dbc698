"""Monodromy by analytic continuation and the generator-comparison report.

The fundamental solution is continued along paths with an adaptive embedded
Dormand-Prince 5(4) pair on the matrix equation dY/ds = z'(s) A(z(s)) Y,
parameterized by arc length.  Transfer matrices obey Y(end) = T Y(start),
so the transfer of a concatenation gamma2 after gamma1 is T2 @ T1.

Every pole loop is an approach, a circle, and the exact reverse of the
approach; its transfer is T^-1 C T, so the approach is integrated once.
The approach and the circle are the loop's two legs, and every leg of
every loop advances in one batched step loop: each leg keeps its own arc
length, step size and error control, and each attempted step evaluates A
at the six stage points of all active legs in one call.  The kernel
continues any (N, m) value, not only the identity: the inverse solver
continues just the first block column of its variational system.

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
)
from .system import TWO_PI_I, FuchsianSystem, is_non_resonant

DEFAULT_INTEGRATION_TOL = 1e-9
DEFAULT_VERIFY_TOL = 1e-7

# Dormand-Prince 5(4) tableau.  Row i of _DP_A weighs the earlier stages
# into the input of stage i + 1; the last row doubles as the 5th-order
# weights (first-same-as-last), and _DP_ERR is the difference between the
# 5th- and 4th-order weights.
_DP_A = np.array(
    [
        [1.0 / 5.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [3.0 / 40.0, 9.0 / 40.0, 0.0, 0.0, 0.0, 0.0],
        [44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0, 0.0, 0.0, 0.0],
        [19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0, 0.0, 0.0],
        [9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0, -5103.0 / 18656.0, 0.0],
        [35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0],
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
    """The system's vectorized evaluator: a point or array of points -> A(z)."""
    return system.evaluate


def _norms(x: np.ndarray) -> np.ndarray:
    """|x[b]|_F for every b, from the real and imaginary parts side by side."""
    parts = x.reshape(len(x), -1).view(float)
    return np.sqrt(np.einsum("bi,bi->b", parts, parts))


def _integrate_legs(evaluate, legs, start: np.ndarray):
    """Continue the (N, m) value ``start`` along every leg in one step loop.

    A leg is ``(segments, rate)``: a chain of segments and the local error
    it allows per unit arc length, scaled by max(1, |y|_F) at each step
    (mixed absolute/relative control).  Returns the (legs, N, m) values at
    the legs' ends and each leg's accumulated local error.

    Every leg keeps its own arc length, step size and segment, so it takes
    the steps it would take alone; only the arithmetic is shared.  Each
    attempted step of the B active legs evaluates A at their 6B stage
    points in one ``evaluate`` call (points -> (points, N, N) stack of A).
    A leg's y sits in front of its stages, so each stage input is one
    batched product of a tableau row (1 for y, then h-scaled) with
    [y, stages].  Legs starting a segment share one call for their first
    stage, and a leg past its last segment leaves the batch.  A non-finite
    value or a collapsing step on any leg fails the whole call.
    """
    count = len(legs)
    dimension = start.shape[0]
    ends = np.empty((count,) + start.shape, dtype=complex)
    errors = np.zeros(count)
    chains = [segments for segments, _ in legs]
    ids = np.arange(count)  # the leg each batch row advances
    position = np.zeros(count, dtype=int)  # the row's segment within its leg
    rate = np.array([r for _, r in legs], dtype=float)
    coefficients = np.empty((count, 4), dtype=complex)
    length = np.empty(count)
    s = np.zeros(count)
    h = np.empty(count)
    accumulated = np.zeros(count)
    stages = np.empty((count, 8) + start.shape, dtype=complex)  # y, then the 7 stages
    stages[:, 0] = start
    weights = np.ones((count, 6, 7), dtype=complex)  # column 0 weighs y
    loading = ids  # the rows starting a segment
    while ids.size:
        if len(loading):
            for row in loading:
                segment = chains[ids[row]][position[row]]
                coefficients[row] = segment.coefficients
                length[row] = segment.length
            s[loading] = 0.0
            z, v = frame(coefficients[loading], np.zeros((loading.size, 1)))
            first = v[:, :, None] * (evaluate(z.ravel()) @ stages[loading, 0])
            stages[loading, 1] = first
            h[loading] = np.minimum(length[loading], 0.1 / (1.0 + _norms(first)))
        np.minimum(h, length - s, out=h)
        z, v = frame(coefficients, s[:, None] + h[:, None] * _DP_C)
        # Scaled in place: a second (6B, N, N) array per step made malloc
        # return and refault its heap pages, a varying number of times a run.
        slopes = evaluate(z.ravel()).reshape(v.shape + (dimension, dimension))
        slopes *= v[:, :, None, None]
        np.multiply(h[:, None, None], _DP_A, out=weights[:, :, 1:])
        flat = stages.reshape(len(ids), 8, -1)
        shape = stages[:, 0].shape
        for i in range(6):
            trial = (weights[:, i : i + 1, : i + 2] @ flat[:, : i + 2]).reshape(shape)
            np.matmul(slopes[:, i], trial, out=stages[:, i + 2])
        err = h * _norms(_DP_ERR @ flat[:, 1:])
        size = _norms(trial)
        # A finite Frobenius norm means every entry is finite, and so does a
        # finite sum of norms.
        if not math.isfinite(err.sum() + size.sum()):
            raise NonFiniteError("continuation produced a non-finite solution value")
        allowed = rate * h * np.maximum(1.0, size)
        accept = err <= allowed
        np.add(s, h, out=s, where=accept)
        np.add(accumulated, err, out=accumulated, where=accept)
        np.copyto(stages[:, 0], trial, where=accept[:, None, None])
        np.copyto(stages[:, 1], stages[:, 7], where=accept[:, None, None])
        # An error of exactly 0 reads as an infinite ratio: the step grows by _MAX_GROWTH.
        ratio = np.divide(allowed, err, out=np.full(len(ids), np.inf), where=err > 0.0)
        h *= np.minimum(_MAX_GROWTH, np.maximum(_MIN_SHRINK, _SAFETY * ratio**0.2))
        ended = s >= length
        small = h < _MIN_STEP_FRACTION * length
        if small.any():
            for row in np.flatnonzero(small & ~ended):
                raise StepSizeUnderflowError(
                    f"step size collapsed at arc length {s[row]:.6g} of {length[row]:.6g}"
                )
        if ended.any():
            position += ended
            done = ended & (position == [len(chains[leg]) for leg in ids])
            ends[ids[done]] = stages[done, 0]
            errors[ids[done]] = accumulated[done]
            keep = ~done
            ids, position, rate, coefficients, length, s, h, accumulated, stages, weights = (
                a[keep] for a in (ids, position, rate, coefficients, length, s, h, accumulated, stages, weights)
            )
            loading = np.flatnonzero(ended[keep])
        else:
            loading = ()
    return ends, errors


def _loop_transfer(legs) -> np.ndarray:
    """The transfer from ``_continue_legs``'s legs from the identity: T^-1 C T for a loop."""
    if len(legs) == 2:
        approach, turn = legs
        return np.linalg.solve(approach, turn @ approach)
    return legs[0]


def _continue_legs(system: FuchsianSystem, paths, start: np.ndarray, tol: float):
    """Continue the (N, m) value ``start`` along every path in one batch.

    Returns one ``(legs, error_estimate)`` per path.  Every path is audited
    against the system's poles first.  A path whose tail is, segment by
    segment, the exact reverse of its head around one middle segment (every
    pole loop) gives two legs, each continued from ``start``: T @ start
    along the head and C @ start around the middle, with the head's error
    counted twice.  Any other path gives the one leg Y @ start, and a
    zero-length path gives ``(start,)`` with a zero estimate exactly.  Each
    leg allows ``tol / path.length`` of local error per unit arc length,
    the estimate is ten times its accumulated local error, and all legs of
    all paths advance in one ``_integrate_legs`` step loop.
    """
    for path in paths:
        if path.length > 0.0:
            audited = path_clearance_audit(path, system.poles)
            if audited < path.clearance * (1.0 - 1e-9):
                raise ValidationError(
                    f"path passes within {audited:.3e} of a pole, closer than its "
                    f"stated clearance {path.clearance:.3e}"
                )
    evaluate = coefficient_function(system)
    check_tolerance(tol, "integration tolerance")
    legs = []
    plans = []  # per path: its first leg, and each of its legs' weight in the estimate
    for path in paths:
        length = path.length
        segments = path.segments
        half = len(segments) // 2
        head, middle, tail = segments[:half], segments[half:half + 1], segments[half + 1:]
        if length == 0.0:
            plans.append((len(legs), ()))
        elif head and tail == tuple(seg.reversed() for seg in reversed(head)):
            plans.append((len(legs), (2.0, 1.0)))
            legs += [(head, tol / length), (middle, tol / length)]
        else:
            plans.append((len(legs), (1.0,)))
            legs.append((segments, tol / length))
    ends, errors = _integrate_legs(evaluate, legs, start)
    results = []
    for first, weights in plans:
        if not weights:
            results.append(((start,), 0.0))
            continue
        last = first + len(weights)
        estimate = 10.0 * sum(w * float(e) for w, e in zip(weights, errors[first:last]))
        results.append((tuple(ends[first:last]), estimate))
    return results


def transfer_along(rhs, path: ContinuationPath, dimension: int, tol: float = DEFAULT_INTEGRATION_TOL):
    """Transfer matrix of dY/dz = rhs(z) Y along an arbitrary path.

    ``rhs`` is any callable z -> matrix; no pole bookkeeping happens here.
    It is called point by point at every stage point, by the same step
    loop as ``continue_solution``, with the path as one leg integrated
    straight through, segment by segment.  Returns
    ``(transfer, error_estimate)`` with Y(end) = transfer @ Y(start), the
    estimate being ten times the accumulated local error.
    """
    def evaluate(points):
        return np.array([rhs(complex(z)) for z in points], dtype=complex)

    check_tolerance(tol, "integration tolerance")
    eye = np.eye(dimension, dtype=complex)
    if path.length == 0.0:
        return eye, 0.0
    ends, errors = _integrate_legs(evaluate, [(path.segments, tol / path.length)], eye)
    return ends[0], 10.0 * float(errors[0])


def continue_solution(system: FuchsianSystem, path: ContinuationPath, tol: float = DEFAULT_INTEGRATION_TOL):
    """Transfer matrix of analytic continuation along ``path``.

    Returns ``(transfer, error_estimate)`` with Y(end) = transfer @ Y(start).
    The path is a batch of one for ``_continue_legs``: it is audited
    against the system's poles before any integration, the integrator keeps
    the local error per unit arc length below ``tol / path.length``, and
    the estimate is ten times the accumulated local error.  A pole loop is
    integrated as head T and middle C only, each from the identity, giving
    T^-1 C T with the head's error counted twice.  A zero-length path
    yields the identity with a zero estimate exactly.
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
