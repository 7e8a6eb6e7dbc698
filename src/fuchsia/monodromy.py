"""Monodromy by analytic continuation and the generator-comparison report.

The fundamental solution is continued along paths with an adaptive embedded
Dormand-Prince 5(4) pair on the matrix equation dY/ds = z'(s) A(z(s)) Y,
parameterized by arc length.  Transfer matrices obey Y(end) = T Y(start),
so the transfer of a concatenation gamma2 after gamma1 is T2 @ T1.

The stage points of a step depend only on the arc length and the step
size, so each attempted step evaluates A at all six of them in one call.
Every pole loop is an approach, a circle, and the exact reverse of the
approach; its transfer is T^-1 C T, so the approach is integrated once.
The kernel continues any (N, m) value, not only the identity: the inverse
solver continues just the first block column of its variational system.

``verify_theorem`` compares the monodromy around each pole against the
exponential generator exp(2 pi i B_j): eigenvalue multisets, Jordan block
structures, and an explicit conjugator, with resonant poles reported but
excluded from the hypothesis.
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
    DEFAULT_CLUSTER_TOL,
    check_tolerance,
    eigen_decompose,
    jordan_structure,
    matrix_exp,
    min_cost_assignment,
    similarity_transform,
)
from .paths import (
    LOOP_CONVENTION,
    ContinuationPath,
    build_loops,
    composition_order,
    default_base_point,
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


def _frobenius(x: np.ndarray) -> float:
    """|x|_F by the formula ``np.linalg.norm`` uses for a complex array."""
    x = x.ravel()
    return math.sqrt(x.real.dot(x.real) + x.imag.dot(x.imag))


def _integrate_segment(evaluate, segment, y: np.ndarray, rate: float):
    """Advance the (N, m) value y across one segment; returns (y, accumulated local error).

    ``evaluate`` maps an array of points to the (points, N, N) stack of A at
    them.  Each attempted step evaluates A at its six stage points in one
    call; the stage inputs are products of tableau rows with the stacked
    stages, written into a trial buffer that becomes y when the step is
    accepted.  ``rate`` is the local error allowed per unit arc length,
    scaled by max(1, |y|_F) at each step (mixed absolute/relative control).
    """
    length = segment.length
    stages = np.empty((7,) + y.shape, dtype=complex)
    flat = stages.reshape(7, -1)
    y = np.array(y, dtype=complex)  # a copy: the buffers are swapped below
    trial = np.empty_like(y)
    increment = np.empty_like(y)
    combination = increment.reshape(-1)
    earlier = [flat[: i + 1] for i in range(6)]  # the stages that feed stage i + 1
    z, v = segment.frame(np.zeros(1))
    stages[0] = v[0] * (evaluate(z)[0] @ y)
    h = min(length, 0.1 / (1.0 + _frobenius(stages[0])))
    s = 0.0
    accumulated = 0.0
    while s < length:
        h = min(h, length - s)
        z, v = segment.frame(s + h * _DP_C)
        slopes = evaluate(z) * v[:, None, None]
        weights = h * _DP_A
        # np.dot: the products of @, bit for bit (the report digests agree), at less call overhead.
        for i in range(6):
            np.dot(weights[i, : i + 1], earlier[i], out=combination)
            np.add(y, increment, out=trial)
            np.matmul(slopes[i], trial, out=stages[i + 1])
        err = _frobenius(h * np.dot(_DP_ERR, flat))
        size = _frobenius(trial)
        # A finite Frobenius norm means every entry is finite.
        if not (math.isfinite(err) and math.isfinite(size)):
            raise NonFiniteError("continuation produced a non-finite solution value")
        allowed = rate * h * max(1.0, size)
        if err <= allowed:
            s += h
            y, trial = trial, y
            stages[0] = stages[6]
            accumulated += err
        if err == 0.0:
            factor = _MAX_GROWTH
        else:
            factor = min(_MAX_GROWTH, max(_MIN_SHRINK, _SAFETY * (allowed / err) ** 0.2))
        h *= factor
        if s < length and h < _MIN_STEP_FRACTION * length:
            raise StepSizeUnderflowError(
                f"step size collapsed at arc length {s:.6g} of {length:.6g}"
            )
    return y, accumulated


def _integrate(evaluate, segments, y: np.ndarray, rate: float):
    accumulated = 0.0
    for segment in segments:
        y, err = _integrate_segment(evaluate, segment, y, rate)
        accumulated += err
    return y, accumulated


def _continue_legs(system: FuchsianSystem, path: ContinuationPath, start: np.ndarray, tol: float):
    """Continue the (N, m) value ``start`` along ``path``; returns ``(legs, error_estimate)``.

    The path is audited against the system's poles first.  A path whose tail
    is, segment by segment, the exact reverse of its head around one middle
    segment (every pole loop) gives two legs, each continued from ``start``:
    T @ start along the head and C @ start around the middle, with the
    head's error counted twice.  Any other path gives the one leg Y @ start,
    and a zero-length path gives ``(start,)`` with a zero estimate exactly.
    """
    length = path.length
    if length > 0.0:
        audited = path_clearance_audit(path, system.poles)
        if audited < path.clearance * (1.0 - 1e-9):
            raise ValidationError(
                f"path passes within {audited:.3e} of a pole, closer than its "
                f"stated clearance {path.clearance:.3e}"
            )
    evaluate = coefficient_function(system)
    check_tolerance(tol, "integration tolerance")
    if length == 0.0:
        return (start,), 0.0
    rate = tol / length
    segments = path.segments
    half = len(segments) // 2
    head, middle, tail = segments[:half], segments[half:half + 1], segments[half + 1:]
    if head and tail == tuple(seg.reversed() for seg in reversed(head)):
        approach, err_head = _integrate(evaluate, head, start, rate)
        turn, err_middle = _integrate(evaluate, middle, start, rate)
        return (approach, turn), 10.0 * (2.0 * err_head + err_middle)
    y, err = _integrate(evaluate, segments, start, rate)
    return (y,), 10.0 * err


def transfer_along(rhs, path: ContinuationPath, dimension: int, tol: float = DEFAULT_INTEGRATION_TOL):
    """Transfer matrix of dY/dz = rhs(z) Y along an arbitrary path.

    ``rhs`` is any callable z -> matrix; no pole bookkeeping happens here.
    It is called point by point at every stage point, by the same kernel
    as ``continue_solution``, over every segment of the path in turn.
    Returns ``(transfer, error_estimate)`` with Y(end) = transfer @ Y(start),
    the estimate being ten times the accumulated local error.
    """
    def evaluate(points):
        return np.array([rhs(complex(z)) for z in points], dtype=complex)

    check_tolerance(tol, "integration tolerance")
    eye = np.eye(dimension, dtype=complex)
    if path.length == 0.0:
        return eye, 0.0
    y, err = _integrate(evaluate, path.segments, eye, tol / path.length)
    return y, 10.0 * err


def continue_solution(system: FuchsianSystem, path: ContinuationPath, tol: float = DEFAULT_INTEGRATION_TOL):
    """Transfer matrix of analytic continuation along ``path``.

    Returns ``(transfer, error_estimate)`` with Y(end) = transfer @ Y(start).
    The integrator keeps the local error per unit arc length below
    ``tol / path.length``, and the estimate is ten times the accumulated
    local error.  A pole loop is integrated as head T and middle C only,
    each from the identity, giving T^-1 C T with the head's error counted
    twice.  A zero-length path yields the identity with a zero estimate
    exactly.  The path is audited against the system's poles before any
    integration happens.
    """
    legs, err = _continue_legs(system, path, np.eye(system.dimension, dtype=complex), tol)
    if len(legs) == 2:
        approach, turn = legs
        return np.linalg.solve(approach, turn @ approach), err
    return legs[0], err


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
    matrices = []
    estimates = []
    for loop in loops:
        m, err = continue_solution(system, loop, tol)
        matrices.append(m)
        estimates.append(err)
    order = composition_order(system.poles, z0)
    product = np.eye(system.dimension, dtype=complex)
    for index in order:
        product = matrices[index] @ product
    defect = float(np.linalg.norm(product - np.eye(system.dimension)))
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


def _spectrum_distance(a: np.ndarray, b: np.ndarray, cluster_tol: float) -> float:
    """Largest matched eigenvalue distance between the spectra of a and b."""
    left = []
    for lam, mult in eigen_decompose(a, cluster_tol):
        left.extend([lam] * mult)
    right = []
    for lam, mult in eigen_decompose(b, cluster_tol):
        right.extend([lam] * mult)
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

    For each pole the report records whether the eigenvalue multisets agree
    within ``tol``, whether the Jordan structures agree, and an explicit
    conjugator taking the generator to the monodromy matrix (with its
    residual).  ``tol`` bounds the spectrum distance and the conjugator
    residual relative to the matrix norms.
    """
    check_tolerance(tol, "verification tolerance")
    rep = monodromy(system, integration_tol, base_point)
    resonance = is_non_resonant(system)
    verdicts = []
    for j in range(system.pole_count):
        generator = matrix_exp(TWO_PI_I * system.residues[j])
        observed = rep.matrices[j]
        sdist = _spectrum_distance(generator, observed, DEFAULT_CLUSTER_TOL)
        spectrum_ok = sdist <= tol
        jg = jordan_structure(generator, DEFAULT_CLUSTER_TOL)
        jm = jordan_structure(observed, DEFAULT_CLUSTER_TOL)
        structure_ok = jg.same_structure(jm, max(tol, 2.0 * max(jg.tolerance, jm.tolerance)))
        conjugator = None
        residual = None
        conj_ok = False
        if structure_ok:
            try:
                found = similarity_transform(generator, observed, tol)
            except SimilaritySearchError:
                found = None
            if found is not None:
                conjugator = found.matrix
                residual = found.residual
                conj_ok = True
        ok = spectrum_ok and structure_ok and conj_ok
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
