"""Desk-scale inverse monodromy: residues from target matrices.

Given poles and target monodromy matrices near the identity, seed each
residue with the map monodromy -> residues to second order in the
residues' commutators, G2 (``second_order_seed``: the first term
log(M_j) / (2 pi i), the matrix log taken by Gauss-Legendre quadrature,
and the commutator term in closed form from the Magnus expansion and the
loops' approaches), enforce the zero residue sum on the last one, and
refine.  The seed's error is cubic in the targets' distance from the
identity, and made of nested commutators only: G2(F(B)) = B + O(|B|^3), F
the residues' monodromy, and G2(F(B)) = B when the residues commute.  So
near the identity the fixed-point map B <- B + G2(T) - G2(F(B)) contracts
by O(|B|^2) per step with no Jacobian, and ``solve`` runs it,
Anderson-accelerated over the complex residue entries (``_anderson``), on
every instance whose targets are all within the proximity bound: each step
is one plain n x n continuation of every loop in one batch, and a
near-identity solve takes 2-4 of them.  The loops are cut into hops once
per solve, and the approach logs of G2 computed once.
Instances outside the bound, and iterations that stop contracting, are
refined by damped Gauss-Newton on the map residues -> monodromy
(``_gauss_newton``), over the same unknowns, the free residues' complex
entries.  Monodromy is holomorphic in the residues, so its complex
Jacobian is the whole derivative, and it is exact: the derivatives of the
fundamental solution with respect to every free residue entry solve the
variational equation, itself a Fuchsian system.  At a Gauss-Newton
point, one continuation per loop of the first block column [I; 0] of its
transfer gives M_j and the Jacobian together: the continuation returns
that column of each loop's transfer, M_j on top of its scaled
derivatives, and all loops of the point run in one batch.  The variational system is a structured field
(``_VariationalField``): its residues are never built, and each Taylor
term is one (n, P n) product with [B_1 ... B_P] plus the coupling rows.
The derivatives ride at 2**-30 scale, so they barely move the norms that
set each loop's term count.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .linalg import check_tolerance
from .monodromy import DEFAULT_INTEGRATION_TOL, _cut_paths, _integrate_legs, _product_defect
from .monodromy import continue_solution  # noqa: F401 - perfbench/spans.py traces this name here
from .paths import LOOP_CONVENTION, ContinuationPath, build_loops, composition_order, default_base_point, legs
from .system import TWO_PI_I, FuchsianSystem, PoleResonance, _validate_pole_matrices, is_non_resonant, validate_system
from . import jsonio

DEFAULT_RESIDUAL_TOL = 1e-8
DEFAULT_PRODUCT_TOL = 1e-6
DEFAULT_PROXIMITY_BOUND = 0.5
DEFAULT_MAX_ITER = 50


@dataclass(frozen=True)
class InverseProblemInstance:
    """Validated inverse-problem data: poles, targets, base point, the loops they compose in, and their distance from I.

    ``distance`` is max_j |M_j - I|_F over the targets, which
    ``validate_instance`` checks against ``DEFAULT_PROXIMITY_BOUND`` and
    ``solve`` reads to choose its iteration.
    """

    poles: tuple[complex, ...]
    targets: tuple[np.ndarray, ...]
    base_point: complex
    dimension: int
    loops: tuple[ContinuationPath, ...]
    distance: float

    def to_dict(self) -> dict:
        return {
            "schema": jsonio.INVERSE_SCHEMA,
            "poles": [jsonio.complex_to_pair(a) for a in self.poles],
            "targets": [jsonio.matrix_to_pairs(m) for m in self.targets],
            "base_point": jsonio.complex_to_pair(self.base_point),
        }

    @staticmethod
    def from_dict(data: dict, allow_far: bool = False) -> "InverseProblemInstance":
        """Instance from an inverse-instance document or a monodromy report.

        A monodromy report (``"kind": "monodromy"``) gives its ``matrices``
        as the targets, and its ``convention`` must be ``LOOP_CONVENTION``:
        the matrices of other loops compose in another order.
        """
        if data.get("kind") == "monodromy":
            document, targets_key = "monodromy report", "matrices"
        else:
            document, targets_key = "inverse instance", "targets"
        poles = jsonio.required_field(data, "poles", list, document)
        targets = jsonio.required_field(data, targets_key, list, document)
        if targets_key == "matrices":
            convention = jsonio.required_field(data, "convention", str, document)
            if convention != LOOP_CONVENTION:
                raise ValidationError(
                    f"monodromy report has loop convention {convention!r}, "
                    f"but this version's loops follow {LOOP_CONVENTION!r}"
                )
        base = None
        if "base_point" in data:
            base = jsonio.pair_to_complex(data["base_point"])
        return validate_instance(
            [jsonio.pair_to_complex(p) for p in poles],
            [jsonio.pairs_to_matrix(m) for m in targets],
            base_point=base,
            allow_far=allow_far,
        )


def validate_instance(poles, targets, base_point=None, allow_far: bool = False) -> InverseProblemInstance:
    """Check an inverse-problem instance for solvability by this method.

    Demands poles and one square target per pole, all of one size, as
    ``system._validate_pole_matrices`` checks a system's residues, every
    target invertible (checked after those), targets multiplying to the
    identity (in the composition order of the loop convention) within
    ``DEFAULT_PRODUCT_TOL``, and, unless ``allow_far``, every target within
    ``DEFAULT_PROXIMITY_BOUND`` of the identity in Frobenius norm, which is
    the regime where the seeds, which truncate a series in M_j - I, are
    trustworthy.  The loops are built here, once, and the instance carries
    them to ``solve``, with the targets' distance from the identity, which
    is computed here also when ``allow_far`` lets a far target in.
    """
    pole_list, mats = _validate_pole_matrices(poles, targets, "target")
    dim = mats[0].shape[0]
    sv = np.linalg.svd(np.array(mats), compute_uv=False)
    singular = np.flatnonzero(sv[:, -1] <= 1e-12 * np.maximum(1.0, sv[:, 0]))
    if singular.size:
        raise ValidationError(f"target {singular[0]} is numerically singular")
    z0 = default_base_point(pole_list) if base_point is None else complex(base_point)
    loops = build_loops(pole_list, z0)
    order = composition_order(loops)
    defect = _product_defect(mats, order)
    if defect > DEFAULT_PRODUCT_TOL:
        raise ValidationError(
            f"targets do not compose to the identity: defect {defect:.3e} "
            f"(limit {DEFAULT_PRODUCT_TOL:g}) in traversal order {order}"
        )
    distance = _residual_metric(mats, [np.eye(dim)] * len(mats))
    if not allow_far and distance > DEFAULT_PROXIMITY_BOUND:
        raise ValidationError(
            f"a target is {distance:.3e} from the identity (limit "
            f"{DEFAULT_PROXIMITY_BOUND:g}); pass allow_far (--allow-far on the command line) to attempt it anyway"
        )
    return InverseProblemInstance(
        poles=tuple(pole_list),
        targets=tuple(mats),
        base_point=z0,
        dimension=dim,
        loops=tuple(loops),
        distance=distance,
    )


def first_order_seed(instance: InverseProblemInstance) -> tuple[np.ndarray, ...]:
    """First series term (M_j - I) / (2 pi i) with the last residue adjusted.

    The error of this seed is quadratic in the distance of the targets from
    the identity.  The final residue is minus the sum of the others so the
    seed is always an admissible Fuchsian system.
    """
    eye = np.eye(instance.dimension, dtype=complex)
    return tuple(_closed((m - eye) / TWO_PI_I for m in instance.targets[:-1]))


def _approach_logs(instance: InverseProblemInstance) -> np.ndarray:
    """(P, P) c_jk, the integral of dz / (z - a_k) along loop j's approach continued straight on to a_j.

    The approach, the first of the loop's ``paths.legs``, and the
    continuation are straight pieces p -> q clear of a_k, on each of which
    the integral is the principal log((q - a_k) / (p - a_k)); all pieces of
    all pairs take one ``np.log``.  c_jj, whose last piece ends on a_j, is 0.
    """
    poles = np.array(instance.poles)
    # Loop j's corners z0, ..., circle start, a_j: the starts of its approach's lines and of its circle.
    corners = [
        [seg.start for seg in approach + circle] + [a]
        for (approach, circle), a in zip(map(legs, instance.loops), instance.poles)
    ]
    # A loop with fewer lines repeats z0, a piece of log 1 = 0.
    width = max(len(c) for c in corners)
    corners = np.array([[c[0]] * (width - len(c)) + c for c in corners])
    rel = corners[:, None, :] - poles[None, :, None]  # (j, k, corner)
    ratio = rel[:, :, 1:] / rel[:, :, :-1]
    ratio[np.arange(len(poles)), np.arange(len(poles))] = 1.0
    return np.log(ratio).sum(axis=2)


def second_order_seed(instance: InverseProblemInstance) -> tuple[np.ndarray, ...]:
    """The residues whose monodromy the targets are, to second order in their commutators.

    It is ``_second_order_map`` of the targets, with the instance's
    ``_approach_logs``: log(M_j) / (2 pi i) corrected by the commutator
    terms of the Magnus expansion.  Its error is cubic in the targets'
    distance from the identity and made of nested commutators only, so
    commuting residues are recovered to rounding.
    """
    return tuple(_closed(_second_order_map(_approach_logs(instance), instance.targets)))


@functools.cache
def _gauss_legendre() -> np.ndarray:
    """The 8-point Gauss-Legendre rule on [0, 1]: its nodes, then its weights, read-only.

    Golub-Welsch (Math. Comp. 23 (1969)): the nodes on [-1, 1] are the
    eigenvalues of the Jacobi matrix of the Legendre recurrence, whose
    off-diagonal is k / sqrt(4 k^2 - 1), and each weight is twice the
    squared first entry of its eigenvector; both are mapped to [0, 1].
    """
    k = np.arange(1.0, 8.0)  # 8 nodes: 7 off-diagonal entries
    off = k / np.sqrt(4.0 * k * k - 1.0)
    nodes, vectors = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    rule = np.array([(nodes + 1.0) / 2.0, vectors[0] ** 2])
    rule.flags.writeable = False
    return rule


def _log_near_identity(x: np.ndarray) -> np.ndarray:
    """The principal log(I + X) of each matrix X of a (k, n, n) stack with |X|_2 <= 1/2.

    log(I + X) is the integral over [0, 1] of X (I + t X)^-1 dt, and the
    8-point Gauss-Legendre rule (``_gauss_legendre``) applied to it is the
    [8/8] Pade approximant of log(I + X) (Higham, SIAM J. Matrix Anal.
    Appl. 22 (2001)): sum_i w_i (I + t_i X)^-1 X, every node and matrix in
    one ``solve``.  For |X|_2 <= 1/2 it is within 6e-13 of
    ``scipy.linalg.logm`` in the 2-norm, plus rounding: by von Neumann's
    inequality its error is at most the scalar rule's largest error on
    |x| = 1/2, 5.9e-13 at x = -1/2, however far X is from normal, so a
    Jordan block or a nilpotent X is no exception.
    """
    nodes, weights = _gauss_legendre()
    shifted = np.eye(x.shape[-1]) + nodes[:, None, None, None] * x
    # The node sum as np.tensordot(weights, ..., 1) forms it: one (1, 8) @ (8, k n n) product.
    return np.dot(weights[None], np.linalg.solve(shifted, x).reshape(len(weights), -1)).reshape(x.shape)


def _second_order_map(logs: np.ndarray, matrices) -> np.ndarray:
    """G2: the free residues, to second order in their commutators, of the loops' monodromy matrices ``matrices``.

    With L_j = log(M_j) / (2 pi i) (``_log_near_identity``) for j before
    the last pole and L_P = -sum_j L_j, for j before the last pole
    B_j = L_j - [L_j, W_j] with W_j = sum_k c_jk L_k, c = ``logs``
    (``_approach_logs``), returned as one (P - 1, n, n) stack; the last
    residue is minus the sum of the others (``_closed``).  Loop j is an
    approach T, a counterclockwise circle C of radius r_j from
    a_j + r_j e^{i theta_0}, and T backwards, so M_j = T^-1 C T,
    and by the Magnus expansion (Blanes, Casas, Oteo & Ros, Phys. Rep. 470
    (2009))

        log M_j = 2 pi i B_j + 2 pi i sum_k c_jk [B_j, B_k] + (nested commutators of three or more B).

    Two terms make up c_jk: the circle's second Magnus term,
    -2 pi i sum_k [B_j, B_k] log(1 + r_j e^{i theta_0} / (a_j - a_k)),
    whose log is minus the integral from the circle's start on to a_j, and
    the conjugation, T^-1 X T = X + [X, T - I] + O(B^3) with T - I the sum
    of B_k times the integral along the approach.  So G2(F(B)) = B + O(|B|^3),
    F the monodromy matrices of the residues B, and the cubic error is made
    of nested commutators only: residues that commute give
    M_j = exp(2 pi i B_j), and G2 returns them to rounding.
    """
    log_m = _log_near_identity(np.subtract(matrices[:-1], np.eye(len(matrices[0])))) / TWO_PI_I
    w = np.einsum("jk,kab->jab", logs[:-1], _closed(log_m))
    return log_m - (log_m @ w - w @ log_m)


def _closed(free) -> list[np.ndarray]:
    """The free residues, every pole's but the last, followed by minus their sum."""
    residues = list(free)
    residues.append(-sum(residues))
    return residues


@dataclass(frozen=True)
class InverseSolution:
    """Result of ``solve``: the recovered system, the second-order seed it started from, and how it ended.

    ``iterations`` counts the Anderson updates and the Gauss-Newton
    iterations together, so 0 when the seed itself meets the tolerance, as
    it does for commuting residues; ``final_residual`` is
    max_j |M_hat_j - M_j|_F of the returned residues.
    """

    system: FuchsianSystem
    seed: tuple[np.ndarray, ...]
    final_residual: float
    iterations: int
    converged: bool
    non_resonant: bool
    resonance: tuple[PoleResonance, ...]

    @property
    def residues(self) -> tuple[np.ndarray, ...]:
        return self.system.residues


def _residues(x: np.ndarray, shape) -> list[np.ndarray]:
    """The closed residues of the unknowns ``x``: the free residues' complex entries, raveled from ``shape``."""
    return _closed(x.reshape(shape))


def _residual_metric(computed, targets) -> float:
    """max_j |X_j - Y_j|_F over the pairs of ``computed`` and ``targets``.

    Each norm is ``np.linalg.norm``'s for one matrix, the square root of
    re . re + im . im over its entries, so it is bit for bit that norm; the
    stacked ``axis=(1, 2)`` norm sums in another order.
    """
    gaps = np.subtract(computed, targets).reshape(len(targets), -1)
    return max(math.sqrt(gap.real.dot(gap.real) + gap.imag.dot(gap.imag)) for gap in gaps)


# Small enough that the continuation's norms are, to rounding, those of Y;
# a power of two, so dividing it out again is exact.
_SENSITIVITY_SCALE = 2.0 ** -30


class _VariationalField:
    """Y stacked with its scaled residue derivatives at one point, as a field of ``_integrate_legs``.

    For each free entry theta = B_k[p, q] with k before the last pole, the
    derivative S = dY/dtheta solves the variational equation
    S' = A S + E_pq (1/(z - a_k) - 1/(z - a_last)) Y, the last residue being
    minus the sum of the others.  With c = ``_SENSITIVITY_SCALE``, the block
    column [Y; c S_1; ...; c S_K] solves a Fuchsian system on the same poles
    with block lower triangular residues R_p: kron(I_{K+1}, B_p), plus
    +-c E_pq in the first block column.  They sum to zero, so it is
    integrated as is.  The R_p are never built.  The field's rows run
    (row of an n x n block, block index), so kron(I_{K+1}, B_p) acts as
    kron(B_p, I_{K+1}): ``apply`` is the point's own [B_1 ... B_P] product
    (``FuchsianSystem.apply``) on the stack viewed as (P n, (K + 1) m B),
    with no copy, plus one fancy-index add of c (X_k[q] - X_last[q]) / k
    into the row (p, theta) of each theta.  Each coupling row holds one
    entry, so the coupling of R_p has 2-norm c sqrt(the most entries in
    one column of it), n for a free pole and (P - 1) n for the last, and
    ``bounds`` is |B_p|_2 plus that: at least |R_p|_2.
    """

    def __init__(self, system: FuchsianSystem):
        n, count = system.dimension, system.pole_count
        blocks = (count - 1) * n * n + 1
        theta = np.arange(blocks - 1)
        self._poles, entry = np.divmod(theta, n * n)
        p, q = np.divmod(entry, n)
        self._targets = p * blocks + theta + 1
        self._sources = q * blocks
        self._system = system
        self.weights = system.weights
        self.dimension = blocks * n
        block, row = np.divmod(np.arange(self.dimension), n)
        self.rows = row * blocks + block
        entries = np.full(count, n)
        entries[-1] *= count - 1
        self.bounds = system.bounds + _SENSITIVITY_SCALE * np.sqrt(entries)

    def apply(self, k: int, stack: np.ndarray, out: np.ndarray) -> None:
        """Write sum_p R_p stack[p] / k into ``out``: the block product, then the coupling rows."""
        self._system.apply(k, stack, out)
        out[self._targets] += _SENSITIVITY_SCALE / k * (stack[self._poles, self._sources] - stack[-1, self._sources])


def _point_system(instance: InverseProblemInstance, residues) -> FuchsianSystem:
    """The system of a solver point, Anderson's or Gauss-Newton's, built directly, not through ``validate_system``.

    The solver made the residues with ``_closed``, whose last is minus the
    sum of the others as ``sum`` adds them, and s + (-s) is exactly 0 in
    IEEE arithmetic, so their sum is the zero matrix and its defect 0.0.
    """
    return FuchsianSystem(instance.poles, tuple(residues), instance.dimension, 0.0)


def _monodromy_at(instance: InverseProblemInstance, cut, residues, tol: float) -> np.ndarray:
    """M_j alone, from one continuation of the point's n x n system along ``cut``, every loop in one batch.

    It reads the continuation's values only, so no error estimate is computed.
    """
    return _integrate_legs(_point_system(instance, residues), cut, instance.dimension, tol).values


def _linearise(instance: InverseProblemInstance, cut, residues, tol: float):
    """Monodromy matrices and their exact complex Jacobian in the free residues' entries.

    The variational transfers have the block form [[T0, 0], [dT, I (x) T0]],
    so only their first block column e = [I; 0] is continued, every loop in
    one batch.  ``cut`` is the loops as ``monodromy._cut_paths`` cuts them
    into hops against the instance's poles, and ``_integrate_legs`` continues
    e along each hop of each leg of the ``_VariationalField`` of the point,
    each loop taking the terms its composed bound at ``tol`` needs, composes
    the hops in the same block form, so n columns are continued throughout,
    and returns each loop's column [M_j; c dM_j/dtheta_1; ...] of its
    transfer in block order (its docstring has the formula),
    c = ``_SENSITIVITY_SCALE``.
    Monodromy is holomorphic in the residues, so dM_j/dtheta is the whole
    derivative: row (j, e) and column t of the (loops n^2, (P - 1) n^2)
    Jacobian is entry e of dM_j/dtheta_t, theta_t the t-th entry of the
    raveled free residues, the order of the unknowns.
    """
    dim = instance.dimension
    transfers = _integrate_legs(_VariationalField(_point_system(instance, residues)), cut, dim, tol).values  # (loops, N, dim)
    computed = transfers[:, :dim]
    # d[j, t, e] = entry e of dM_j/dtheta_t
    d = transfers[:, dim:].reshape(len(transfers), -1, dim * dim) / _SENSITIVITY_SCALE
    return computed, d.transpose(0, 2, 1).reshape(len(transfers) * dim * dim, -1)


def _anderson(instance: InverseProblemInstance, cut, logs: np.ndarray, seed, tol: float, max_iter: int, integration_tol: float):
    """Anderson-accelerated fixed-point iteration of x <- x + G2(T) - G2(F(x)), from plain continuations only.

    G2 is ``_second_order_map`` with the instance's approach ``logs``, T
    the targets, ``seed`` G2(T) and the start, and F(x) the monodromy of
    the residues x, one plain n x n continuation of every loop along
    ``cut``.  The unknowns x are the free residues' complex entries, in
    the order of ``_residues``.  G2(F(B)) = B + O(|B|^3), so the plain map
    contracts by O(|B|^2) per step with no Jacobian.  Each update is type II over every
    past difference (Walker & Ni, SIAM J. Numer. Anal. 49 (2011)): with
    f_i = G2(T) - G2(F(x_i)), x <- x + f - (dX + dF) gamma, gamma the
    complex least-squares solution of dF gamma = f, dX and dF the columns
    x_{i+1} - x_i and f_{i+1} - f_i.  F and G2 are holomorphic, so each
    secant pair spans a complex direction.  Keeping every step leaves no
    memory constant; ``max_iter`` bounds the updates.  Stops when an iterate's
    residual metric meets ``tol``, when ``max_iter`` updates are made, or
    when a continuation's metric does not fall below the best so far.
    Returns the best iterate's residues, its metric, the updates made and
    whether the iteration stalled, the last case.
    """
    shape = np.shape(seed[:-1])
    goal = np.ravel(seed[:-1])
    x, xs, fs = goal, [], []
    best = None
    while True:
        residues = _residues(x, shape)
        computed = _monodromy_at(instance, cut, residues, integration_tol)
        metric = _residual_metric(computed, instance.targets)
        if best is not None and metric >= best[1]:
            return *best, len(xs), True
        best = (residues, metric)
        if metric <= tol or len(xs) == max_iter:
            return residues, metric, len(xs), False
        xs.append(x)
        fs.append(goal - np.ravel(_second_order_map(logs, computed)))
        x = x + fs[-1]
        if len(xs) > 1:
            dx, df = (a[1:] - a[:-1] for a in (np.array(xs), np.array(fs)))  # np.diff's differences, by row
            gamma, *_ = np.linalg.lstsq(df.T, fs[-1], rcond=None)
            x = x - (dx + df).T @ gamma


def _gauss_newton(instance: InverseProblemInstance, cut, residues, tol: float, max_iter: int, integration_tol: float):
    """Damped Gauss-Newton on the complex residual from ``residues``, for at most ``max_iter`` iterations.

    The unknowns are the free residues' complex entries, the order of
    ``_residues``, and the residual is every entry of M_j - T_j, T the
    targets.  Each line-search trial gets M_j and the exact Jacobian from
    one continuation per loop along ``cut``, at ``integration_tol``, of the
    first block column of the variational system (``_linearise``), and an
    accepted trial's Jacobian gives the next step.  Steps come from one
    complex least-squares solve, and are halved until the residual's norm
    decreases.  The one exception is the full-step trial after an accepted
    full step whose contraction C = r_k / r_{k-1}^2 (r the residual metric)
    gives C r_k^2 <= ``tol`` (the a-priori estimate of affine-covariant
    Newton methods, Deuflhard 2004, ch. 4): it is continued on the plain
    n x n system only, and ends the solve if it decreases the residual and
    meets ``tol``; otherwise it is continued again with its Jacobian and
    the line search goes on as usual, so the iterates are the same either
    way.  Returns the last accepted iterate's residues, its residual metric
    and the iterations made.
    """
    targets = np.array(instance.targets)
    shape = np.shape(residues[:-1])
    x = np.ravel(residues[:-1])
    computed, jacobian = _linearise(instance, cut, residues, integration_tol)
    metric = _residual_metric(computed, targets)
    residual = np.ravel(computed - targets)
    iterations = 0
    last = False  # the next full step is predicted to meet tol

    while metric > tol and iterations < max_iter:
        iterations += 1
        step, *_ = np.linalg.lstsq(jacobian, -residual, rcond=None)

        base_norm = float(np.linalg.norm(residual))
        alpha = 1.0
        while alpha > 1e-6:
            trial_x = x + alpha * step
            trial = _residues(trial_x, shape)
            if last and alpha == 1.0:
                computed = _monodromy_at(instance, cut, trial, integration_tol)
                trial_residual = np.ravel(computed - targets)
                if _residual_metric(computed, targets) <= tol and float(np.linalg.norm(trial_residual)) < base_norm:
                    trial_jacobian = None  # the solve ends here, so no step reads it
                    break
            computed, trial_jacobian = _linearise(instance, cut, trial, integration_tol)
            trial_residual = np.ravel(computed - targets)
            if float(np.linalg.norm(trial_residual)) < base_norm:
                break
            alpha *= 0.5
        else:
            break  # no trial decreased the residual: keep the current iterate
        x, residues, jacobian, residual = trial_x, trial, trial_jacobian, trial_residual
        previous, metric = metric, _residual_metric(computed, targets)
        # A full step contracted as C = metric / previous**2, so the next one should land near C metric**2.
        last = alpha == 1.0 and metric / previous**2 * metric**2 <= tol
    return residues, metric, iterations


def _solution(instance: InverseProblemInstance, seed, residues, metric: float, iterations: int, tol: float) -> InverseSolution:
    """The ``InverseSolution`` of ``residues``: their validated system and that system's resonance status."""
    system = validate_system(instance.poles, residues)
    resonance = is_non_resonant(system)
    return InverseSolution(
        system=system,
        seed=seed,
        final_residual=metric,
        iterations=iterations,
        converged=metric <= tol,
        non_resonant=not any(r.resonant for r in resonance),
        resonance=tuple(resonance),
    )


def solve(
    instance: InverseProblemInstance,
    tol: float = DEFAULT_RESIDUAL_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    integration_tol: float = DEFAULT_INTEGRATION_TOL,
) -> InverseSolution:
    """Recover residues whose monodromy matches the instance targets.

    Starts from ``second_order_seed``, which the solution carries as
    ``seed``, and iterates until ``max_j |M_hat_j - M_j|_F <= tol`` or
    ``max_iter`` iterations pass.  The instance's loops are cut into hops
    once, and its approach logs computed once.  When every target is
    within ``DEFAULT_PROXIMITY_BOUND`` of the identity (the instance's
    ``distance``), the iteration is ``_anderson``'s, every continuation a
    plain n x n one at ``integration_tol``, of which it reads the values
    alone.  Instances outside the bound (``allow_far``), and
    any whose Anderson iteration stalls, go to ``_gauss_newton``, the
    latter from the best Anderson iterate with the iterations left; both
    iterate on the free residues' complex entries and hand on closed
    residue lists.  ``iterations`` counts Anderson updates and Gauss-Newton
    iterations.  Returns the best iterate either way with ``converged``
    reporting which case occurred; the resonance status of the returned
    system is evaluated and included.
    """
    check_tolerance(tol, "residual tolerance")
    check_tolerance(integration_tol, "integration tolerance")
    if max_iter < 0:
        raise ValidationError(f"iteration cap must be non-negative, got {max_iter}")
    logs = _approach_logs(instance)
    seed = tuple(_closed(_second_order_map(logs, instance.targets)))
    cut = _cut_paths(instance.poles, instance.loops)
    residues, iterations, stalled = seed, 0, True
    if instance.distance <= DEFAULT_PROXIMITY_BOUND:
        residues, metric, iterations, stalled = _anderson(instance, cut, logs, seed, tol, max_iter, integration_tol)
    if stalled:
        residues, metric, more = _gauss_newton(instance, cut, residues, tol, max_iter - iterations, integration_tol)
        iterations += more
    return _solution(instance, seed, residues, metric, iterations, tol)
