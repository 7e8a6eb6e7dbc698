"""Desk-scale inverse monodromy: residues from target matrices.

Given poles and target monodromy matrices near the identity, seed each
residue with the first series term (M_j - I) / (2 pi i), enforce the zero
residue sum on the last one, and refine by damped Gauss-Newton on the map
residues -> monodromy.  Monodromy is holomorphic in the residues, so the
Jacobian is exact: the derivatives of the fundamental solution with respect
to every free residue entry solve the variational equation, itself a
Fuchsian system.  At a Gauss-Newton point, one continuation per loop of the
first block column [I; 0] of its transfer gives M_j and the Jacobian
together: the continuation returns that column of each loop's transfer,
M_j on top of its scaled derivatives, and all loops of the point run in
one batch.  The loops are cut into hops once per solve.
The derivatives ride at 2**-30 scale, so they barely move the norms that
set each loop's term count.  Steps come from a least-squares solve and
are halved until the residual decreases.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .linalg import as_square_matrix, check_tolerance
from .monodromy import DEFAULT_INTEGRATION_TOL, _cut_paths, _integrate_legs, _product_defect
from .monodromy import continue_solution  # noqa: F401 - perfbench/spans.py traces this name here
from .paths import LOOP_CONVENTION, ContinuationPath, build_loops, composition_order, default_base_point
from .system import TWO_PI_I, FuchsianSystem, PoleResonance, is_non_resonant, validate_poles, validate_system
from . import jsonio

DEFAULT_RESIDUAL_TOL = 1e-8
DEFAULT_PRODUCT_TOL = 1e-6
DEFAULT_PROXIMITY_BOUND = 0.5
DEFAULT_MAX_ITER = 50


@dataclass(frozen=True)
class InverseProblemInstance:
    """Validated inverse-problem data: poles, targets, base point, and the loops they compose in."""

    poles: tuple[complex, ...]
    targets: tuple[np.ndarray, ...]
    base_point: complex
    dimension: int
    loops: tuple[ContinuationPath, ...]

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

    Demands poles that pass ``validate_poles``, one invertible target per
    pole, targets multiplying to the identity (in the composition order of
    the loop convention) within ``DEFAULT_PRODUCT_TOL``, and, unless
    ``allow_far``, every target within ``DEFAULT_PROXIMITY_BOUND`` of the
    identity in Frobenius norm, which is the regime where the first-order
    seed is trustworthy.  The loops are built here, once, and the instance
    carries them to ``solve``.
    """
    pole_list = validate_poles(poles)
    if len(targets) != len(pole_list):
        raise ValidationError(
            f"{len(pole_list)} poles but {len(targets)} target matrices"
        )
    mats = []
    dim = None
    for j, m in enumerate(targets):
        arr = as_square_matrix(m, f"target {j}")
        if dim is None:
            dim = arr.shape[0]
        elif arr.shape[0] != dim:
            raise ValidationError(f"target {j} has dimension {arr.shape[0]}, expected {dim}")
        sv = np.linalg.svd(arr, compute_uv=False)
        if sv[-1] <= 1e-12 * max(1.0, sv[0]):
            raise ValidationError(f"target {j} is numerically singular")
        arr.flags.writeable = False
        mats.append(arr)
    z0 = default_base_point(pole_list) if base_point is None else complex(base_point)
    loops = build_loops(pole_list, z0)
    order = composition_order(loops)
    defect = _product_defect(mats, order)
    if defect > DEFAULT_PRODUCT_TOL:
        raise ValidationError(
            f"targets do not compose to the identity: defect {defect:.3e} "
            f"(limit {DEFAULT_PRODUCT_TOL:g}) in traversal order {order}"
        )
    if not allow_far:
        worst = max(float(np.linalg.norm(m - np.eye(dim))) for m in mats)
        if worst > DEFAULT_PROXIMITY_BOUND:
            raise ValidationError(
                f"a target is {worst:.3e} from the identity (limit "
                f"{DEFAULT_PROXIMITY_BOUND:g}); pass allow_far (--allow-far on the command line) to attempt it anyway"
            )
    return InverseProblemInstance(
        poles=tuple(pole_list),
        targets=tuple(mats),
        base_point=z0,
        dimension=dim,
        loops=tuple(loops),
    )


def first_order_seed(instance: InverseProblemInstance) -> tuple[np.ndarray, ...]:
    """First series term (M_j - I) / (2 pi i) with the last residue adjusted.

    The error of this seed is quadratic in the distance of the targets from
    the identity.  The final residue is minus the sum of the others so the
    seed is always an admissible Fuchsian system.
    """
    eye = np.eye(instance.dimension, dtype=complex)
    seeds = [(m - eye) / TWO_PI_I for m in instance.targets[:-1]]
    seeds.append(-sum(seeds))
    return tuple(seeds)


@dataclass(frozen=True)
class InverseSolution:
    """Result of the Gauss-Newton refinement."""

    residues: tuple[np.ndarray, ...]
    final_residual: float
    iterations: int
    converged: bool
    non_resonant: bool
    resonance: tuple[PoleResonance, ...]


def _real_stack(matrices) -> np.ndarray:
    """Per matrix in turn, every real part and then every imaginary part."""
    z = np.asarray(matrices, dtype=complex).reshape(len(matrices), 1, -1)
    return np.concatenate([z.real, z.imag], axis=1).reshape(-1)


def _pack(residues) -> np.ndarray:
    return _real_stack(residues[:-1])


def _unpack(x: np.ndarray, count: int, dim: int) -> list[np.ndarray]:
    parts = x.reshape(count - 1, 2, dim, dim)
    residues = list(parts[:, 0] + 1j * parts[:, 1])
    residues.append(-sum(residues))
    return residues


def _residual_vector(computed, targets) -> np.ndarray:
    return _real_stack([m - t for m, t in zip(computed, targets)])


def _residual_metric(computed, targets) -> float:
    return max(float(np.linalg.norm(m - t)) for m, t in zip(computed, targets))


# Small enough that the continuation's norms are, to rounding, those of Y;
# a power of two, so dividing it out again is exact.
_SENSITIVITY_SCALE = 2.0 ** -30


def _variational_residues(residues) -> list[np.ndarray]:
    """Residues of the system for Y stacked with its scaled residue derivatives.

    For each free entry theta = B_k[p, q] with k before the last pole, the
    derivative S = dY/dtheta solves the variational equation
    S' = A S + E_pq (1/(z - a_k) - 1/(z - a_last)) Y, the last residue being
    minus the sum of the others.  With c = ``_SENSITIVITY_SCALE``, the block
    column [Y; c S_1; ...; c S_K] solves a Fuchsian system on the same poles
    with block lower triangular residues: B_j on the diagonal and +-c E_pq
    in the first block column.  They sum to zero, so it is integrated as is.
    """
    dim = residues[0].shape[0]
    last = len(residues) - 1
    params = last * dim * dim
    stacked = [np.kron(np.eye(params + 1), b) for b in residues]
    for theta in range(params):
        k, entry = divmod(theta, dim * dim)
        p, q = divmod(entry, dim)
        row = (theta + 1) * dim + p
        stacked[k][row, q] += _SENSITIVITY_SCALE
        stacked[last][row, q] -= _SENSITIVITY_SCALE
    return stacked


def _linearise(instance: InverseProblemInstance, cut, residues, tol: float):
    """Monodromy matrices and the exact Jacobian of the stacked real residual.

    The variational transfers have the block form [[T0, 0], [dT, I (x) T0]],
    so only their first block column e = [I; 0] is continued, every loop in
    one batch.  ``cut`` is the loops as ``monodromy._cut_paths`` cuts them
    into hops against the instance's poles, and ``_integrate_legs`` continues
    e along each hop of each leg, each loop taking the terms its composed
    bound at ``tol`` needs, composes the hops in the same block form, so n
    columns are continued throughout, and returns each loop's column
    [M_j; c dM_j/dtheta_1; ...] of its transfer (its docstring has the
    formula), c = ``_SENSITIVITY_SCALE``.  The
    variational system is built directly, not through ``validate_system``:
    the solver made its residues.
    Monodromy is holomorphic in the residues, so the column of Im theta is
    the real stacking of 1j * dM_j/dtheta next to the real stacking of
    dM_j/dtheta for Re theta.
    """
    dim = instance.dimension
    stacked = _variational_residues(residues)
    defect = float(np.linalg.norm(sum(residues), 2))
    system = FuchsianSystem(instance.poles, tuple(stacked), len(stacked[0]), defect)
    results = _integrate_legs(system, cut, dim, tol)
    transfers = np.array([column for column, _ in results])  # (loops, N, dim)
    computed = transfers[:, :dim]
    # d[theta, j] = dM_j/dtheta
    d = transfers[:, dim:].reshape(len(results), -1, dim, dim).transpose(1, 0, 2, 3) / _SENSITIVITY_SCALE
    columns = []
    for block in np.split(d, len(residues) - 1):  # _pack order: real parts, then imaginary
        columns += [_real_stack(factor * dm) for factor in (1.0, 1j) for dm in block]
    return computed, np.stack(columns, axis=1)


def solve(
    instance: InverseProblemInstance,
    tol: float = DEFAULT_RESIDUAL_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    integration_tol: float = DEFAULT_INTEGRATION_TOL,
) -> InverseSolution:
    """Recover residues whose monodromy matches the instance targets.

    Starts from the first-order seed and iterates damped Gauss-Newton on
    the stacked real residual until ``max_j |M_hat_j - M_j|_F <= tol`` or
    ``max_iter`` iterations pass.  The instance's loops are cut into hops
    once.  The seed and each line-search trial get M_j and the exact
    Jacobian from one continuation per loop, at ``integration_tol``, of the
    first block column of the variational system, and an accepted trial's
    Jacobian gives the next step.
    Returns the best iterate either way with ``converged`` reporting which
    case occurred; the resonance status of the returned system is evaluated
    and included.
    """
    check_tolerance(tol, "residual tolerance")
    check_tolerance(integration_tol, "integration tolerance")
    if max_iter < 0:
        raise ValidationError(f"iteration cap must be non-negative, got {max_iter}")
    dim = instance.dimension
    count = len(instance.poles)
    seed = first_order_seed(instance)
    cut = _cut_paths(instance.poles, instance.loops)

    x = _pack(seed)
    computed, jacobian = _linearise(instance, cut, _unpack(x, count, dim), integration_tol)
    metric = _residual_metric(computed, instance.targets)
    residual = _residual_vector(computed, instance.targets)
    iterations = 0

    while metric > tol and iterations < max_iter:
        iterations += 1
        step, *_ = np.linalg.lstsq(jacobian, -residual, rcond=None)

        base_norm = float(np.linalg.norm(residual))
        alpha = 1.0
        while alpha > 1e-6:
            trial_x = x + alpha * step
            computed, trial_jacobian = _linearise(
                instance, cut, _unpack(trial_x, count, dim), integration_tol
            )
            trial_residual = _residual_vector(computed, instance.targets)
            if float(np.linalg.norm(trial_residual)) < base_norm:
                break
            alpha *= 0.5
        else:
            break  # no trial decreased the residual: keep the current iterate
        x, jacobian, residual = trial_x, trial_jacobian, trial_residual
        metric = _residual_metric(computed, instance.targets)

    system = validate_system(instance.poles, _unpack(x, count, dim))
    resonance = is_non_resonant(system)
    return InverseSolution(
        residues=system.residues,
        final_residual=metric,
        iterations=iterations,
        converged=metric <= tol,
        non_resonant=not any(r.resonant for r in resonance),
        resonance=tuple(resonance),
    )
