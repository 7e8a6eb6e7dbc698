"""Desk-scale inverse monodromy: residues from target matrices.

Given poles and target monodromy matrices near the identity, seed each
residue with the first series term (M_j - I) / (2 pi i), enforce the zero
residue sum on the last one, and refine by damped Gauss-Newton on the map
residues -> monodromy.  Monodromy is holomorphic in the residues, so the
Jacobian is exact: the derivatives of the fundamental solution with respect
to every free residue entry solve the variational equation, itself a
Fuchsian system, continued once per loop alongside the solution.  Steps come
from a least-squares solve and are halved until the residual decreases.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
# .monodromy is imported before .linalg on purpose: the other order made
# `import fuchsia` about 40 ms slower with numpy 2.4.6 and scipy 1.17.1.
from .monodromy import DEFAULT_INTEGRATION_TOL, continue_solution
from .linalg import as_square_matrix
from .paths import build_loops, composition_order, default_base_point
from .system import TWO_PI_I, PoleResonance, is_non_resonant, validate_poles, validate_system
from . import jsonio

DEFAULT_RESIDUAL_TOL = 1e-8
DEFAULT_PRODUCT_TOL = 1e-6
DEFAULT_PROXIMITY_BOUND = 0.5
DEFAULT_MAX_ITER = 50


@dataclass(frozen=True)
class InverseProblemInstance:
    """Validated inverse-problem data: poles, targets, base point."""

    poles: tuple[complex, ...]
    targets: tuple[np.ndarray, ...]
    base_point: complex
    dimension: int

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
        as the targets.
        """
        if data.get("kind") == "monodromy":
            document, targets_key = "monodromy report", "matrices"
        else:
            document, targets_key = "inverse instance", "targets"
        poles = jsonio.required_field(data, "poles", list, document)
        targets = jsonio.required_field(data, targets_key, list, document)
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
    seed is trustworthy.
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
    order = composition_order(pole_list, z0)
    product = np.eye(dim, dtype=complex)
    for index in order:
        product = mats[index] @ product
    defect = float(np.linalg.norm(product - np.eye(dim)))
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
                f"{DEFAULT_PROXIMITY_BOUND:g}); pass allow_far to attempt it anyway"
            )
    return InverseProblemInstance(
        poles=tuple(pole_list),
        targets=tuple(mats),
        base_point=z0,
        dimension=dim,
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


def _pack(residues) -> np.ndarray:
    parts = []
    for a in residues[:-1]:
        flat = np.asarray(a, dtype=complex).reshape(-1)
        parts.append(flat.real)
        parts.append(flat.imag)
    return np.concatenate(parts)


def _unpack(x: np.ndarray, count: int, dim: int) -> list[np.ndarray]:
    block = dim * dim
    residues = []
    for j in range(count - 1):
        re = x[2 * j * block : (2 * j + 1) * block]
        im = x[(2 * j + 1) * block : (2 * j + 2) * block]
        residues.append((re + 1j * im).reshape(dim, dim))
    residues.append(-sum(residues))
    return residues


def _forward(instance: InverseProblemInstance, loops, residues, tol: float):
    system = validate_system(instance.poles, residues)
    out = []
    for loop in loops:
        m, _ = continue_solution(system, loop, tol)
        out.append(m)
    return out


def _residual_vector(computed, targets) -> np.ndarray:
    parts = []
    for m, t in zip(computed, targets):
        diff = (m - t).reshape(-1)
        parts.append(diff.real)
        parts.append(diff.imag)
    return np.concatenate(parts)


def _residual_metric(computed, targets) -> float:
    return max(float(np.linalg.norm(m - t)) for m, t in zip(computed, targets))


def _variational_residues(residues) -> list[np.ndarray]:
    """Residues of the system for Y stacked with its residue derivatives.

    For each free entry theta = B_k[p, q] with k before the last pole, the
    derivative S = dY/dtheta solves the variational equation
    S' = A S + E_pq (1/(z - a_k) - 1/(z - a_last)) Y, the last residue being
    minus the sum of the others.  The block column [Y; S_1; ...; S_K] then
    solves a Fuchsian system on the same poles whose residues are block lower
    triangular: B_j on the diagonal and +-E_pq in the first block column.
    They sum to zero, so the continuation engine integrates it as it is.
    """
    dim = residues[0].shape[0]
    last = len(residues) - 1
    params = last * dim * dim
    stacked = [np.kron(np.eye(params + 1), b) for b in residues]
    for theta in range(params):
        k, entry = divmod(theta, dim * dim)
        p, q = divmod(entry, dim)
        row = (theta + 1) * dim + p
        stacked[k][row, q] += 1.0
        stacked[last][row, q] -= 1.0
    return stacked


def _jacobian(instance: InverseProblemInstance, loops, residues, tol: float) -> np.ndarray:
    """Exact Jacobian of the stacked real residual with respect to ``_pack``.

    One continuation of the variational system per loop yields dM_j/dtheta
    for every free residue entry at once.  Monodromy is holomorphic in the
    residues, so the column of Im theta is the real stacking of
    1j * dM_j/dtheta next to the real stacking of dM_j/dtheta for Re theta.
    """
    dim = instance.dimension
    system = validate_system(instance.poles, _variational_residues(residues))
    derivatives = []
    for loop in loops:
        transfer, _ = continue_solution(system, loop, tol)
        derivatives.append(transfer[dim:, :dim].reshape(-1, dim * dim))
    d = np.stack(derivatives, axis=1)  # d[theta, j] = dM_j/dtheta, flattened
    free = len(residues) - 1
    halves = [
        np.concatenate([z.real, z.imag], axis=2).reshape(free, dim * dim, -1)
        for z in (d, 1j * d)
    ]
    # _pack order: per free residue, every real part, then every imaginary part.
    return np.stack(halves, axis=1).reshape(2 * d.shape[0], -1).T


def solve(
    instance: InverseProblemInstance,
    tol: float = DEFAULT_RESIDUAL_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    integration_tol: float = DEFAULT_INTEGRATION_TOL,
) -> InverseSolution:
    """Recover residues whose monodromy matches the instance targets.

    Starts from the first-order seed and iterates damped Gauss-Newton on
    the stacked real residual until ``max_j |M_hat_j - M_j|_F <= tol`` or
    ``max_iter`` iterations pass.  Each iteration takes the exact Jacobian
    from one continuation of the variational system per loop, on the same
    loops and at the same ``integration_tol`` as the residual.  Returns the
    best iterate either way with ``converged`` reporting which case
    occurred; the resonance status of the returned system is evaluated and
    included.
    """
    if tol <= 0:
        raise ValidationError("residual tolerance must be positive")
    dim = instance.dimension
    count = len(instance.poles)
    seed = first_order_seed(instance)
    loops = build_loops(validate_system(instance.poles, seed), instance.base_point)

    x = _pack(seed)
    computed = _forward(instance, loops, _unpack(x, count, dim), integration_tol)
    metric = _residual_metric(computed, instance.targets)
    residual = _residual_vector(computed, instance.targets)
    iterations = 0

    while metric > tol and iterations < max_iter:
        iterations += 1
        jacobian = _jacobian(instance, loops, _unpack(x, count, dim), integration_tol)
        step, *_ = np.linalg.lstsq(jacobian, -residual, rcond=None)

        base_norm = float(np.linalg.norm(residual))
        alpha = 1.0
        improved = False
        while alpha > 1e-6:
            trial_x = x + alpha * step
            trial_computed = _forward(
                instance, loops, _unpack(trial_x, count, dim), integration_tol
            )
            trial_residual = _residual_vector(trial_computed, instance.targets)
            if float(np.linalg.norm(trial_residual)) < base_norm:
                x = trial_x
                computed = trial_computed
                residual = trial_residual
                metric = _residual_metric(computed, instance.targets)
                improved = True
                break
            alpha *= 0.5
        if not improved:
            break

    residues = _unpack(x, count, dim)
    resonance = is_non_resonant(validate_system(instance.poles, residues))
    frozen = []
    for a in residues:
        a = np.array(a, dtype=complex)
        a.flags.writeable = False
        frozen.append(a)
    return InverseSolution(
        residues=tuple(frozen),
        final_residual=metric,
        iterations=iterations,
        converged=metric <= tol,
        non_resonant=not any(r.resonant for r in resonance),
        resonance=tuple(resonance),
    )
