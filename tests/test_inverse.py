"""Inverse problem: seed accuracy, instance validation, round-trip recovery."""

import cmath
import tracemalloc

import numpy as np
import pytest

from conftest import sample_poles
from fuchsia.errors import ValidationError
from fuchsia.inverse import (
    InverseProblemInstance,
    _linearise,
    _pack,
    _residual_vector,
    _unpack,
    first_order_seed,
    solve,
    validate_instance,
)
from fuchsia.monodromy import DEFAULT_INTEGRATION_TOL, _cut_paths, _integrate_legs, continue_solution, monodromy
from fuchsia.paths import default_base_point
from fuchsia.system import TWO_PI_I, validate_system


def four_pole_three_by_three_system():
    """A seeded generic 4-pole 3x3 system near the identity: 27 free
    residue entries, so its variational system has dimension N = 84."""
    rng = np.random.default_rng(11)
    poles = [cmath.rect(1.0, 0.3 + k * cmath.pi / 2) for k in range(4)]
    poles = [complex(2.0 * a.real, 1.3 * a.imag) for a in poles]
    free = []
    for _ in range(3):
        b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        free.append(0.025 * b / np.linalg.norm(b))
    return validate_system(poles, free + [-sum(free)])


def diagonal_targets(entries_per_pole):
    """Exact commuting targets diag(exp(2 pi i d)) from diagonal entries."""
    return [np.diag(np.exp(TWO_PI_I * np.asarray(d))) for d in entries_per_pole]


def near_identity_pair(rng, p=2, bound=0.04):
    """Two-pole diagonal system whose monodromy stays near the identity.

    The proximity gate of validate_instance demands |M - I|_F <= 1/2, which
    for diagonal targets needs eigenvalues well under 0.06 or so.
    """
    poles = sample_poles(rng, 2)
    entries = rng.uniform(-bound, bound, size=p)
    b0 = np.diag(entries.astype(complex))
    system = validate_system(poles, [b0, -b0])
    targets = [
        np.diag(np.exp(TWO_PI_I * entries)),
        np.diag(np.exp(-TWO_PI_I * entries)),
    ]
    return system, targets


class TestValidateInstance:
    def test_accepts_and_freezes(self):
        targets = diagonal_targets([[0.02, -0.03], [-0.02, 0.03]])
        inst = validate_instance([0.0, 1.0], targets)
        assert inst.dimension == 2
        assert inst.base_point == default_base_point([0.0, 1.0])
        assert not inst.targets[0].flags.writeable

    def test_requires_two_poles(self):
        with pytest.raises(ValidationError):
            validate_instance([0.0], [np.eye(2)])

    def test_rejects_coincident_poles(self):
        targets = diagonal_targets([[0.1], [-0.1]])
        with pytest.raises(ValidationError, match="coincide"):
            validate_instance([0.0, 5e-10], targets)

    @pytest.mark.parametrize("bad", [complex("nan"), complex("inf"), complex(0.0, float("-inf"))])
    def test_rejects_non_finite_pole(self, bad):
        targets = diagonal_targets([[0.02], [-0.02]])
        with pytest.raises(ValidationError, match="finite"):
            validate_instance([0.0, bad], targets)

    def test_rejects_count_mismatch(self):
        with pytest.raises(ValidationError):
            validate_instance([0.0, 1.0], [np.eye(2)])

    def test_rejects_nonsquare_target(self):
        with pytest.raises(ValidationError, match="square"):
            validate_instance([0.0, 1.0], [np.ones((2, 3)), np.eye(2)])

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            validate_instance([0.0, 1.0], [np.eye(2), np.eye(3)])

    def test_rejects_non_finite(self):
        bad = np.array([[np.nan, 0.0], [0.0, 1.0]])
        with pytest.raises(ValidationError, match="non-finite"):
            validate_instance([0.0, 1.0], [bad, np.eye(2)])

    def test_rejects_singular_target(self):
        singular = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ValidationError, match="singular"):
            validate_instance([0.0, 1.0], [singular, np.eye(2)])

    def test_rejects_bad_product(self):
        targets = diagonal_targets([[0.1], [0.1]])
        with pytest.raises(ValidationError, match="identity"):
            validate_instance([0.0, 1.0], targets)

    def test_far_targets_need_opt_in(self):
        m = np.diag([cmath.exp(2j * cmath.pi * 0.3)])
        far = [m, np.linalg.inv(m)]
        with pytest.raises(ValidationError, match="allow_far"):
            validate_instance([0.0, 1.0], far)
        inst = validate_instance([0.0, 1.0], far, allow_far=True)
        assert inst.dimension == 1

    def test_dict_round_trip(self):
        targets = diagonal_targets([[0.02, -0.03], [-0.02, 0.03]])
        inst = validate_instance([0.0, 1.0j], targets, base_point=2.0)
        again = InverseProblemInstance.from_dict(inst.to_dict())
        assert again.poles == inst.poles
        assert again.base_point == inst.base_point
        for a, b in zip(again.targets, inst.targets):
            assert np.array_equal(a, b)

    def test_dict_missing_keys(self):
        with pytest.raises(ValidationError):
            InverseProblemInstance.from_dict({"poles": []})


class TestSeed:
    def test_seed_formula_and_exact_zero_sum(self):
        targets = diagonal_targets([[0.02, -0.01], [0.01, 0.03], [-0.03, -0.02]])
        inst = validate_instance([0.0, 1.0, -1.0j], targets)
        seeds = first_order_seed(inst)
        eye = np.eye(2)
        for j in range(2):
            assert np.array_equal(seeds[j], (inst.targets[j] - eye) / TWO_PI_I)
        assert np.array_equal(seeds[2], -(seeds[0] + seeds[1]))

    def test_seed_error_is_quadratic(self):
        """Seed error must shrink 4x when the targets shrink 2x toward I."""
        b = 0.2

        def seed_error(eps):
            m = np.array([[cmath.exp(TWO_PI_I * eps * b)]])
            inst = validate_instance([0.0, 1.0], [m, np.linalg.inv(m)])
            seed = first_order_seed(inst)[0]
            return abs(seed[0, 0] - eps * b)

        e1 = seed_error(0.01)
        e2 = seed_error(0.005)
        assert e1 > 0
        assert 3.5 < e1 / e2 < 4.5


class TestSolve:
    def test_identity_targets_solved_immediately(self):
        inst = validate_instance([0.0, 1.0], [np.eye(2), np.eye(2)])
        sol = solve(inst)
        assert sol.converged
        assert sol.iterations == 0
        assert sol.final_residual == 0.0
        assert all(np.array_equal(r, np.zeros((2, 2))) for r in sol.residues)
        assert sol.non_resonant

    def test_recovers_commuting_system(self, rng):
        system, targets = near_identity_pair(rng)
        inst = validate_instance(system.poles, targets)
        sol = solve(inst)
        assert sol.converged
        assert sol.final_residual <= 1e-8
        for recovered, truth in zip(sol.residues, system.residues):
            assert np.linalg.norm(recovered - truth) < 1e-6
        assert sol.non_resonant == (not any(r.resonant for r in sol.resonance))
        assert not sol.residues[0].flags.writeable

    def test_recovered_system_reproduces_targets(self, rng):
        system, targets = near_identity_pair(rng)
        inst = validate_instance(system.poles, targets)
        sol = solve(inst)
        rep = monodromy(
            validate_system(inst.poles, sol.residues), base_point=inst.base_point
        )
        for m, t in zip(rep.matrices, inst.targets):
            assert np.linalg.norm(m - t) < 1e-7

    def test_recovers_four_pole_three_by_three_system(self):
        """A generic 4-pole 3x3 round trip: 27 free residue entries, so N = 84 and 84x3 is continued."""
        system = four_pole_three_by_three_system()
        inst = validate_instance(system.poles, monodromy(system, tol=1e-10).matrices)
        sol = solve(inst)
        assert sol.converged
        for recovered, truth in zip(sol.residues, system.residues):
            assert np.max(np.abs(recovered - truth)) < 1e-6

    def test_unconverged_reported_honestly(self, rng):
        system, targets = near_identity_pair(rng)
        inst = validate_instance(system.poles, targets)
        sol = solve(inst, tol=1e-15, max_iter=1)
        assert not sol.converged
        assert sol.iterations <= 1
        assert sol.final_residual > 1e-15

    def test_tolerance_validation(self):
        inst = validate_instance([0.0, 1.0], [np.eye(1), np.eye(1)])
        with pytest.raises(ValidationError):
            solve(inst, tol=0.0)


def test_linearise_memory_grows_with_columns_not_squares():
    """One Gauss-Newton point of the N = 84 instance peaks below 16 MB
    under ``tracemalloc`` (about 6 MB): the kernel's temporaries grow with
    P N m B.  A (6B, N, N) stack of A(z) per step peaks at about 42 MB."""
    system = four_pole_three_by_three_system()
    inst = validate_instance(system.poles, monodromy(system, tol=1e-10).matrices)
    seed = first_order_seed(inst)
    cut = _cut_paths(inst.poles, inst.loops)
    tracemalloc.start()
    try:
        _linearise(inst, cut, list(seed), DEFAULT_INTEGRATION_TOL)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16e6


class TestJacobian:
    """A fixed 3-pole 2x2 instance, linearised at the first-order seed."""

    POLES = [0.0, 1.5, 0.4 + 1.1j]

    @pytest.fixture(scope="class")
    def instance_at_seed(self):
        b0 = np.array([[0.03, -0.01 + 0.02j], [0.015j, -0.02]])
        b1 = np.array([[-0.01 + 0.01j, 0.025], [-0.02, 0.01 - 0.02j]])
        system = validate_system(self.POLES, [b0, b1, -(b0 + b1)])
        inst = validate_instance(self.POLES, monodromy(system, tol=1e-10).matrices)
        seed = first_order_seed(inst)
        return inst, inst.loops, _cut_paths(inst.poles, inst.loops), _pack(seed)

    @staticmethod
    def plain_monodromy(inst, loops, residues):
        """M_j from plain continuations of the system itself."""
        system = validate_system(inst.poles, residues)
        return [continue_solution(system, loop, DEFAULT_INTEGRATION_TOL)[0] for loop in loops]

    def test_matrices_match_plain_continuation(self, instance_at_seed):
        inst, loops, cut, x = instance_at_seed
        residues = _unpack(x, len(self.POLES), inst.dimension)
        computed, _ = _linearise(inst, cut, residues, DEFAULT_INTEGRATION_TOL)
        for m, plain in zip(computed, self.plain_monodromy(inst, loops, residues)):
            assert np.linalg.norm(m - plain) <= 1e-12

    def test_matches_central_differences(self, instance_at_seed):
        """The variational Jacobian agrees with central differences entrywise.

        Over all 16 real parameters, at the first-order seed (not at the solution).
        """
        inst, loops, cut, x = instance_at_seed
        count = len(self.POLES)
        exact = _linearise(inst, cut, _unpack(x, count, inst.dimension), DEFAULT_INTEGRATION_TOL)[1]

        def residual(point):
            computed = self.plain_monodromy(inst, loops, _unpack(point, count, inst.dimension))
            return _residual_vector(computed, inst.targets)

        h = 1e-5
        fd = np.stack(
            [(residual(x + h * e) - residual(x - h * e)) / (2.0 * h) for e in np.eye(x.size)],
            axis=1,
        )
        assert exact.shape == fd.shape == (24, 16)
        assert np.max(np.abs(fd)) > 1.0
        assert np.max(np.abs(exact - fd)) <= 1e-6

    def test_one_loop_integration_per_pole_per_point(self, instance_at_seed, monkeypatch):
        """The seed and each accepted trial continue every loop once, no
        more, and the loops are cut into pieces once per solve."""
        inst = instance_at_seed[0]
        paths = []
        cuts = []

        def counting(system, cut, m, tol):
            paths.extend(cut)
            return _integrate_legs(system, cut, m, tol)

        def cutting(poles, loops):
            cuts.append(loops)
            return _cut_paths(poles, loops)

        monkeypatch.setattr("fuchsia.inverse._integrate_legs", counting)
        monkeypatch.setattr("fuchsia.inverse._cut_paths", cutting)
        sol = solve(inst)
        assert sol.converged
        assert len(paths) == (sol.iterations + 1) * len(self.POLES)
        assert len(cuts) == 1
