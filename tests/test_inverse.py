"""Inverse problem: seed accuracy, instance validation, round-trip recovery."""

import cmath
import importlib
import json
import tracemalloc

import numpy as np
import pytest

from conftest import dense_variational_residues, sample_poles
from fuchsia import cli, jsonio
from fuchsia.errors import ValidationError
from fuchsia.inverse import (
    _SENSITIVITY_SCALE,
    DEFAULT_MAX_ITER,
    DEFAULT_RESIDUAL_TOL,
    InverseProblemInstance,
    _approach_logs,
    _closed,
    _gauss_newton,
    _linearise,
    _log_near_identity,
    _point_system,
    _residues,
    _solution,
    _VariationalField,
    first_order_seed,
    second_order_seed,
    solve,
    validate_instance,
)
from fuchsia.monodromy import DEFAULT_INTEGRATION_TOL, _cut_paths, _integrate_legs, continue_solution, monodromy
from fuchsia.linalg import matrix_exp
from fuchsia.paths import default_base_point
from fuchsia.system import TWO_PI_I, FuchsianSystem, validate_system


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


def near_identity_instances(rng):
    """20 random 3-pole 2x2 systems with residue 2-norms at most 0.05 each, and the instances of their monodromy."""
    for _ in range(20):
        poles = sample_poles(rng, 3)
        free = [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(2)]
        residues = free + [-(free[0] + free[1])]
        scale = rng.uniform(0.0, 0.05) / max(np.linalg.norm(b, 2) for b in residues)
        system = validate_system(poles, [scale * b for b in residues])
        yield system, validate_instance(poles, monodromy(system, tol=1e-10).matrices)


def gauss_newton(inst):
    """``solve``'s damped Gauss-Newton alone, from the second-order seed, at the default tolerances."""
    seed = second_order_seed(inst)
    cut = _cut_paths(inst.poles, inst.loops)
    found = _gauss_newton(inst, cut, seed, DEFAULT_RESIDUAL_TOL, DEFAULT_MAX_ITER, DEFAULT_INTEGRATION_TOL)
    return _solution(inst, seed, *found, DEFAULT_RESIDUAL_TOL)


def continuation_kinds(monkeypatch):
    """Count the solver's kernel calls by kind, plain (m = N) or variational, in the dict returned."""
    counts = {"variational": 0, "plain": 0}

    def counting(field, cut, m, tol):
        counts["plain" if field.dimension == m else "variational"] += 1
        return _integrate_legs(field, cut, m, tol)

    monkeypatch.setattr("fuchsia.inverse._integrate_legs", counting)
    return counts


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
        with pytest.raises(ValidationError, match="^target 1 is numerically singular$"):
            validate_instance([0.0, 1.0, 2.0], [np.eye(2), singular, 0.0 * singular])

    @pytest.mark.parametrize(
        "matrices, message",
        [
            ([np.eye(2)], r"^2 poles but 1 {kind} matrices$"),
            ([np.ones((2, 3)), np.eye(2)], r"^{kind} 0 must be square and non-empty, got shape \(2, 3\)$"),
            ([np.eye(2), np.eye(3)], r"^{kind} 1 has dimension 3, expected 2$"),
        ],
        ids=["count", "non-square", "size"],
    )
    def test_targets_are_checked_as_a_system_checks_its_residues(self, matrices, message):
        with pytest.raises(ValidationError, match=message.format(kind="residue")):
            validate_system([0.0, 1.0], matrices)
        with pytest.raises(ValidationError, match=message.format(kind="target")):
            validate_instance([0.0, 1.0], matrices)

    def test_size_mismatch_is_reported_before_a_singular_target(self):
        singular = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ValidationError, match="target 1 has dimension 3"):
            validate_instance([0.0, 1.0], [singular, np.eye(3)])

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

    def test_instance_carries_its_distance_from_the_identity(self):
        """The instance carries max_j |M_j - I|_F, also when ``allow_far``
        lets a far target in, and ``solve`` reads it in place of a second
        computation."""
        targets = diagonal_targets([[0.02, -0.03], [-0.02, 0.03]])
        inst = validate_instance([0.0, 1.0], targets)
        assert inst.distance == max(float(np.linalg.norm(m - np.eye(2))) for m in inst.targets)
        m = np.diag([cmath.exp(2j * cmath.pi * 0.3)])
        far = validate_instance([0.0, 1.0], [m, np.linalg.inv(m)], allow_far=True)
        assert far.distance == max(float(np.linalg.norm(t - np.eye(1))) for t in far.targets) > 0.5


class TestSeed:
    def test_closed_residues_sum_to_exactly_zero(self, rng):
        """``_closed`` makes the last residue minus the sum of the others as
        ``sum`` adds them, and s + (-s) is exactly 0, so ``_point_system``'s
        defect of 0.0 is the true one."""
        for _ in range(200):
            count, dim = rng.integers(1, 6), rng.integers(1, 5)
            free = rng.normal(size=(count, dim, dim)) + 1j * rng.normal(size=(count, dim, dim))
            residues = _closed(free * 10.0 ** rng.uniform(-8, 2))
            assert np.array_equal(sum(residues), np.zeros((dim, dim)))
            assert not np.signbit(sum(residues).real).any()

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


class TestLogNearIdentity:
    """``_log_near_identity``, the log that G2 is built on."""

    @pytest.mark.parametrize(
        "x",
        [
            np.array([[-0.25, 0.25], [0.0, -0.25]]),  # I + X a Jordan block
            np.array([[0.0, 0.5], [0.0, 0.0]]),  # X nilpotent
            np.array([[0.0, 0.3, 0.1j], [0.0, 0.0, 0.3], [0.0, 0.0, 0.0]]),
            np.diag([-0.5, 0.5j, 0.5]),  # the rule's worst point, -1/2, on the diagonal
        ],
        ids=["jordan", "nilpotent", "nilpotent-3", "diagonal"],
    )
    def test_exp_of_log_is_the_matrix(self, x):
        assert np.linalg.norm(x, 2) <= 0.5
        log = _log_near_identity(x[None].astype(complex))[0]
        assert np.max(np.abs(matrix_exp(log) - np.eye(len(x)) - x)) <= 1e-12

    def test_exp_of_log_is_the_matrix_on_random_stacks(self, rng):
        """A stack of 40 random complex matrices, each of 2-norm up to 1/2, half of them upper triangular."""
        x = rng.normal(size=(40, 3, 3)) + 1j * rng.normal(size=(40, 3, 3))
        x[::2] = np.triu(x[::2])
        x *= rng.uniform(0.05, 0.5, size=(40, 1, 1)) / np.linalg.norm(x, 2, axis=(1, 2))[:, None, None]
        logs = _log_near_identity(x)
        assert np.max(np.abs(matrix_exp(logs) - np.eye(3) - x)) <= 1e-12


class TestSecondOrderSeed:
    """The seed ``solve`` starts from: the first-order seed plus the second-order terms of the residues' monodromy."""

    POLES = [0.0, 1.5, 0.4 + 1.1j]
    B0 = np.array([[0.03, -0.01 + 0.02j], [0.015j, -0.02]])
    B1 = np.array([[-0.01 + 0.01j, 0.025], [-0.02, 0.01 - 0.02j]])

    def test_seed_error_is_cubic(self):
        """On a fixed non-commuting direction the seed error falls at least
        7x per halving of the residue scale (about 8x; the first-order
        seed's falls about 4x)."""
        direction = [self.B0, self.B1, -(self.B0 + self.B1)]
        norm = max(np.linalg.norm(b, 2) for b in direction)

        def seed_error(scale):
            residues = [scale / norm * b for b in direction]
            system = validate_system(self.POLES, residues)
            inst = validate_instance(self.POLES, monodromy(system, tol=1e-12).matrices)
            seeds = second_order_seed(inst)
            assert np.array_equal(seeds[-1], -(seeds[0] + seeds[1]))
            return max(float(np.linalg.norm(s - b)) for s, b in zip(seeds, residues))

        errors = [seed_error(scale) for scale in (0.04, 0.02, 0.01)]
        assert errors[-1] > 0
        for coarse, fine in zip(errors, errors[1:]):
            assert coarse / fine >= 7.0, errors

    @pytest.mark.parametrize(
        "poles",
        [POLES, [1.2 + 0.3j, -0.9 + 1.1j, -0.4 - 1.3j], [0.0, 1.0, 1.0j, -1.0 - 0.5j]],
        ids=["fixed", "invert-triangle", "four-poles"],
    )
    def test_approach_logs_match_the_integrals(self, poles):
        """c_jk is the midpoint-rule integral of dz / (z - a_k) along loop
        j's approach lines and on from its circle's start to a_j, within
        1e-8; c_jj is 0."""
        inst = validate_instance(poles, [np.eye(2)] * len(poles))
        c = _approach_logs(inst)
        t = (np.arange(100_000) + 0.5) / 100_000
        for j, (loop, a) in enumerate(zip(inst.loops, inst.poles)):
            half = len(loop.segments) // 2
            pieces = [(seg.start, seg.end) for seg in loop.segments[:half]] + [(loop.segments[half].start, a)]
            for k, b in enumerate(inst.poles):
                if k == j:
                    assert c[j, k] == 0.0
                    continue
                integral = sum(np.mean((q - p) / (p + t * (q - p) - b)) for p, q in pieces)
                assert abs(c[j, k] - integral) <= 1e-8

    def test_near_identity_instances_converge_in_two_iterations(self, rng):
        """20 random 3-pole 2x2 instances with residue 2-norms at most 0.05
        each converge in at most 2 iterations of ``_gauss_newton`` alone and
        recover the truth within 1e-6; each solution carries the seed it
        started from."""
        for system, inst in near_identity_instances(rng):
            sol = gauss_newton(inst)
            assert sol.converged
            assert sol.iterations <= 2
            for recovered, truth in zip(sol.residues, system.residues):
                assert np.max(np.abs(recovered - truth)) <= 1e-6
            for used, expected in zip(sol.seed, second_order_seed(inst)):
                assert np.array_equal(used, expected)

    def test_invert_report_writes_the_seed_solve_started_from(self, tmp_path):
        residues = [self.B0, self.B1, -(self.B0 + self.B1)]
        report = monodromy(validate_system(self.POLES, residues), tol=1e-10)
        inst = validate_instance(self.POLES, report.matrices)
        path = tmp_path / "instance.json"
        path.write_text(jsonio.canonical_json(inst.to_dict()), encoding="utf-8")
        out = tmp_path / "invert.json"
        assert cli.main(["--quiet", "invert", str(path), "--json", str(out)]) == cli.EXIT_OK
        written = json.loads(out.read_text(encoding="utf-8"))["seed"]
        assert written == [jsonio.matrix_to_pairs(s) for s in second_order_seed(inst)]


    def test_seed_error_is_quartic_where_the_residues_commute_to_first_order(self):
        """On residues s D_j + s^2 N_j with commuting D_j, every commutator is
        O(s^3) and every nested one O(s^4).  G2's error is made of nested
        commutators only, so it falls at least 14x per halving of s (about
        16x; truncating the log at X - X^2 / 2 leaves a cubic error, 8x)."""
        d = [np.diag([1.0, -0.5 + 1j]), np.diag([-0.4 + 0.4j, 1.0])]
        n = [np.array([[0.0, 1.0 - 0.5j], [0.7j, 0.0]]), np.array([[0.3, -0.8], [0.6 + 0.2j, -0.3]])]

        def seed_error(s):
            free = [s * dj + s * s * nj for dj, nj in zip(d, n)]
            residues = free + [-sum(free)]
            system = validate_system(self.POLES, residues)
            inst = validate_instance(self.POLES, monodromy(system, tol=1e-13).matrices)
            return max(float(np.linalg.norm(a - b)) for a, b in zip(second_order_seed(inst), residues))

        errors = [seed_error(s) for s in (0.04, 0.02, 0.01)]
        for coarse, fine in zip(errors, errors[1:]):
            assert coarse / fine >= 14.0, errors

    def test_commuting_instance_is_solved_by_its_seed(self, monkeypatch):
        """Commuting residues have M_j = exp(2 pi i B_j), which G2 inverts to
        rounding: ``solve`` converges on the seed's one plain continuation,
        with 0 iterations."""
        targets = diagonal_targets([[0.03, -0.02], [0.01, 0.04], [-0.04, -0.02]])
        inst = validate_instance(self.POLES, targets)
        counts = continuation_kinds(monkeypatch)
        sol = solve(inst)
        assert sol.converged and sol.iterations == 0
        assert counts == {"variational": 0, "plain": 1}
        assert all(np.array_equal(a, b) for a, b in zip(sol.residues, sol.seed))

    def test_near_identity_instances_are_solved_from_plain_continuations(self, rng, monkeypatch):
        """``solve`` continues the same 20 instances plainly only, at most 4
        times each (the most measured: 3 updates after the seed's
        continuation), one more continuation than its updates, and recovers
        the truth within 1e-6 from the second-order seed."""
        counts = continuation_kinds(monkeypatch)
        for system, inst in near_identity_instances(rng):
            counts.update(variational=0, plain=0)
            sol = solve(inst)
            assert sol.converged
            assert counts["variational"] == 0
            assert counts["plain"] == sol.iterations + 1 <= 4
            for recovered, truth in zip(sol.residues, system.residues):
                assert np.max(np.abs(recovered - truth)) <= 1e-6
            for used, expected in zip(sol.seed, second_order_seed(inst)):
                assert np.array_equal(used, expected)

    def test_near_identity_solve_computes_no_loop_estimate(self, rng, monkeypatch):
        """The Anderson solve reads each continuation's values alone, so no
        loop's error estimate is computed: ``_hop_bounds``, the composed
        bound, is never called.  ``monodromy`` of the same system reads its
        estimates and calls it twice, for the loops and for their legs."""
        module = importlib.import_module("fuchsia.monodromy")
        calls = []
        original = module._hop_bounds

        def counting(*args):
            calls.append(len(args))
            return original(*args)

        monkeypatch.setattr(module, "_hop_bounds", counting)
        counts = continuation_kinds(monkeypatch)
        system, inst = next(near_identity_instances(rng))
        calls.clear()
        sol = solve(inst)
        assert sol.converged and counts["plain"] >= 2 and counts["variational"] == 0
        assert calls == []
        monodromy(system)
        assert len(calls) == 2

    def test_far_instance_runs_gauss_newton(self, monkeypatch):
        """An instance with a target farther than the proximity bound from
        the identity, accepted with ``allow_far``, is solved by Gauss-Newton:
        the same iterations, residues and continuations as ``_gauss_newton``
        alone, and a variational continuation at its seed."""
        b = np.array([[0.2, 0.05], [-0.03j, -0.1]])
        system = validate_system(self.POLES, [b, -0.5 * b, -0.5 * b])
        inst = validate_instance(self.POLES, monodromy(system, tol=1e-10).matrices, allow_far=True)
        assert max(np.linalg.norm(m - np.eye(2)) for m in inst.targets) > 0.5
        counts = continuation_kinds(monkeypatch)
        alone = gauss_newton(inst)
        expected = dict(counts)
        counts.update(variational=0, plain=0)
        sol = solve(inst)
        assert counts == expected and counts["variational"] >= 1
        assert sol.converged and sol.iterations == alone.iterations
        assert all(np.array_equal(a, b) for a, b in zip(sol.residues, alone.residues))
        for recovered, truth in zip(sol.residues, system.residues):
            assert np.max(np.abs(recovered - truth)) <= 1e-6

    def test_stalled_iteration_falls_back_to_gauss_newton(self, monkeypatch):
        """When the third plain continuation is pushed 1e-3 off, its metric
        does not fall below the best so far, so Gauss-Newton takes over from
        the best iterate: it continues variationally, counts its iterations
        after the two Anderson updates, and converges to the truth."""
        residues = [self.B0, self.B1, -(self.B0 + self.B1)]
        inst = validate_instance(self.POLES, monodromy(validate_system(self.POLES, residues), tol=1e-10).matrices)
        counts = {"variational": 0, "plain": 0}

        def counting(field, cut, m, tol):
            plain = field.dimension == m
            counts["plain" if plain else "variational"] += 1
            results = _integrate_legs(field, cut, m, tol)
            if plain and counts["plain"] == 3:
                results.values = results.values + 1e-3
            return results

        monkeypatch.setattr("fuchsia.inverse._integrate_legs", counting)
        sol = solve(inst)
        assert counts["variational"] >= 1
        assert sol.converged and sol.iterations > 2
        for recovered, truth in zip(sol.residues, residues):
            assert np.max(np.abs(recovered - truth)) <= 1e-6


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
        return inst, inst.loops, _cut_paths(inst.poles, inst.loops), seed

    @staticmethod
    def plain_monodromy(inst, loops, residues):
        """M_j from plain continuations of the system itself."""
        system = validate_system(inst.poles, residues)
        return [continue_solution(system, loop, DEFAULT_INTEGRATION_TOL)[0] for loop in loops]

    def test_matrices_match_plain_continuation(self, instance_at_seed):
        inst, loops, cut, residues = instance_at_seed
        computed, _ = _linearise(inst, cut, residues, DEFAULT_INTEGRATION_TOL)
        for m, plain in zip(computed, self.plain_monodromy(inst, loops, residues)):
            assert np.linalg.norm(m - plain) <= 1e-12

    def test_matches_central_differences(self, instance_at_seed):
        """The complex Jacobian agrees with central differences entrywise,
        at the first-order seed (not at the solution), over all 8 complex
        unknowns, along the real direction e of each and along i e, where it
        is i J e: monodromy is holomorphic in the residues."""
        inst, loops, cut, seed = instance_at_seed
        exact = _linearise(inst, cut, seed, DEFAULT_INTEGRATION_TOL)[1]
        shape, x = np.shape(seed[:-1]), np.ravel(seed[:-1])

        def residual(point):
            computed = self.plain_monodromy(inst, loops, _residues(point, shape))
            return np.ravel(np.array(computed) - np.array(inst.targets))

        h = 1e-5
        for direction in (1.0, 1j):
            fd = np.stack(
                [(residual(x + h * direction * e) - residual(x - h * direction * e)) / (2.0 * h) for e in np.eye(x.size)],
                axis=1,
            )
            assert exact.shape == fd.shape == (12, 8)
            assert np.max(np.abs(fd)) > 1.0
            assert np.max(np.abs(direction * exact - fd)) <= 1e-6

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

    def test_jacobian_column_is_each_derivative_in_unknowns_order(self, instance_at_seed):
        """Column t of the Jacobian equals bit for bit the ravel over the
        loops of dM_j/dtheta_t, theta_t the t-th entry of the raveled free
        residues, as the continued column of the variational field gives it."""
        inst, _, cut, residues = instance_at_seed
        _, jacobian = _linearise(inst, cut, residues, DEFAULT_INTEGRATION_TOL)
        field = _VariationalField(_point_system(inst, residues))
        results = _integrate_legs(field, cut, inst.dimension, DEFAULT_INTEGRATION_TOL)
        lower = np.array([column for column, _ in results])[:, inst.dimension :]
        d = lower.reshape(len(results), -1, inst.dimension, inst.dimension) / _SENSITIVITY_SCALE
        assert jacobian.shape == (len(results) * inst.dimension**2, np.size(residues[:-1]))
        for t in range(jacobian.shape[1]):
            assert np.array_equal(jacobian[:, t], np.ravel(d[:, t]))

    def test_last_point_is_continued_without_its_jacobian(self, instance_at_seed, monkeypatch):
        """A 2-iteration ``_gauss_newton`` solve continues the seed and the
        first iterate with their Jacobians and its last point plainly,
        n x n: 2 variational and 1 plain continuation, told apart by m
        against the field's dimension.  When the plain trial is made to
        miss tol, the trial is continued again with its Jacobian: one plain
        continuation more than a solve without the prediction, and the same
        iterations and residues."""
        inst = instance_at_seed[0]
        counts = {"variational": 0, "plain": 0}
        miss = False

        def counting(field, cut, m, tol):
            plain = field.dimension == m
            counts["plain" if plain else "variational"] += 1
            results = _integrate_legs(field, cut, m, tol)
            if plain and miss:
                # Off by 1e-6: the residual still falls, but tol 1e-8 is missed.
                results.values = results.values + 1e-6
            return results

        monkeypatch.setattr("fuchsia.inverse._integrate_legs", counting)
        hit = gauss_newton(inst)
        assert hit.converged and hit.iterations == 2
        assert counts == {"variational": 2, "plain": 1}
        counts.update(variational=0, plain=0)
        miss = True
        missed = gauss_newton(inst)
        assert counts == {"variational": 3, "plain": 1}
        assert missed.converged and missed.iterations == hit.iterations
        assert all(np.array_equal(a, b) for a, b in zip(missed.residues, hit.residues))


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("count", [2, 3, 4])
@pytest.mark.parametrize("size", [0.1, 0.0])
def test_structured_field_applies_the_dense_variational_residues(dim, count, size):
    """On random stacks, the variational field's ``apply``, in its own row
    order, equals sum_p R_p stack[p] / k with the dense block-order R_p,
    kron(I_{K+1}, B_p) plus the coupling entries, within 1e-14 relative;
    and each of its ``bounds`` is at least |R_p|_2.  With zero residues
    the product is the coupling alone, 2**-30 the size of the rest."""
    rng = np.random.default_rng(10 * dim + count)
    free = [rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)) for _ in range(count - 1)]
    residues = [size * b for b in free] + [-size * sum(free)]
    field = _VariationalField(FuchsianSystem(tuple(complex(p) for p in range(count)), tuple(residues), dim, 0.0))
    dense = np.array(dense_variational_residues(residues, _SENSITIVITY_SCALE))
    rows = dense.shape[1]
    assert field.dimension == rows == ((count - 1) * dim * dim + 1) * dim
    assert sorted(field.rows.tolist()) == list(range(rows))
    assert np.all(field.bounds >= np.linalg.norm(dense, 2, axis=(1, 2)))
    k = 3
    stack = rng.normal(size=(count, rows, 2, 5)) + 1j * rng.normal(size=(count, rows, 2, 5))
    expected = np.einsum("pij,pjab->iab", dense, stack) / k
    interleaved = np.empty_like(stack)
    interleaved[:, field.rows] = stack
    out = np.empty(stack.shape[1:], dtype=complex)
    field.apply(k, interleaved, out)
    assert np.linalg.norm(out[field.rows] - expected) <= 1e-14 * np.linalg.norm(expected)
