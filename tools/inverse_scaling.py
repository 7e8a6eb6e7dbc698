"""Time the inverse solver on round trips whose variational systems grow from N = 18 to N = 324.

Run from the root of a checkout (the package is imported from ``src/``):

    python3 tools/inverse_scaling.py
    python3 tools/inverse_scaling.py --sizes 18 111 --repeats 5 --out scaling.json

Each fixture has P poles at the angles 0.3 + 2 pi k / P on the ellipse
(2 cos t, 1.3 sin t), and n x n residues drawn with ``default_rng(11)``:
each free residue is a complex normal matrix scaled to Frobenius norm
0.025, and the last is minus their sum.  The targets are the fixture's
``monodromy(system, tol=1e-10).matrices``.  The four fixtures are 3 poles
2x2, 4 poles 3x3, 5 poles 3x3 and 6 poles 4x4, whose variational systems
have N = ((P - 1) n^2 + 1) n = 18, 84, 111 and 324 rows.  For each, the
tool prints the best ``inverse.solve`` time over ``--repeats`` solves, the
solver's iterations, its continuations by kind (``variational``, M_j with
the Jacobian, and ``plain``, M_j alone, counted by wrapping
``fuchsia.inverse._integrate_legs`` over one more, untimed solve), the final
residual and the residue error, the largest entrywise gap between the
recovered residues and the truth.  BLAS is pinned to one thread unless the
caller sets its own.
"""

import argparse
import cmath
import importlib
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

# (poles, dimension) of each fixture, keyed by its variational dimension N.
FIXTURES = {18: (3, 2), 84: (4, 3), 111: (5, 3), 324: (6, 4)}


def fixture(poles: int, dimension: int):
    """The fixture's system, with its poles on the ellipse and seeded residues summing to zero."""
    from fuchsia.system import validate_system

    rng = np.random.default_rng(11)
    points = [cmath.rect(1.0, 0.3 + 2.0 * cmath.pi * k / poles) for k in range(poles)]
    points = [complex(2.0 * a.real, 1.3 * a.imag) for a in points]
    free = []
    for _ in range(poles - 1):
        b = rng.normal(size=(dimension, dimension)) + 1j * rng.normal(size=(dimension, dimension))
        free.append(0.025 * b / np.linalg.norm(b))
    return validate_system(points, free + [-sum(free)])


def measure(size: int, repeats: int) -> dict:
    """Best solve time of the fixture with variational dimension ``size``, and what the solve returned."""
    from fuchsia.inverse import solve, validate_instance
    from fuchsia.monodromy import monodromy

    system = fixture(*FIXTURES[size])
    instance = validate_instance(system.poles, monodromy(system, tol=1e-10).matrices)
    times = []
    for _ in range(repeats):
        began = time.perf_counter()
        solution = solve(instance)
        times.append(time.perf_counter() - began)
    # A kernel call continues the variational system when it continues fewer columns than the field has rows.
    module = importlib.import_module("fuchsia.inverse")
    original = module._integrate_legs
    continuations = {"variational": 0, "plain": 0}

    def counted(field, cut, m, tol):
        continuations["variational" if field.dimension > m else "plain"] += 1
        return original(field, cut, m, tol)

    module._integrate_legs = counted
    try:
        solve(instance)
    finally:
        module._integrate_legs = original
    error = max(float(np.max(np.abs(got - want))) for got, want in zip(solution.residues, system.residues))
    return {
        "N": size,
        "poles": system.pole_count,
        "dimension": system.dimension,
        "solve_s": min(times),
        "iterations": solution.iterations,
        "continuations": continuations,
        "converged": solution.converged,
        "final_residual": solution.final_residual,
        "residue_error": error,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sizes", type=int, nargs="+", choices=sorted(FIXTURES), default=sorted(FIXTURES))
    parser.add_argument("--repeats", type=int, default=3, help="solves per fixture; the best time is kept")
    parser.add_argument("--out", help="file for the results (JSON)")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    results = []
    for size in args.sizes:
        result = measure(size, args.repeats)
        results.append(result)
        print(
            f"N = {size} ({result['poles']} poles, {result['dimension']}x{result['dimension']}): "
            f"solve {result['solve_s']:.4f} s, {result['iterations']} iterations, "
            f"continuations {result['continuations']['variational']} variational and {result['continuations']['plain']} plain, "
            f"final residual {result['final_residual']:.2e}, residue error {result['residue_error']:.2e}"
        )
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(results, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
