"""Solve the far pool, 25 inverse instances whose targets lie far from the identity, and say how each ends.

Run from the root of a checkout (the package is imported from ``src/``):

    python3 tools/far_pool.py
    python3 tools/far_pool.py --draws 0 7

The pool is rebuilt from ``default_rng(5)``.  For each scale in (0.02, 0.05,
0.08, 0.15, 0.3) it makes 25 draws, and the pool is the 25 at scale 0.3.
Each draw takes P = ``rng.integers(3, 6)`` poles and dimension
n = ``rng.integers(2, 4)``.  Its poles are drawn one at a time as
``complex(*rng.uniform(-2, 2, 2))``, a pole kept only when it is more than
0.5 from every pole kept so far.  Then P - 1 complex normal n x n residues
are drawn, each scaled to 2-norm ``scale``, and the last residue is minus
their sum.  The targets are ``monodromy(system, tol=1e-10).matrices``,
checked by ``validate_instance(..., allow_far=True)``.

Each selected draw is solved by ``inverse.solve`` at its defaults, and the
tool prints one line per draw: ``converged`` with its iterations and the
first 12 hex digits of the SHA-256 of its residues' bytes and their
largest entrywise gap to the drawn residues, which tells the drawn
solution from another one with the same monodromy, ``unconverged``
with its final residual, or the class and message of the error it raised;
then the solve's continuations by kind, variational and plain, counted by
``seed_sweep.continuation_counts``, and the draw's time.  Any warning the
solve emitted is printed after its line.  With the times stripped, the
lines of two runs compare draw for draw with ``diff``.  The last line gives
the totals.  The exit code is 1 when a draw warned or raised anything but
a ``FuchsiaError``, else 0.  BLAS is pinned to one thread unless the
caller sets its own.
"""

import argparse
import hashlib
import os
import sys
import time
import warnings

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
from seed_sweep import continuation_counts  # noqa: E402

SCALES = (0.02, 0.05, 0.08, 0.15, 0.3)
DRAWS = 25


def draw_system(rng, scale: float):
    """One draw of the recipe, as a validated system."""
    from fuchsia.system import validate_system

    count, dim = int(rng.integers(3, 6)), int(rng.integers(2, 4))
    poles = []
    while len(poles) < count:
        pole = complex(*rng.uniform(-2, 2, 2))
        if all(abs(pole - kept) > 0.5 for kept in poles):
            poles.append(pole)
    free = []
    for _ in range(count - 1):
        b = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        free.append(scale * b / np.linalg.norm(b, 2))
    return validate_system(poles, free + [-sum(free)])


def far_pool():
    """The 25 systems of the pool, in draw order."""
    rng = np.random.default_rng(5)
    pools = {scale: [draw_system(rng, scale) for _ in range(DRAWS)] for scale in SCALES}
    return pools[SCALES[-1]]


def run_draw(system) -> tuple[str, list[str], bool]:
    """Solve one draw: (its outcome line, its warnings, whether it converged)."""
    from fuchsia.errors import FuchsiaError
    from fuchsia.inverse import solve, validate_instance
    from fuchsia.monodromy import monodromy

    with warnings.catch_warnings(record=True) as caught, continuation_counts() as counts:
        warnings.simplefilter("always")
        try:
            instance = validate_instance(system.poles, monodromy(system, tol=1e-10).matrices, allow_far=True)
            solution = solve(instance)
        except FuchsiaError as exc:
            outcome, converged = f"{type(exc).__name__}: {exc}", False
        except Exception as exc:  # not a FuchsiaError: the CLI would let it out as a traceback
            outcome, converged = f"UNEXPECTED {type(exc).__name__}: {exc}", False
        else:
            converged = solution.converged
            if converged:
                found = np.array(solution.residues)
                digest = hashlib.sha256(found.tobytes()).hexdigest()[:12]
                gap = np.max(np.abs(found - np.array(system.residues)))
                outcome = f"converged in {solution.iterations} iterations, residues {digest}, largest gap {gap:.3g} to the drawn"
            else:
                outcome = f"unconverged after {solution.iterations} iterations, residual {solution.final_residual:.3e}"
    outcome += f", {counts['variational']} variational + {counts['plain']} plain continuations"
    notes = [f"{w.category.__name__}: {w.message} ({os.path.basename(w.filename)}:{w.lineno})" for w in caught]
    return outcome, notes, converged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--draws", type=int, nargs="+", choices=range(DRAWS), metavar="D", help="draw indices 0-24 (default all)")
    args = parser.parse_args(argv)
    pool = far_pool()
    converged = warned = unexpected = 0
    selected = args.draws if args.draws is not None else range(DRAWS)
    for index in selected:
        system = pool[index]
        began = time.perf_counter()
        outcome, notes, ok = run_draw(system)
        took = time.perf_counter() - began
        print(f"draw {index} (P = {system.pole_count}, n = {system.dimension}): {outcome} [{took:.2f} s]")
        for note in notes:
            print(f"  warning: {note}")
        converged += ok
        warned += bool(notes)
        unexpected += outcome.startswith("UNEXPECTED")
    print(f"{converged} of {len(selected)} converged, {warned} warned, {unexpected} raised a non-FuchsiaError")
    return 1 if warned or unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
