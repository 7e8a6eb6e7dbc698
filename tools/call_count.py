"""Count the Python and C function calls of each benchmark op: a measure of fixed cost that does not depend on the machine.

Run from the root of a checkout (the package is imported from ``src/``):

    python3 tools/call_count.py --workload invert-near-identity --seed 4
    python3 tools/call_count.py --workload verify-mixed --seed 4

The workload's pool for the seed is built by ``perfbench/workloads.py``,
imported as it is, in a temporary directory.  One untimed warm-up pass runs
every op once, so that imports and caches are filled; then each op runs
once more with a ``sys.setprofile`` hook that counts its ``call`` events
(Python functions) and ``c_call`` events (builtins and C functions, numpy's
among them).  The tool prints one line per op, its Python and C calls, and
a last line with the mean calls per op.  For a given numpy the counts
repeat exactly from run to run; they move when the code an op runs does.
BLAS is pinned to one thread unless the caller sets its own.
"""

import argparse
import contextlib
import io
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

WORKLOADS = ("verify-mixed", "invert-near-identity", "exact-gauge")


def run(argv, hook=None) -> int:
    """One in-process CLI op, its standard streams captured and ``hook`` profiling it alone; its exit code."""
    from fuchsia import cli

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        sys.setprofile(hook)
        try:
            return cli.main(argv)
        finally:
            sys.setprofile(None)


def counted(argv) -> tuple[int, int]:
    """The Python and C calls one CLI op makes."""
    counts = {"call": 0, "c_call": 0}

    def hook(frame, event, arg):
        if event in counts:
            counts[event] += 1

    run(argv, hook)
    return counts["call"], counts["c_call"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    import workloads

    build = {"verify-mixed": workloads.verify_units, "invert-near-identity": workloads.invert_units, "exact-gauge": workloads.gauge_units}
    with tempfile.TemporaryDirectory() as workdir:
        ops = [(unit.label, op) for unit in build[args.workload](args.seed, workdir) for op in unit.argvs]
        for _, op in ops:
            run(op)
        total = 0
        for index, (label, op) in enumerate(ops):
            python, c = counted(op)
            total += python + c
            print(f"op {index} {label}: {python + c} calls ({python} Python, {c} C)")
    print(f"{args.workload} seed {args.seed}: {total / len(ops):.1f} calls per op over {len(ops)} ops")
    return 0


if __name__ == "__main__":
    sys.exit(main())
