"""Time the exact layers of one seed's exact-gauge pool, each on its own.

Run from the root of a checkout (the package is imported from ``src/``):

    python3 tools/exact_layers.py --seed 4

One pass of the exact-gauge pool (``perfbench/workloads.py``, imported as
it is) records every parse, print (``RationalFunction.__str__``),
``polynomial_gcd`` and ``gauge_transform`` call of its ``convert`` ops; each
layer reruns its calls, best of 30 passes, printed with the calls per pass.
Layers nest (parses and gauge transforms make gcd calls): no sum is meant.
"""

import argparse
import os
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

REPEATS = 30


def record(seed: int):
    """Each layer's function and the arguments of its calls in one pass."""
    import workloads
    from fuchsia import cli, equivalence, rational

    sites = {
        "parse": (equivalence, "parse_rational_function"),
        "print": (rational.RationalFunction, "__str__"),
        "polynomial_gcd": (rational, "polynomial_gcd"),
        "gauge_transform": (equivalence, "gauge_transform"),
    }
    functions = {name: getattr(*site) for name, site in sites.items()}
    calls = {name: [] for name in sites}

    def recording(name):
        def wrapper(*args):
            calls[name].append(args)
            return functions[name](*args)

        return wrapper

    with tempfile.TemporaryDirectory() as workdir:
        units = workloads.gauge_units(seed, workdir)
        try:
            for name, site in sites.items():
                setattr(*site, recording(name))
            for argv in (argv for unit in units for argv in unit.argvs):
                if cli.main(argv) != cli.EXIT_OK:
                    raise SystemExit(f"op failed: {argv}")
        finally:
            for name, site in sites.items():
                setattr(*site, functions[name])
    return functions, calls


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    seed = parser.parse_args(argv).seed
    functions, calls = record(seed)
    print(f"exact-gauge seed {seed}, best of {REPEATS} passes over one pass's calls")
    for name, function in functions.items():
        best = float("inf")
        for _ in range(REPEATS):
            start = time.perf_counter()
            for args in calls[name]:
                function(*args)
            best = min(best, time.perf_counter() - start)
        print(f"{name:16s} {len(calls[name]):5d} calls  {best * 1e3:8.2f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
