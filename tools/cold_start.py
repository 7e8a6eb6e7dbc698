"""Time each CLI command as a user waits for it: a new Python process, imports included.

Run from the root of a checkout, naming a second checkout to compare with:

    python3 tools/cold_start.py ../parent --runs 15 --out cold.json

The benchmark (``perfbench/run.py``) times ops inside one warm process, so
it does not see what a command costs to start.  This script runs
``check``, ``galois``, ``monodromy``, ``verify``, ``invert`` and ``convert``
as subprocesses (``python -c "from fuchsia.cli import main; ..."`` with
``PYTHONPATH`` at the checkout's ``src``), ``--runs`` times each on each
checkout, alternating which checkout goes first, and records each
command's wall times, their median and minimum.  It also runs each command
once more per checkout under ``python -X importtime`` and records the
scipy modules that the process imported.

The inputs come from this checkout's ``perfbench/workloads.py``:
verify-mixed seed-4 unit 16 (a 4 x 4 system with five poles, whose Jordan
structures restrict an eigenvalue cluster to its Schur block) for the four
commands that read a system, invert-near-identity seed-4 unit 0 for
``invert``, and the first op of exact-gauge seed-4 unit 0 (module to matrix,
with a basis) for ``convert``.  Every run must exit 0.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LAUNCH = "import sys; from fuchsia.cli import main; sys.exit(main(sys.argv[1:]))"


def command_argvs(workdir: str) -> dict:
    """One CLI argv per command, on inputs written to ``workdir``."""
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    import workloads

    [verify] = workloads.verify_units(4, workdir)[16].argvs
    system = verify[2]
    [invert] = workloads.invert_units(4, workdir)[0].argvs
    convert = workloads.gauge_units(4, workdir)[0].argvs[0]
    return {
        "check": ["--quiet", "check", system],
        "galois": ["--quiet", "galois", system],
        "monodromy": ["--quiet", "monodromy", system],
        "verify": verify,
        "invert": invert,
        "convert": convert,
    }


def run(checkout: str, argv: list, flags=()) -> tuple[float, str]:
    """Wall time of one CLI process on ``checkout``, and its stderr."""
    env = {**os.environ, "PYTHONPATH": os.path.join(checkout, "src")}
    began = time.perf_counter()
    done = subprocess.run([sys.executable, *flags, "-c", LAUNCH, *argv], capture_output=True, text=True, env=env)
    elapsed = time.perf_counter() - began
    if done.returncode != 0:
        raise SystemExit(f"{checkout}: {' '.join(argv[:2])} exited {done.returncode}: {done.stderr.strip()}")
    return elapsed, done.stderr


def scipy_modules(checkout: str, argv: list) -> list:
    """The scipy modules that one CLI process imports, from ``-X importtime``."""
    _, stderr = run(checkout, argv, ("-X", "importtime"))
    names = [line.rsplit("|", 1)[-1].strip() for line in stderr.splitlines() if line.startswith("import time:")]
    return sorted(name for name in names if name.split(".")[0] == "scipy")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="the checkout to compare with (its src/ is imported)")
    parser.add_argument("--runs", type=int, default=15, help="runs per command and checkout")
    parser.add_argument("--out", help="file for the record (JSON); printed when omitted")
    args = parser.parse_args(argv)
    checkouts = {"parent": os.path.abspath(args.parent), "change": ROOT}
    with tempfile.TemporaryDirectory() as workdir:
        argvs = command_argvs(workdir)
        times = {command: {side: [] for side in checkouts} for command in argvs}
        for index in range(args.runs):
            sides = list(checkouts) if index % 2 == 0 else list(reversed(checkouts))
            for command, command_argv in argvs.items():
                for side in sides:
                    times[command][side].append(run(checkouts[side], command_argv)[0])
            print(f"run {index + 1} of {args.runs}", file=sys.stderr)
        scipy = {
            command: {side: scipy_modules(path, command_argv) for side, path in checkouts.items()}
            for command, command_argv in argvs.items()
        }
    record = {
        "about": __doc__.split("\n\n")[0],
        "runs": args.runs,
        "host": f"{os.cpu_count()} cores, Python {platform.python_version()}",
        "commands": {
            command: {
                side: {
                    "median_s": statistics.median(values),
                    "min_s": min(values),
                    "times_s": values,
                    "scipy_modules": scipy[command][side],
                }
                for side, values in sides.items()
            }
            for command, sides in times.items()
        },
    }
    text = json.dumps(record, indent=1)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    for command, sides in record["commands"].items():
        parent, change = sides["parent"], sides["change"]
        print(
            f"{command:9s} median {parent['median_s']:.3f} -> {change['median_s']:.3f} s, "
            f"min {parent['min_s']:.3f} -> {change['min_s']:.3f} s, "
            f"scipy modules {len(parent['scipy_modules'])} -> {len(change['scipy_modules'])}",
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
