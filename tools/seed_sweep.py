"""Sweep the verify-mixed pool over many seeds, and compare two sweeps.

Run from the root of a checkout (the package is imported from ``src/``):

    python3 tools/seed_sweep.py --seeds 0-420 --out sweep.json
    python3 tools/seed_sweep.py --compare parent.json change.json

A sweep makes one pass of the benchmark's verify-mixed pool
(``perfbench/workloads.py``, imported as it is) for each seed, and writes
every op's exit code, input class, first error line and check verdict,
each seed's ``correct`` flag (no failure outside the known-defect classes),
the SHA-256 of every report's bytes, and the loop matrices of every report.
``--compare`` prints the failed ops that differ between two sweeps, the
seeds whose ``correct`` differs, how many ops' report bytes differ, and the
largest gaps between their loop matrices: entrywise, entrywise over the
commuting classes, and between matched eigenvalues.  A change to
continuation or geometry should leave the failed ops equal, op for op; a
change of loop convention conjugates the generic matrices, so there only
the spectra and the commuting classes' entries should stay put.  A change
that claims the same answers should leave every report's bytes equal.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
# One BLAS thread, as in the benchmark, unless the caller sets its own.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402


def seed_range(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def sweep(seeds) -> list:
    """One record per op of every seed's verify-mixed pool."""
    import workloads
    from fuchsia import cli

    records = []
    for seed in seeds:
        with tempfile.TemporaryDirectory() as workdir:
            for index, unit in enumerate(workloads.verify_units(seed, workdir)):
                [argv], [out] = unit.argvs, unit.outputs
                stderr = io.StringIO()
                with contextlib.redirect_stderr(stderr):
                    try:
                        code, error = cli.main(argv), None
                    except Exception as exc:  # a raising op is a failed op
                        code, error = -1, f"{type(exc).__name__}: {exc}"
                report = None
                if os.path.exists(out):
                    with open(out, "rb") as fh:
                        report = fh.read()
                error = error or (stderr.getvalue().strip().splitlines() or [None])[0]
                [ok] = workloads.check_verify(unit, [workloads.OpResult(code, 0.0, report, error)])
                records.append(
                    {
                        "seed": seed,
                        "unit": index,
                        "class": unit.label,
                        "exit": code,
                        "error": error,
                        "ok": ok,
                        "known_defect": bool(unit.truth["known_defect"]),
                        "sha256": hashlib.sha256(report).hexdigest() if report else None,
                        "matrices": json.loads(report)["monodromy"]["matrices"] if report else None,
                    }
                )
        print(f"seed {seed}: {sum(not r['ok'] for r in records if r['seed'] == seed)} failed", file=sys.stderr)
    return records


def correct(records) -> dict:
    flags = {}
    for r in records:
        flags[r["seed"]] = flags.get(r["seed"], True) and (r["ok"] or r["known_defect"])
    return flags


def compare(left, right) -> int:
    """Print the differences between two sweeps; nonzero when failed ops differ."""
    from fuchsia.linalg import min_cost_assignment

    def failed(records):
        return {(r["seed"], r["unit"]): (r["class"], r["exit"], r["error"]) for r in records if not r["ok"]}

    a, b = failed(left), failed(right)
    differing = sorted(key for key in a.keys() | b.keys() if a.get(key) != b.get(key))
    for key in differing:
        print(f"seed {key[0]} unit {key[1]}: {a.get(key)} -> {b.get(key)}")
    print(f"failed ops: {len(a)} -> {len(b)}, {len(differing)} differ")
    if all("sha256" in r for r in left + right):
        digests = {(r["seed"], r["unit"]): r["sha256"] for r in right}
        changed = sum(r["sha256"] != digests.get((r["seed"], r["unit"])) for r in left)
        print(f"report bytes: {changed} of {len(left)} ops differ")
    else:
        print("report bytes: not compared, a sweep file has no digests")
    flags_a, flags_b = correct(left), correct(right)
    for label, flags in (("left", flags_a), ("right", flags_b)):
        print(f"correct false ({label}):", sorted(seed for seed, ok in flags.items() if not ok))
    matrices = {(r["seed"], r["unit"]): r["matrices"] for r in right if r["matrices"]}
    # Per gap kind: (largest gap, where).
    gaps = {"entrywise": (0.0, None), "commuting entrywise": (0.0, None), "eigenvalue": (0.0, None)}
    count = 0
    for r in left:
        other = matrices.get((r["seed"], r["unit"]))
        if not (r["matrices"] and other):
            continue
        where = (r["seed"], r["unit"], r["class"])
        for x, y in zip(r["matrices"], other, strict=True):
            x, y = (np.array(m) @ [1.0, 1j] for m in (x, y))
            cost = np.abs(np.linalg.eigvals(x)[:, None] - np.linalg.eigvals(y))
            found = {"entrywise": float(np.max(np.abs(x - y))), "eigenvalue": float(cost[min_cost_assignment(cost)].max())}
            if "/commuting/" in r["class"]:
                found["commuting entrywise"] = found["entrywise"]
            count += 1
            for kind, gap in found.items():
                if gap > gaps[kind][0]:
                    gaps[kind] = (gap, where)
    for kind, (gap, where) in gaps.items():
        print(f"largest {kind} gap over {count} loop matrices: {gap:.3e} at {where}")
    return 1 if differing else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("0-420"), help="first-last, inclusive")
    parser.add_argument("--out", help="file for the sweep's records (JSON)")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two sweep files and exit")
    args = parser.parse_args(argv)
    if args.compare:
        left, right = (json.load(open(path)) for path in args.compare)
        return compare(left, right)
    if not args.out:
        parser.error("--out is required for a sweep")
    records = sweep(args.seeds)
    with open(args.out, "w") as fh:
        json.dump(records, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
