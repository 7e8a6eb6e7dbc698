"""Sweep the verify-mixed, exact-gauge and invert-near-identity pools over many seeds, and compare two sweeps.

Run from the root of a checkout (the package is imported from ``src/``):

    python3 tools/seed_sweep.py --seeds 0-420 --out sweep.json
    python3 tools/seed_sweep.py --compare parent.json change.json

A sweep makes one pass of the benchmark's verify-mixed, exact-gauge and
invert-near-identity pools (``perfbench/workloads.py``, imported as it is)
for each seed, and writes every op's exit code, input class, first error
line, check verdict and the SHA-256 of its report's bytes; for
invert-near-identity also the recovered residues, the Gauss-Newton
``iterations`` and the ``final_residual``; for verify-mixed
also each seed's ``correct`` flag (every verify op passes its check), the
loop matrices and ``error_estimates`` of every report, the SHA-256 of the
rest of the report (without the estimates and each pole's
``monodromy_error``, their copies), its verdicts (``overall`` and, per pole,
``spectrum_match``, ``structure_match``, ``ok`` and ``non_resonant``), its
largest ``conjugator_residual`` and, for the commuting classes, its realised
error: the largest |M - oracle|_F / tol over its loops, against the
closed-form monodromy of ``unit.truth["oracle"]`` at the default integration
tolerance.  ``--compare`` prints the failed verify-mixed ops that differ
between two sweeps, the seeds whose ``correct`` differs, how many ops' report
bytes differ and how many differ outside the error estimates, the verify
ops whose verdicts differ, the largest conjugator residual and realised
error of each sweep and where they occur, the largest relative change of
an error estimate and where it occurs, and the largest gaps between their
loop matrices: entrywise, entrywise over the commuting classes, and between
matched eigenvalues; then, for exact-gauge and for
invert-near-identity, the ops whose exit code, error or verdict differ, and
how many of their reports' bytes differ, and for invert-near-identity the
largest entrywise gap between the recovered residues, the ops whose
iteration counts differ and the largest relative change of the final
residual.  A change to continuation or
geometry should leave the failed ops equal, op for op; a change of loop
convention conjugates the generic matrices, so there only the spectra and
the commuting classes' entries should stay put.  A change that claims the same answers should leave every
report's bytes equal; one that moves only the last bits of the floats, such
as a different matrix exponential, should leave every verdict equal; one
that moves only the estimates' last bits, such as a different rounding
model, should leave the rest of every verify report equal.
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


def _run(argv, out):
    """One in-process CLI op: (exit code, first error line, report bytes or None)."""
    from fuchsia import cli

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
    return code, error or (stderr.getvalue().strip().splitlines() or [None])[0], report


def verify_verdicts(report: dict) -> list:
    """A verify report's verdicts: ``overall``, then per pole its four flags."""
    flags = ("spectrum_match", "structure_match", "ok", "non_resonant")
    return [report["overall"]] + [[pole[flag] for flag in flags] for pole in report["per_pole"]]


def rest_digest(report: dict) -> str:
    """SHA-256 of a verify report without its error estimates and each pole's copy of its own, ``monodromy_error``."""
    rest = dict(report, monodromy=dict(report["monodromy"], error_estimates=None))
    rest["per_pole"] = [dict(pole, monodromy_error=None) for pole in report["per_pole"]]
    return hashlib.sha256(json.dumps(rest, sort_keys=True).encode()).hexdigest()


def largest_residual(report: dict):
    """The largest conjugator residual of a verify report, or None when no pole has one."""
    residuals = [pole["conjugator_residual"] for pole in report["per_pole"]]
    return max((r for r in residuals if r is not None), default=None)


def realised_error(report: dict, oracle):
    """The largest |M - oracle|_F / tol over a verify report's loops, at the default integration tolerance."""
    from fuchsia.jsonio import pairs_to_matrix
    from fuchsia.monodromy import DEFAULT_INTEGRATION_TOL

    gaps = [np.linalg.norm(pairs_to_matrix(got) - want) for got, want in zip(report["monodromy"]["matrices"], oracle)]
    return float(max(gaps)) / DEFAULT_INTEGRATION_TOL


def sweep(seeds) -> list:
    """One record per op of every seed's verify-mixed, exact-gauge and invert-near-identity pools."""
    import workloads

    records = []
    for seed in seeds:
        with tempfile.TemporaryDirectory() as workdir:
            for index, unit in enumerate(workloads.verify_units(seed, workdir)):
                [argv], [out] = unit.argvs, unit.outputs
                code, error, report = _run(argv, out)
                [ok] = workloads.check_verify(unit, [workloads.OpResult(code, 0.0, report, error)])
                parsed = json.loads(report) if report else None
                records.append(
                    {
                        "workload": "verify-mixed",
                        "seed": seed,
                        "unit": index,
                        "class": unit.label,
                        "exit": code,
                        "error": error,
                        "ok": ok,
                        "sha256": hashlib.sha256(report).hexdigest() if report else None,
                        "matrices": parsed["monodromy"]["matrices"] if parsed else None,
                        "error_estimates": parsed["monodromy"]["error_estimates"] if parsed else None,
                        "rest_sha256": rest_digest(parsed) if parsed else None,
                        "verdicts": verify_verdicts(parsed) if parsed else None,
                        "conjugator_residual": largest_residual(parsed) if parsed else None,
                        "realised_error": realised_error(parsed, unit.truth["oracle"])
                        if parsed and unit.truth["oracle"]
                        else None,
                    }
                )
            for index, unit in enumerate(workloads.gauge_units(seed, workdir)):
                runs = [_run(argv, out) for argv, out in zip(unit.argvs, unit.outputs)]
                results = [workloads.OpResult(code, 0.0, report, error) for code, error, report in runs]
                verdicts = workloads.check_gauge(unit, results)
                for op, ((code, error, report), ok) in enumerate(zip(runs, verdicts)):
                    records.append(
                        {
                            "workload": "exact-gauge",
                            "seed": seed,
                            "unit": index,
                            "op": op,
                            "class": unit.label,
                            "exit": code,
                            "error": error,
                            "ok": ok,
                            "sha256": hashlib.sha256(report).hexdigest() if report else None,
                        }
                    )
            for index, unit in enumerate(workloads.invert_units(seed, workdir)):
                [argv], [out] = unit.argvs, unit.outputs
                code, error, report = _run(argv, out)
                [ok] = workloads.check_invert(unit, [workloads.OpResult(code, 0.0, report, error)])
                records.append(
                    {
                        "workload": "invert-near-identity",
                        "seed": seed,
                        "unit": index,
                        "class": unit.label,
                        "exit": code,
                        "error": error,
                        "ok": ok,
                        "sha256": hashlib.sha256(report).hexdigest() if report else None,
                        **invert_fields(json.loads(report) if report else None),
                    }
                )
        print(f"seed {seed}: {sum(not r['ok'] for r in records if r['seed'] == seed)} failed", file=sys.stderr)
    return records


def invert_fields(report) -> dict:
    """An invert report's recovered residues, Gauss-Newton iterations and final residual (None without a report)."""
    if report is None:
        return {"residues": None, "iterations": None, "final_residual": None}
    return {
        "residues": report["system"]["residues"],
        "iterations": report["iterations"],
        "final_residual": report["final_residual"],
    }


def correct(records) -> dict:
    flags = {}
    for r in records:
        flags[r["seed"]] = flags.get(r["seed"], True) and r["ok"]
    return flags


def compare_ops(left, right, workload: str) -> int:
    """Print the ``workload`` ops whose outcome differs between two sweeps and
    how many of their reports' bytes differ; return the number of ops whose
    outcome differs."""

    def ops(records):
        return {(r["seed"], r["unit"], r.get("op")): r for r in records if r.get("workload") == workload}

    def outcome(record):
        return record and (record["exit"], record["error"], record["ok"])

    a, b = ops(left), ops(right)
    if not (a and b):
        print(f"{workload}: not compared, a sweep file has no {workload} records")
        return 0
    differing = sorted(key for key in a.keys() | b.keys() if outcome(a.get(key)) != outcome(b.get(key)))
    for seed, unit, op in differing:
        where = f"{workload} seed {seed} unit {unit}" + ("" if op is None else f" op {op}")
        print(f"{where}: {outcome(a.get((seed, unit, op)))} -> {outcome(b.get((seed, unit, op)))}")
    failed_a, failed_b = (sum(not r["ok"] for r in records.values()) for records in (a, b))
    print(f"{workload} failed ops: {failed_a} -> {failed_b}, {len(differing)} differ")
    changed = sum(key not in b or r["sha256"] != b[key]["sha256"] for key, r in a.items())
    print(f"{workload} report bytes: {changed} of {len(a)} ops differ")
    pairs = [
        (r["residues"], b[key]["residues"], key)
        for key, r in a.items()
        if r.get("residues") and b.get(key, {}).get("residues")
    ]
    if pairs:
        gaps = [(float(np.max(np.abs(np.array(x) - np.array(y)))), key) for x, y, key in pairs]
        gap, where = max(gaps, key=lambda found: found[0])
        print(f"{workload} largest residue gap over {len(pairs)} ops: {gap:.3e}" + (f" at {where[:2]}" if gap else ""))
    solved = [(r, b[key], key) for key, r in a.items() if r.get("iterations") is not None and b.get(key, {}).get("iterations") is not None]
    if solved:
        steps = [(key, x["iterations"], y["iterations"]) for x, y, key in solved if x["iterations"] != y["iterations"]]
        for (seed, unit, _), x, y in steps:
            print(f"{workload} seed {seed} unit {unit} iterations: {x} -> {y}")
        print(f"{workload} iterations: {len(steps)} of {len(solved)} ops differ")
        changes = [
            (abs(y["final_residual"] - x["final_residual"]) / x["final_residual"] if x["final_residual"] else 0.0, key)
            for x, y, key in solved
        ]
        change, where = max(changes, key=lambda found: found[0])
        print(f"{workload} largest relative final-residual change: {change:.3e}" + (f" at {where[:2]}" if change else ""))
    elif pairs:
        print(f"{workload} iterations: not compared, a sweep file has no iterations")
    return len(differing)


def compare_verdicts(left, right) -> int:
    """Print the verify ops whose verdicts differ and each sweep's largest
    conjugator residual and realised error; return the number of ops whose
    verdicts differ."""
    if not all("verdicts" in r for r in left + right):
        print("verdicts: not compared, a sweep file has no verdicts")
        return 0
    theirs = {(r["seed"], r["unit"]): r["verdicts"] for r in right}
    differing = [r for r in left if r["verdicts"] != theirs.get((r["seed"], r["unit"]))]
    for r in differing:
        print(f"seed {r['seed']} unit {r['unit']} verdicts: {r['verdicts']} -> {theirs.get((r['seed'], r['unit']))}")
    print(f"verdicts: {len(differing)} of {len(left)} ops differ")
    for label, records in (("left", left), ("right", right)):
        residuals = [(r["conjugator_residual"], r["seed"], r["unit"]) for r in records if r["conjugator_residual"] is not None]
        if residuals:
            residual, seed, unit = max(residuals)
            print(f"largest conjugator residual ({label}): {residual:.3e} at seed {seed} unit {unit}")
        errors = [(r.get("realised_error"), r["seed"], r["unit"], r["class"]) for r in records]
        errors = [found for found in errors if found[0] is not None]
        if errors:
            error, seed, unit, kind = max(errors)
            print(f"largest realised error / tol ({label}): {error:.3e} at seed {seed} unit {unit} ({kind})")
    return len(differing)


def compare_estimates(left, right):
    """Print how many verify reports differ outside their error estimates, and
    the largest relative change of an estimate between two sweeps and where it occurs."""
    if not all("error_estimates" in r for r in left + right):
        print("error estimates: not compared, a sweep file has no estimates")
        return
    theirs = {(r["seed"], r["unit"]): r for r in right}
    pairs = [(r, theirs[(r["seed"], r["unit"])]) for r in left if (r["seed"], r["unit"]) in theirs]
    rest = sum(x["rest_sha256"] != y["rest_sha256"] for x, y in pairs)
    print(f"report bytes outside the error estimates: {rest} of {len(left)} ops differ")
    changes = [
        (abs(b - a) / abs(a) if a else float(a != b), x["seed"], x["unit"], x["class"])
        for x, y in pairs
        if x["error_estimates"] and y["error_estimates"]
        for a, b in zip(x["error_estimates"], y["error_estimates"], strict=True)
    ]
    if changes:
        change, seed, unit, kind = max(changes)
        print(
            f"largest relative error-estimate change over {len(changes)} estimates: {change:.3e}"
            + (f" at seed {seed} unit {unit} ({kind})" if change else "")
        )


def compare(left, right) -> int:
    """Print the differences between two sweeps; nonzero when failed ops or verdicts differ."""
    from fuchsia.linalg import min_cost_assignment

    both = (left, right)
    # Sweeps written before exact-gauge was swept hold verify-mixed records only.
    left, right = ([r for r in records if r.get("workload", "verify-mixed") == "verify-mixed"] for records in (left, right))

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
    compare_estimates(left, right)
    verdicts_differ = compare_verdicts(left, right)
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
    others = [compare_ops(*both, workload) for workload in ("exact-gauge", "invert-near-identity")]
    return 1 if differing or verdicts_differ or any(others) else 0


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
