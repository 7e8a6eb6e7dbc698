"""Sweep the verify-mixed, exact-gauge and invert-near-identity pools over many seeds, and compare two sweeps.

Run from the root of a checkout (the package is imported from ``src/``):

    python3 tools/seed_sweep.py --seeds 0-420 --out sweep.json
    python3 tools/seed_sweep.py --compare parent.json change.json

A sweep makes one pass of the benchmark's verify-mixed, exact-gauge and
invert-near-identity pools (``perfbench/workloads.py``, imported as it is)
for each seed, and writes every op's exit code, input class, first error
line, check verdict and the SHA-256 of its report's bytes; for
invert-near-identity also the recovered residues, the solver's
``iterations``, the ``final_residual``, the ``truth_gap``, the largest
entrywise gap between the recovered residues and the truth, and the
``seed_gap``, the same gap for the report's ``seed``; for verify-mixed and
invert-near-identity each op's work counts, its continuation kernel's
``matrix_terms`` (calls of ``fuchsia.monodromy._taylor_term``) and
``hop_terms`` (the hops those calls advance, summed); for
invert-near-identity also its ``continuations``, the solver's calls of
the kernel by kind: ``variational`` (M_j with the Jacobian) and ``plain``
(M_j alone); for verify-mixed also the exit code and report SHA-256 of
``check`` and of ``galois`` run on each op's system, each seed's
``correct`` flag (every verify op passes its check), the loop matrices
and ``error_estimates`` of every report, the SHA-256 of the
rest of the report (without the estimates and each pole's
``monodromy_error``, their copies), its verdicts (``overall`` and, per pole,
``spectrum_match``, ``structure_match``, ``ok`` and ``non_resonant``), its
largest ``conjugator_residual`` and, for the commuting classes, its realised
error: the largest |M - oracle|_F / tol over its loops, against the
closed-form monodromy of ``unit.truth["oracle"]`` at the default integration
tolerance.  ``--compare`` prints the failed verify-mixed ops that differ
between two sweeps, the seeds whose ``correct`` differs, how many ops' report
bytes differ and how many differ outside the error estimates, how many
check and galois reports differ in exit code and in bytes, the verify
ops whose verdicts differ, the largest conjugator residual and realised
error of each sweep and where they occur, the largest relative change of
an error estimate and where it occurs, and the largest gaps between their
loop matrices: entrywise, entrywise over the commuting classes, and between
matched eigenvalues; then, for exact-gauge and for
invert-near-identity, the ops whose exit code, error or verdict differ, and
how many of their reports' bytes differ, and for invert-near-identity the
largest entrywise gap between the recovered residues, each side's largest
gap to the truth and largest seed gap to the truth, the number of ops for each pair of iteration counts
(left -> right), each side's total iterations, the ops whose iterations
rose and the largest relative change of the final residual; and, for
verify-mixed and invert-near-identity, the total matrix and hop terms of
each sweep, how many ops' counts differ and the ops whose counts rose; and
for invert-near-identity each sweep's total variational and plain
continuations, how many ops' counts differ and the ops whose variational
or total count rose.  Where the iterations, the terms or the
continuations rose in every op, as when the solver changes, the rises are
counted, not named op by op.  A
change to continuation or
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
import importlib
import io
import json
import os
import sys
import tempfile
from collections import Counter

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


@contextlib.contextmanager
def term_counts():
    """Count the continuation kernel's matrix terms and hop terms while the block runs.

    ``fuchsia.monodromy._taylor_term`` advances one matrix term of a batch of
    hops; it is wrapped for the block and restored after.  Yields the dict
    ``{"matrix_terms": calls, "hop_terms": batch widths summed}``.
    """
    # The package attribute ``fuchsia.monodromy`` is a function, so the module comes from importlib.
    module = importlib.import_module("fuchsia.monodromy")
    original = module._taylor_term
    counts = {"matrix_terms": 0, "hop_terms": 0}

    def counted(operator, g, stack, term, sums, k):
        counts["matrix_terms"] += 1
        counts["hop_terms"] += g.shape[-1]
        return original(operator, g, stack, term, sums, k)

    module._taylor_term = counted
    try:
        yield counts
    finally:
        module._taylor_term = original


@contextlib.contextmanager
def continuation_counts():
    """Count the inverse solver's continuations while the block runs, by kind.

    ``fuchsia.inverse._integrate_legs`` is wrapped for the block and
    restored after.  A call that continues fewer columns than its field
    has rows (m < N) continues a variational system, and one with m = N
    the plain n x n system.  Yields ``{"variational": calls, "plain": calls}``.
    """
    module = importlib.import_module("fuchsia.inverse")
    original = module._integrate_legs
    counts = {"variational": 0, "plain": 0}

    def counted(field, cut, m, tol):
        counts["variational" if field.dimension > m else "plain"] += 1
        return original(field, cut, m, tol)

    module._integrate_legs = counted
    try:
        yield counts
    finally:
        module._integrate_legs = original


# The reports run on every verify-mixed system besides verify itself.
REPORT_KINDS = ("check", "galois")


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
                with term_counts() as terms:
                    code, error, report = _run(argv, out)
                [ok] = workloads.check_verify(unit, [workloads.OpResult(code, 0.0, report, error)])
                parsed = json.loads(report) if report else None
                system = argv[argv.index("verify") + 1]
                reports = {}
                for kind in REPORT_KINDS:
                    kind_out = f"{out}.{kind}.json"
                    kind_code, _, kind_report = _run(["--quiet", kind, system, "--json", kind_out], kind_out)
                    digest = hashlib.sha256(kind_report).hexdigest() if kind_report else None
                    reports[kind] = {"exit": kind_code, "sha256": digest}
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
                        **terms,
                        **reports,
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
                with term_counts() as terms, continuation_counts() as continuations:
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
                        **invert_fields(json.loads(report) if report else None, unit.truth["residues"]),
                        **terms,
                        "continuations": continuations,
                    }
                )
        print(f"seed {seed}: {sum(not r['ok'] for r in records if r['seed'] == seed)} failed", file=sys.stderr)
    return records


def invert_fields(report, truth) -> dict:
    """An invert report's recovered residues, iterations, final residual,
    ``truth_gap``, the largest entrywise gap between its residues and the
    ``truth``, and ``seed_gap``, the same for its seed (None without a report)."""
    if report is None:
        return {"residues": None, "iterations": None, "final_residual": None, "truth_gap": None, "seed_gap": None}
    residues = report["system"]["residues"]

    def gap(matrices):
        return max(float(np.max(np.abs(np.array(got) @ [1.0, 1j] - want))) for got, want in zip(matrices, truth))

    return {
        "residues": residues,
        "iterations": report["iterations"],
        "final_residual": report["final_residual"],
        "truth_gap": gap(residues),
        "seed_gap": gap(report["seed"]),
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
    for field, what in (("truth_gap", "gap to the truth"), ("seed_gap", "seed gap to the truth")):
        for label, records in (("left", a), ("right", b)):
            gaps = [(r[field], key) for key, r in records.items() if r.get(field) is not None]
            if gaps:
                gap, where = max(gaps, key=lambda found: found[0])
                print(f"{workload} largest {what} ({label}) over {len(gaps)} ops: {gap:.3e} at {where[:2]}")
    solved = [(r, b[key], key) for key, r in a.items() if r.get("iterations") is not None and b.get(key, {}).get("iterations") is not None]
    if solved:
        steps = Counter((x["iterations"], y["iterations"]) for x, y, _ in solved)
        for (x, y), count in sorted(steps.items()):
            print(f"{workload} iterations {x} -> {y}: {count} ops")
        differing_steps = sum(count for (x, y), count in steps.items() if x != y)
        rose = [
            f"{workload} seed {seed} unit {unit} iterations rose: {x['iterations']} -> {y['iterations']}"
            for x, y, (seed, unit, _) in solved
            if y["iterations"] > x["iterations"]
        ]
        print_rises(rose, len(solved), f"{workload} iterations")
        before, after = (sum(r[side]["iterations"] for r in solved) for side in (0, 1))
        print(f"{workload} iteration total: {before} -> {after}")
        print(f"{workload} iterations: {differing_steps} of {len(solved)} ops differ")
        changes = [
            (abs(y["final_residual"] - x["final_residual"]) / x["final_residual"] if x["final_residual"] else 0.0, key)
            for x, y, key in solved
        ]
        change, where = max(changes, key=lambda found: found[0])
        print(f"{workload} largest relative final-residual change: {change:.3e}" + (f" at {where[:2]}" if change else ""))
    elif pairs:
        print(f"{workload} iterations: not compared, a sweep file has no iterations")
    return len(differing)


def print_rises(lines, total: int, what: str):
    """Print the line of each op whose count rose, or, when every one of the ``total`` ops rose, one count line."""
    if lines and len(lines) == total:
        print(f"{what} rose: {total} of {total} ops")
    else:
        for line in lines:
            print(line)


def compare_terms(left, right, workload: str):
    """Print each sweep's total matrix and hop terms on ``workload``, how many ops' counts differ, and the ops whose counts rose."""
    a, b = (
        {(r["seed"], r["unit"]): r for r in records if r.get("workload", "verify-mixed") == workload}
        for records in (left, right)
    )
    if not (a and b) or not all("matrix_terms" in r for r in [*a.values(), *b.values()]):
        print(f"{workload} terms: not compared, a sweep file has no term counts")
        return
    kinds = ("matrix_terms", "hop_terms")
    differing = sorted(key for key in a.keys() & b.keys() if any(a[key][kind] != b[key][kind] for kind in kinds))
    rose = [
        f"{workload} seed {seed} unit {unit} terms: " + ", ".join(f"{kind} {a[seed, unit][kind]} -> {b[seed, unit][kind]}" for kind in kinds)
        for seed, unit in differing
        if any(b[seed, unit][kind] > a[seed, unit][kind] for kind in kinds)
    ]
    print_rises(rose, len(a.keys() & b.keys()), f"{workload} terms")
    totals = ", ".join(f"{kind} {sum(r[kind] for r in a.values())} -> {sum(r[kind] for r in b.values())}" for kind in kinds)
    print(f"{workload} terms: {totals}; {len(differing)} of {len(a.keys() & b.keys())} ops differ")


def compare_continuations(left, right, workload: str):
    """Print each sweep's total variational and plain continuations on ``workload``,
    how many ops' counts differ, and the ops whose variational count or
    whose total count rose (a plain continuation that replaces a
    variational one is not named)."""
    a, b = (
        {(r["seed"], r["unit"]): r["continuations"] for r in records if r.get("workload") == workload and "continuations" in r}
        for records in (left, right)
    )
    if not (a and b):
        print(f"{workload} continuations: not compared, a sweep file has no continuation counts")
        return
    kinds = ("variational", "plain")
    both = sorted(a.keys() & b.keys())
    differing = sum(a[key] != b[key] for key in both)
    rose = [
        f"{workload} seed {seed} unit {unit} continuations rose: " + ", ".join(f"{kind} {x[kind]} -> {y[kind]}" for kind in kinds)
        for (seed, unit), x, y in ((key, a[key], b[key]) for key in both)
        if y["variational"] > x["variational"] or sum(y.values()) > sum(x.values())
    ]
    print_rises(rose, len(both), f"{workload} continuations")
    totals = ", ".join(f"{kind} {sum(c[kind] for c in a.values())} -> {sum(c[kind] for c in b.values())}" for kind in kinds)
    print(f"{workload} continuations: {totals}; {differing} of {len(both)} ops differ")


def compare_reports(left, right, kind: str) -> int:
    """Print how many verify-mixed systems' ``kind`` reports differ in exit
    code and in bytes between two sweeps; return the number whose exit code differs."""
    a, b = ({(r["seed"], r["unit"]): r[kind] for r in records if kind in r} for records in (left, right))
    if not (a and b):
        print(f"{kind} reports: not compared, a sweep file has no {kind} reports")
        return 0
    exits = sum(key not in b or r["exit"] != b[key]["exit"] for key, r in a.items())
    changed = sum(key not in b or r["sha256"] != b[key]["sha256"] for key, r in a.items())
    print(f"{kind} exit codes: {exits} of {len(a)} ops differ")
    print(f"{kind} report bytes: {changed} of {len(a)} ops differ")
    return exits


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
    """Print the differences between two sweeps; nonzero when failed ops, verdicts or check and galois exit codes differ."""
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
    reports_differ = [compare_reports(left, right, kind) for kind in REPORT_KINDS]
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
    for workload in ("verify-mixed", "invert-near-identity"):
        compare_terms(*both, workload)
    compare_continuations(*both, "invert-near-identity")
    return 1 if differing or verdicts_differ or any(others) or any(reports_differ) else 0


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
