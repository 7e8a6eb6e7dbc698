"""Self-check of the harness: ``python3 perfbench/run.py --self-check``.

For each workload, on a few ops of seed 3:

* an untraced run prints exactly the end-to-end metrics of BENCHMARK.json,
  with their units, and a traced run exactly the per-layer metrics;
* two traced runs give identical work counts and report digests, equal to
  the untraced run's digest (tracing does not change any report);
* a deliberately wrong answer is counted as a failed op: a perturbed
  commuting oracle (verify), inverse targets conjugated by a near-identity
  matrix (invert) and the gauge product C@B in place of B@C (gauge).

Exits 0 when every check holds, 1 otherwise.
"""

import argparse
import json
import math
import os
import shutil

import numpy as np

SEED = 3
FEW_UNITS = {"verify-mixed": 4, "invert-near-identity": 1, "exact-gauge": 2}


def _conjugate_targets(wl, units):
    from fuchsia import jsonio

    s = np.array([[1.0, 1e-3], [0.0, 1.0]], dtype=complex)
    s_inv = np.linalg.inv(s)
    for unit in units:
        target = unit.argvs[0][2]
        with open(target, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["matrices"] = [
            jsonio.matrix_to_pairs(s_inv @ jsonio.pairs_to_matrix(m) @ s) for m in doc["matrices"]
        ]
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(jsonio.canonical_json(doc) + "\n")
    return units


def _perturb_oracles(units):
    for unit in units:
        unit.truth["oracle"] = [m + 1e-6 for m in unit.truth["oracle"]]
    return units


def _wrong_answer_override(wl, workload, workdir, few):
    if workload == "verify-mixed":
        return lambda units: _perturb_oracles([u for u in units if u.truth["kind"] == "commuting"][:few])
    if workload == "invert-near-identity":
        return lambda units: _conjugate_targets(wl, units[:few])
    return lambda units: wl.gauge_units(SEED, workdir, wrong_product=True)[:few]


def _names_and_units(expected, result, label, problems):
    metrics, units = result.metrics, result.units
    if list(metrics) != [m["name"] for m in expected]:
        problems.append(f"{label}: metric names {sorted(metrics)} differ from BENCHMARK.json")
    for m in expected:
        value = metrics.get(m["name"])
        if units.get(m["name"]) != m["unit"]:
            problems.append(f"{label}: {m['name']} has unit {units.get(m['name'])!r}, expected {m['unit']!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{label}: {m['name']} = {value!r} is not a finite number")


def main(run, wl, import_s: float) -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    for workload, few in FEW_UNITS.items():
        workdir = os.path.join(run.ROOT, ".bench_work", f"selfcheck-{workload}-p{os.getpid()}")
        os.makedirs(workdir)
        try:
            args = argparse.Namespace(workload=workload, seed=SEED, seconds=0.0, trace=0)
            plain = run.benchmark(args, wl, workdir, import_s, lambda units: units[:few])
            _names_and_units(spec["end_to_end"], plain, f"{workload} untraced", problems)
            args.trace = 1
            first = run.benchmark(args, wl, workdir, import_s, lambda units: units[:few])
            second = run.benchmark(args, wl, workdir, import_s, lambda units: units[:few])
            _names_and_units(spec["per_layer"], first, f"{workload} traced", problems)
            if first.detail["work_counts"] != second.detail["work_counts"]:
                problems.append(f"{workload}: work counts differ between runs: {first.detail['work_counts']} vs {second.detail['work_counts']}")
            digests = {plain.detail["report_digest"], first.detail["report_digest"], second.detail["report_digest"]}
            if len(digests) != 1:
                problems.append(f"{workload}: report digests differ between runs: {sorted(digests)}")
            args.trace = 0
            wrong = run.benchmark(args, wl, workdir, import_s, _wrong_answer_override(wl, workload, workdir, few))
            if wrong.metrics["ok_frac"] != 0.0 or wrong.failed != wrong.attempted:
                problems.append(f"{workload}: wrong answers were not all counted as failures (ok_frac {wrong.metrics['ok_frac']})")
            print(f"{workload}: {plain.attempted} ops checked, digest {plain.detail['report_digest'][:16]}, "
                  f"work counts {first.detail['work_counts']}, wrong-answer ok_frac {wrong.metrics['ok_frac']}")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    for problem in problems:
        print(f"FAIL {problem}")
    print("self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0
