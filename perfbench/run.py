"""End-to-end benchmark of the fuchsia CLI, one closed loop per workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload verify-mixed --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --self-check

A single client in one process and thread runs ops back to back; each op is
one in-process ``fuchsia.cli.main([...])`` call on generated JSON files, so
it covers argument parsing, ``jsonio``, the exit code and the canonical
report.  Every report is checked (see ``workloads.py``).  ``--trace 0``
times the ops with nothing patched and prints the end-to-end metrics, from
each op's best time over a fixed number of whole passes over the pool, in
reference seconds (see ``PROBE_REFERENCE_S``);
``--trace 1`` runs one pass over the input pool with spans recorded around
the package's public functions and prints the per-layer metrics.  The last
line of standard output is the JSON result; the lines before it list every
metric with its unit and sample count, then one ``detail`` JSON object with
the run environment, the report digest, failures by input class and the
deterministic work counts.
"""

import argparse
import os
import sys
import time

_T0 = time.perf_counter()

# Pin native thread pools before numpy loads, so the numbers measure the
# program and not the scheduler.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from fractions import Fraction  # noqa: E402

from spans import LAYERS, Recorder  # noqa: E402

SETUP_REPEATS = 3

# The host's speed drifts by up to 1.4x over minutes with the load of other
# tenants, and fuchsia's ops slow down in step with a fixed probe that uses
# no fuchsia code.  So timed runs report times in reference seconds: an
# op's measured seconds x PROBE_REFERENCE_S / the mean probe time around
# its unit (``window_probe``).  Over 15-second blocks of repeated verify
# units, that cut the variation of the mean op time from 6.7% to 2.1%.
# PROBE_REFERENCE_S is the probe's mean time on the reference machine (see
# README.md), so reference seconds read like seconds there.
PROBE_REFERENCE_S = 1.5e-3
PROBE_SHARE = 0.1  # probe time after each unit, as a share of the unit's op time
PROBE_MIN_S = 0.02  # and at least this long

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "ops_per_s": "1/s",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "monodromy.continue_calls": "count",
    "monodromy.rhs_evals": "count",
    "monodromy.rhs_evals_per_loop": "count",
    "monodromy.continue_s": "s",
    "monodromy.continue_share": "ratio",
    "monodromy.err_over_tol": "ratio",
    "monodromy.estimate_over_err": "ratio",
    "monodromy.product_defect_max": "norm",
    "paths.build_loops_calls": "count",
    "paths.build_loops_s": "s",
    "paths.arc_length": "length",
    "paths.segments": "count",
    "paths.geometry_errors": "count",
    "linalg.eigen_calls": "count",
    "linalg.eigen_s": "s",
    "linalg.jordan_calls": "count",
    "linalg.jordan_s": "s",
    "linalg.similarity_calls": "count",
    "linalg.similarity_s": "s",
    "linalg.expm_calls": "count",
    "linalg.expm_s": "s",
    "system.validate_calls": "count",
    "system.validate_s": "s",
    "inverse.iterations": "count",
    "inverse.loop_integrations_per_iter": "count",
    "inverse.solve_s": "s",
    "inverse.continue_share": "ratio",
    "inverse.seed_err": "norm",
    "inverse.final_residual": "norm",
    "rational.gcd_calls": "count",
    "rational.gcd_s": "s",
    "rational.gcd_share": "ratio",
    "rational.parse_s": "s",
    "rational.max_coeff_bits": "bits",
    "equivalence.gauge_calls": "count",
    "equivalence.gauge_s": "s",
    "jsonio.report_bytes": "bytes",
    "jsonio.io_s": "s",
    "trace.ops": "count",
    "trace.overhead_frac": "ratio",
}
PER_LAYER_UNITS.update({f"{layer}.self_s": "s" for layer in LAYERS})

# The deterministic counts: equal seed and code give equal values.
WORK_COUNTS = (
    "monodromy.rhs_evals",
    "monodromy.continue_calls",
    "inverse.iterations",
    "rational.gcd_calls",
    "rational.max_coeff_bits",
)


@dataclass
class RunResult:
    metrics: dict
    units: dict  # metric name -> unit
    samples: dict  # metric name -> sample count
    correct: bool
    attempted: int
    failed: int
    detail: dict = field(default_factory=dict)


def _import_package():
    if not os.path.isfile(os.path.join(SRC, "fuchsia", "__init__.py")):
        raise SystemExit(f"error: no fuchsia package under {SRC}; run from the root of a checkout")
    sys.path.insert(0, SRC)
    import fuchsia

    if not os.path.abspath(fuchsia.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: imported fuchsia from {fuchsia.__file__}, not from {SRC}")
    import workloads

    return workloads


# ---------------------------------------------------------------- running ops


def run_unit(wl, unit, recorder=None):
    """Run a unit's ops back to back; time only the ``cli.main`` calls."""
    from fuchsia import cli

    results = []
    for argv, out in zip(unit.argvs, unit.outputs):
        if os.path.exists(out):
            os.remove(out)
        stderr = io.StringIO()
        error = None
        with contextlib.redirect_stderr(stderr):
            start = time.perf_counter()
            try:
                code = recorder.call("cli.main", cli.main, argv) if recorder else cli.main(argv)
            except Exception as exc:  # an op that raises is a failed op, not a crashed run
                code, error = -1, f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - start
        report = None
        if os.path.exists(out):
            with open(out, "rb") as fh:
                report = fh.read()
        error = error or (stderr.getvalue().strip().splitlines() or [None])[0]
        results.append(wl.OpResult(code, seconds, report, error))
    return results


def probe() -> float:
    """Seconds for one fixed piece of work: integers, Fractions, 3x3 products."""
    import numpy as np

    start = time.perf_counter()
    acc = 0
    for i in range(5000):
        acc += (i * i) % 7
    q = Fraction(0)
    for i in range(1, 150):
        q += Fraction(i, i + 7)
    turn = np.array([[0.6, -0.8, 0.0], [0.8, 0.6, 0.0], [0.0, 0.0, 1.0]])
    m = np.eye(3)
    for _ in range(300):
        m = m @ turn
    return time.perf_counter() - start


def probe_for(seconds: float) -> list:
    """Probe times, back to back, until ``seconds`` have passed (at least one)."""
    times = [probe()]
    while sum(times) < seconds:
        times.append(probe())
    return times


def probe_burst(seconds: float):
    """Probe for a tenth of ``seconds`` (at least PROBE_MIN_S): (start, end, mean probe time)."""
    began = time.perf_counter()
    times = probe_for(max(PROBE_MIN_S, PROBE_SHARE * seconds))
    return began, time.perf_counter(), statistics.fmean(times)


def window_probe(bursts, start, end, before) -> float:
    """Mean probe time around a unit that ran from ``start`` to ``end``.

    It averages the bursts just before and just after the unit (indices
    ``before`` and ``before + 1``) and every burst that overlaps the unit's
    run widened by its own length on each side, so a long op is compared
    with the host's speed over a span like its own.
    """
    reach = end - start
    chosen = {before, before + 1}
    chosen.update(i for i, (b0, b1, _) in enumerate(bursts) if b1 >= start - reach and b0 <= end + reach)
    return statistics.fmean(bursts[i][2] for i in sorted(chosen))


def run_passes(wl, units, check, passes, setup_burst):
    """``passes`` whole passes over the pool, back to back.

    ``setup_burst`` is the probe burst right after set-up; another runs
    after each unit.  Returns per pass a list of (unit index, result, ok)
    and a list of each op's probe time (``window_probe``), and the wall
    time.  Every op is checked.  The checks read only exit codes and
    reports, so a unit whose exit codes and reports repeat those of an
    earlier run of it keeps that run's verdicts instead of being checked
    again.
    """
    verdicts = {}
    done, runs, bursts = [], [], [setup_burst]
    start = time.perf_counter()
    for _ in range(passes):
        ops = []
        for index, unit in enumerate(units):
            began = time.perf_counter()
            results = run_unit(wl, unit)
            runs.append((began, time.perf_counter(), len(bursts) - 1, len(results)))
            bursts.append(probe_burst(sum(r.seconds for r in results)))
            key = (index, tuple((r.exit_code, r.report) for r in results))
            if key not in verdicts:
                verdicts[key] = [bool(ok) for ok in check(unit, results)]
            ops.extend((index, result, ok) for result, ok in zip(results, verdicts[key]))
        done.append(ops)
    wall = time.perf_counter() - start
    around = [x for b0, b1, before, n in runs for x in [window_probe(bursts, b0, b1, before)] * n]
    per_pass = len(done[0])
    return done, [around[k * per_pass:(k + 1) * per_pass] for k in range(passes)], wall


def tail(times):
    """Nearest-rank 90th percentile; with fewer than 10 samples, the maximum."""
    ordered = sorted(times)
    return ordered[math.ceil(0.9 * len(ordered)) - 1]


def digest(ops) -> str:
    """SHA-256 over exit codes and canonical reports of one pass, in order."""
    h = hashlib.sha256()
    for _, result, _ in ops:
        h.update(f"{result.exit_code}\n".encode())
        h.update(result.report or b"<no report>\n")
    return h.hexdigest()


def failures_by_class(units, ops) -> dict:
    counts = Counter(units[index].label for index, _, ok in ops if not ok)
    return dict(sorted(counts.items()))


def unexpected_failures(units, ops) -> dict:
    """Failures outside the input classes marked as known defects of the seed."""
    counts = Counter(units[i].label for i, _, ok in ops if not ok and not units[i].truth.get("known_defect"))
    return dict(sorted(counts.items()))


def environment(args) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "threads_env": {var: os.environ[var] for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ---------------------------------------------------------------- metrics


def per_layer(wl, units, ops, recorder, overhead) -> dict:
    """Per-layer metrics of one traced pass (totals over the pass)."""
    import numpy as np

    from fuchsia import jsonio

    inclusive, self_time = recorder.summary()
    counts = recorder.counts
    op_seconds = sum(result.seconds for _, result, _ in ops)
    reports = [(units[i], json.loads(r.report)) for i, r, _ in ops if r.report is not None]

    err_over_tol, estimate_over_err, defects = [], [], []
    seed_errs, residuals, iterations, first_forward, bits = [], [], 0, 0, [0]
    for unit, doc in reports:
        kind = doc.get("kind")
        if kind == "verify":
            rep = doc["monodromy"]
            defects.append(rep["product_defect"])
            if unit.truth["kind"] == "commuting":
                for got, want, estimate in zip(rep["matrices"], unit.truth["oracle"], rep["error_estimates"]):
                    err = float(np.linalg.norm(jsonio.pairs_to_matrix(got) - want))
                    err_over_tol.append(err / wl.VERIFY_INTEGRATION_TOL)
                    if err > 0.0:
                        estimate_over_err.append(estimate / err)
        elif kind == "invert":
            iterations += doc["iterations"]
            first_forward += len(doc["system"]["poles"])
            residuals.append(doc["final_residual"])
            seed_errs.append(
                max(
                    float(np.linalg.norm(jsonio.pairs_to_matrix(s) - t))
                    for s, t in zip(doc["seed"], unit.truth["residues"])
                )
            )
    for _, result, _ in ops:
        if result.report is not None and b'"fuchsia-matrix/1"' in result.report:
            bits.append(wl.max_coeff_bits(result.report))

    continue_calls = counts["monodromy.continue_solution"]
    solve_s = inclusive["inverse.solve"]
    solve_loops, solve_loop_s = recorder.within("inverse.solve", "monodromy.continue_solution")
    metrics = {
        "monodromy.continue_calls": continue_calls,
        "monodromy.rhs_evals": counts["monodromy.rhs_evals"],
        "monodromy.rhs_evals_per_loop": counts["monodromy.rhs_evals"] / continue_calls if continue_calls else 0.0,
        "monodromy.continue_s": inclusive["monodromy.continue_solution"],
        "monodromy.continue_share": inclusive["monodromy.continue_solution"] / op_seconds,
        "monodromy.err_over_tol": max(err_over_tol, default=0.0),
        "monodromy.estimate_over_err": statistics.median(estimate_over_err) if estimate_over_err else 0.0,
        "monodromy.product_defect_max": max(defects, default=0.0),
        "paths.build_loops_calls": counts["paths.build_loops"],
        "paths.build_loops_s": inclusive["paths.build_loops"],
        "paths.arc_length": counts["paths.arc_length"],
        "paths.segments": counts["paths.segments"],
        "paths.geometry_errors": counts["paths.geometry_errors"],
        "linalg.eigen_calls": counts["linalg.eigen_decompose"],
        "linalg.eigen_s": inclusive["linalg.eigen_decompose"],
        "linalg.jordan_calls": counts["linalg.jordan_structure"],
        "linalg.jordan_s": inclusive["linalg.jordan_structure"],
        "linalg.similarity_calls": counts["linalg.similarity_transform"],
        "linalg.similarity_s": inclusive["linalg.similarity_transform"],
        "linalg.expm_calls": counts["linalg.matrix_exp"],
        "linalg.expm_s": inclusive["linalg.matrix_exp"],
        "system.validate_calls": counts["system.validate_system"],
        "system.validate_s": inclusive["system.validate_system"],
        "inverse.iterations": iterations,
        "inverse.loop_integrations_per_iter": (solve_loops - first_forward) / iterations if iterations else 0.0,
        "inverse.solve_s": solve_s,
        "inverse.continue_share": solve_loop_s / solve_s if solve_s else 0.0,
        "inverse.seed_err": max(seed_errs, default=0.0),
        "inverse.final_residual": max(residuals, default=0.0),
        "rational.gcd_calls": counts["rational.polynomial_gcd"],
        "rational.gcd_s": inclusive["rational.polynomial_gcd"],
        "rational.gcd_share": inclusive["rational.polynomial_gcd"] / op_seconds,
        "rational.parse_s": inclusive["rational.parse_rational_function"],
        "rational.max_coeff_bits": max(bits),
        "equivalence.gauge_calls": counts["equivalence.gauge_transform"],
        "equivalence.gauge_s": inclusive["equivalence.gauge_transform"],
        "jsonio.report_bytes": sum(len(r.report) for _, r, _ in ops if r.report is not None),
        "jsonio.io_s": inclusive["jsonio.load_json"] + inclusive["jsonio.canonical_json"],
        "trace.ops": len(ops),
        "trace.overhead_frac": overhead,
    }
    metrics.update({f"{layer}.self_s": self_time[layer] for layer in LAYERS})
    return metrics


def _print_result(result: RunResult):
    for name, value in result.metrics.items():
        print(f"{name:<38} {value:>16.6g} {result.units[name]:<6} samples={result.samples.get(name, 1)}")
    print("detail " + json.dumps(result.detail, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": result.correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {
                    name: {"value": value, "unit": result.units[name]} for name, value in result.metrics.items()
                },
            }
        )
    )


# ---------------------------------------------------------------- one run


def benchmark(args, wl, workdir, import_s, units_override=None):
    """Set up, then run untraced (end to end) or traced (per layer).

    ``import_s`` is the time the process took to import the package; it is
    part of set-up but can only be measured once per process.
    """
    make_units, check, pass_seconds = wl.WORKLOADS[args.workload]

    gen_times = []
    for _ in range(SETUP_REPEATS):
        began = time.perf_counter()
        units = make_units(args.seed, workdir)
        gen_times.append(time.perf_counter() - began)
    if units_override is not None:
        units = units_override(units)
    began = time.perf_counter()
    run_unit(wl, units[0])  # warm-up: lazy imports, caches, first-touch pages
    setup_s = import_s + statistics.median(gen_times) + (time.perf_counter() - began)

    detail = {"env": environment(args), "pool_units": len(units)}
    if args.trace:
        return traced(args, wl, units, check, detail)

    setup_burst = probe_burst(setup_s)
    setup_probe_s = setup_burst[2]
    passes, probes, wall = run_passes(wl, units, check, max(1, int(args.seconds // pass_seconds)), setup_burst)
    ops = [op for p in passes for op in p]
    # Each op's time is the best of its passes: noise from other tenants of
    # the host only adds time, so the best try is the steadier estimate.
    measured = [min(p[j][1].seconds for p in passes) for j in range(len(passes[0]))]
    best = [
        min(p[j][1].seconds * PROBE_REFERENCE_S / around[j] for p, around in zip(passes, probes))
        for j in range(len(passes[0]))
    ]
    failed = sum(1 for _, _, ok in ops if not ok)
    unexpected = unexpected_failures(units, ops)
    metrics = {
        "setup_s": setup_s * PROBE_REFERENCE_S / setup_probe_s,
        "op_p50_s": statistics.median(best),
        "op_tail_s": tail(best),
        "ops_per_s": len(best) / sum(best),
        "ok_frac": (len(ops) - failed) / len(ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    all_probes = [x for around in probes for x in around]
    detail.update(
        {
            "passes": len(passes),
            "timed_wall_s": wall,
            "probe_mean_s": statistics.fmean(all_probes),
            "probe_range_s": [min(all_probes), max(all_probes)],
            "setup_probe_s": setup_probe_s,
            "measured_s": {
                "setup_s": setup_s,
                "op_p50_s": statistics.median(measured),
                "op_tail_s": tail(measured),
                "ops_per_s": len(measured) / sum(measured),
                "wall_ops_per_s": len(ops) / wall,
            },
            "pass_op_s": [sum(result.seconds for _, result, _ in p) for p in passes],
            "first_pass_op_s": [round(result.seconds, 4) for _, result, _ in passes[0]],
            "best_op_s": [round(seconds, 4) for seconds in best],
            "setup_parts_s": {"import": import_s, "inputs_median": statistics.median(gen_times)},
            "report_digest": digest(passes[0]),
            "failures_by_class": failures_by_class(units, ops),
            "unexpected_failures": unexpected,
            "first_errors": sorted({r.error for _, r, ok in ops if not ok and r.error}),
        }
    )
    samples = {"setup_s": SETUP_REPEATS, "op_p50_s": len(ops), "op_tail_s": len(ops), "ops_per_s": len(ops), "ok_frac": len(ops)}
    return RunResult(metrics, END_TO_END_UNITS, samples, not unexpected, len(ops), failed, detail)


def traced(args, wl, units, check, detail):
    """One traced pass over the pool, with untraced twins for the overhead.

    The first unit, and every unit that starts within the first third of
    ``--seconds``, also runs
    untraced, right before or right after its traced run (alternating), so
    the overhead compares the same ops at nearly the same time.
    """
    recorder = Recorder()
    ops, untraced_s, traced_s = [], 0.0, 0.0
    began = time.perf_counter()
    for index, unit in enumerate(units):
        twin = index == 0 or time.perf_counter() - began < args.seconds / 3
        if twin and index % 2 == 0:
            untraced_s += sum(r.seconds for r in run_unit(wl, unit))
        with recorder:
            results = run_unit(wl, unit, recorder)
        if twin:
            traced_s += sum(r.seconds for r in results)
        if twin and index % 2 == 1:
            untraced_s += sum(r.seconds for r in run_unit(wl, unit))
        ops.extend((index, result, bool(ok)) for result, ok in zip(results, check(unit, results)))
    overhead = traced_s / untraced_s - 1.0
    metrics = per_layer(wl, units, ops, recorder, overhead)
    failed = sum(1 for _, _, ok in ops if not ok)
    unexpected = unexpected_failures(units, ops)
    detail.update(
        {
            "report_digest": digest(ops),
            "work_counts": {name: metrics[name] for name in WORK_COUNTS},
            "failures_by_class": failures_by_class(units, ops),
            "overhead_untraced_s": untraced_s,
            "spans": len(recorder.spans),
        }
    )
    samples = {name: len(ops) for name in PER_LAYER_UNITS}
    return RunResult(metrics, PER_LAYER_UNITS, samples, not unexpected, len(ops), failed, detail)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("verify-mixed", "invert-near-identity", "exact-gauge"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true", help="check the harness itself and exit")
    args = parser.parse_args(argv)
    wl = _import_package()
    import_s = time.perf_counter() - _T0
    if args.self_check:
        import selfcheck

        return selfcheck.main(sys.modules[__name__], wl, import_s)
    if args.workload is None:
        parser.error("--workload is required")
    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-s{args.seed}-t{args.trace}-p{os.getpid()}")
    os.makedirs(workdir)
    try:
        result = benchmark(args, wl, workdir, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    _print_result(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
