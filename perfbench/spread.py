"""Run-to-run spread of the end-to-end metrics, and repeatability of outputs.

    python3 perfbench/spread.py --seeds 1-10 --sets 2 [--workload NAME ...]

Runs ``perfbench/run.py`` once per workload, seed and set, one process at a
time.  For each set and metric it prints the median and the distance between
the first and third quartiles (``statistics.quantiles(values, n=4)``) as a
share of the median, flags a spread above a third of the metric's bound, and
flags a second-set median that is worse than the first by more than the
bound.  Runs of one seed in different sets must give the same report digest.
Each set also makes one traced run on the first seed, and those runs must
give the same deterministic work counts.  The raw output of every run is
kept under ``.bench_work/spread``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def _run(workload, seed, seconds, trace, log_dir, tag):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True).stdout
    with open(os.path.join(log_dir, f"{workload}-s{seed}-t{trace}-{tag}.txt"), "w", encoding="utf-8") as fh:
        fh.write(out)
    lines = out.strip().splitlines()
    detail = json.loads(lines[-2].removeprefix("detail "))
    return json.loads(lines[-1]), detail


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args()
    log_dir = os.path.join(ROOT, ".bench_work", "spread")
    os.makedirs(log_dir, exist_ok=True)
    bad = []
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        sets = []
        counts = []
        for k in range(args.sets):
            sets.append({s: _run(workload, s, spec["run_seconds"], 0, log_dir, f"set{k}") for s in args.seeds})
            if args.sets > 1:
                counts.append(_run(workload, args.seeds[0], spec["run_seconds"], 1, log_dir, f"set{k}")[1]["work_counts"])
        if any(c != counts[0] for c in counts):
            bad.append(f"{workload} seed {args.seeds[0]}: work counts differ between sets: {counts}")
        for seed in args.seeds:
            digests = {runs[seed][1]["report_digest"] for runs in sets}
            if len(digests) > 1:
                bad.append(f"{workload} seed {seed}: report digests differ between sets")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            row, medians = [], []
            for k, runs in enumerate(sets):
                values = [runs[s][0]["metrics"][name]["value"] for s in args.seeds]
                median = statistics.median(values)
                q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
                share = (q3 - q1) / median if median else 0.0
                flag = "" if name == "setup_s" or share <= bound / 3 else " WIDE"
                if name != "setup_s" and share > bound:
                    bad.append(f"{workload} set {k}: {name} spread {share:.3f} above bound {bound}")
                row.append(f"set{k} median {median:.6g} spread {share:.3f}{flag}")
                medians.append(median)
            for later in medians[1:]:
                worse = (later - medians[0]) / medians[0]
                if (worse if metric["better"] == "lower" else -worse) > bound:
                    bad.append(f"{workload}: {name} median moved by {worse:+.3f} between sets (bound {bound})")
            print(f"{workload:<22} {name:<12} bound {bound:<5} " + " | ".join(row))
        seen = sorted({(r[0]["correct"], r[0]["metrics"]["ok_frac"]["value"]) for runs in sets for r in runs.values()})
        print(f"{workload:<22} (correct, ok_frac) seen: {seen}; work counts {counts[:1]}")
    for line in bad:
        print(f"FAIL {line}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
