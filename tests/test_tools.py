"""The same-answers check of continuation changes, ``tools/seed_sweep.py``, and the inverse scaling tool run end to end.

One seed is swept and compared with itself in subprocesses, as the tool is
run from a checkout: every comparison reads "0 differ", the check and
galois reports of all 40 verify-mixed systems among them, and the verify and
invert ops record nonzero continuation work counts, the invert ops also
their variational and plain continuations and their own and their seeds'
gaps to the truth.
Hand-written sweep files check the invert summaries of ``--compare``: ops
per pair of iteration counts, each side's total, and single ops only where
counts rose, or one count where they rose in every op.
``tools/inverse_scaling.py`` solves its N = 18 fixture,
``tools/far_pool.py`` solves a draw that converges fast, and
``tools/call_count.py`` prints the same call counts twice.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SWEEP = ROOT / "tools" / "seed_sweep.py"
SCALING = ROOT / "tools" / "inverse_scaling.py"
FAR_POOL = ROOT / "tools" / "far_pool.py"
CALL_COUNT = ROOT / "tools" / "call_count.py"


def run_sweep(*args):
    return subprocess.run([sys.executable, str(SWEEP), *args], cwd=ROOT, capture_output=True, text=True, timeout=120)


def test_seed_sweep_compares_a_sweep_with_itself(tmp_path):
    out = tmp_path / "sweep.json"
    swept = run_sweep("--seeds", "0-0", "--out", str(out))
    assert swept.returncode == 0, swept.stderr
    compared = run_sweep("--compare", str(out), str(out))
    assert compared.returncode == 0, compared.stderr
    lines = compared.stdout.splitlines()
    differ = [line for line in lines if "differ" in line]
    assert len(differ) >= 9
    for line in differ:
        assert re.search(r"(?:^|\s)0 (?:of \d+ ops )?differ$", line), line
    for kind in ("check", "galois"):
        assert f"{kind} exit codes: 0 of 40 ops differ" in lines
        assert f"{kind} report bytes: 0 of 40 ops differ" in lines
    for workload in ("verify-mixed", "invert-near-identity"):
        [terms] = [line for line in lines if line.startswith(f"{workload} terms:")]
        counts = re.fullmatch(rf"{workload} terms: matrix_terms (\d+) -> \1, hop_terms (\d+) -> \2; 0 of \d+ ops differ", terms)
        assert counts, terms
        assert int(counts[1]) > 0 and int(counts[2]) > int(counts[1])
    [continued] = [line for line in lines if line.startswith("invert-near-identity continuations:")]
    counts = re.fullmatch(r"invert-near-identity continuations: variational (\d+) -> \1, plain (\d+) -> \2; 0 of 4 ops differ", continued)
    assert counts and int(counts[2]) > 0, continued
    gaps = [line for line in lines if line.startswith("invert-near-identity largest gap to the truth")]
    assert len(gaps) == 2, lines
    for gap in gaps:
        found = re.fullmatch(r"invert-near-identity largest gap to the truth \((?:left|right)\) over 4 ops: (\S+) at \(0, \d\)", gap)
        assert found and 0.0 < float(found[1]) <= 1e-6, gap
    seeds = [line for line in lines if line.startswith("invert-near-identity largest seed gap to the truth")]
    assert len(seeds) == 2, lines
    for gap in seeds:
        found = re.fullmatch(r"invert-near-identity largest seed gap to the truth \((?:left|right)\) over 4 ops: (\S+) at \(0, \d\)", gap)
        assert found and 0.0 < float(found[1]) <= 1e-3, gap


def test_compare_counts_iteration_pairs_and_lists_only_rises(tmp_path):
    """``--compare`` counts the invert ops of each ``left -> right`` pair of
    iteration counts, totals each side, and names single ops only where
    iterations or term counts rose."""

    def record(unit, iterations, terms):
        return {
            "workload": "invert-near-identity",
            "seed": 0,
            "unit": unit,
            "class": "near-identity/p3/n2",
            "exit": 0,
            "error": None,
            "ok": True,
            "sha256": f"{unit}-{iterations}",
            "residues": [[[[0.0, 0.0]]]],
            "iterations": iterations,
            "final_residual": 1e-9,
            "matrix_terms": terms,
            "hop_terms": 10 * terms,
        }

    paths = []
    for name, runs in (("left", [(3, 90), (3, 90), (2, 60)]), ("right", [(2, 60), (2, 60), (3, 90)])):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps([record(unit, *run) for unit, run in enumerate(runs)]))
    compared = run_sweep("--compare", *map(str, paths))
    assert compared.returncode == 0, compared.stderr
    lines = [line for line in compared.stdout.splitlines() if line.startswith("invert-near-identity")]
    assert "invert-near-identity iterations 2 -> 3: 1 ops" in lines
    assert "invert-near-identity iterations 3 -> 2: 2 ops" in lines
    assert "invert-near-identity iteration total: 8 -> 7" in lines
    assert "invert-near-identity iterations: 3 of 3 ops differ" in lines
    assert [line for line in lines if "rose" in line] == ["invert-near-identity seed 0 unit 2 iterations rose: 2 -> 3"]
    assert [line for line in lines if " unit " in line and "terms:" in line] == [
        "invert-near-identity seed 0 unit 2 terms: matrix_terms 60 -> 90, hop_terms 600 -> 900"
    ]
    assert "invert-near-identity terms: matrix_terms 240 -> 210, hop_terms 2400 -> 2100; 3 of 3 ops differ" in lines


def test_compare_totals_continuations_and_names_only_rises(tmp_path):
    """``--compare`` totals each side's variational and plain continuations
    and names an op only where its variational or its total count rose:
    a plain continuation in place of a variational one is not named."""

    def record(unit, variational, plain):
        return {
            "workload": "invert-near-identity",
            "seed": 0,
            "unit": unit,
            "class": "near-identity/p3/n2",
            "exit": 0,
            "error": None,
            "ok": True,
            "sha256": f"{unit}",
            "continuations": {"variational": variational, "plain": plain},
        }

    paths = []
    for name, runs in (("left", [(3, 0), (3, 0), (2, 1), (2, 1)]), ("right", [(2, 1), (3, 0), (3, 1), (2, 2)])):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps([record(unit, *run) for unit, run in enumerate(runs)]))
    compared = run_sweep("--compare", *map(str, paths))
    assert compared.returncode == 0, compared.stderr
    lines = [line for line in compared.stdout.splitlines() if "continuations" in line]
    assert lines == [
        "invert-near-identity seed 0 unit 2 continuations rose: variational 2 -> 3, plain 1 -> 1",
        "invert-near-identity seed 0 unit 3 continuations rose: variational 2 -> 2, plain 1 -> 2",
        "invert-near-identity continuations: variational 10 -> 10, plain 2 -> 4; 3 of 4 ops differ",
    ]


def test_compare_counts_rises_that_every_op_shows(tmp_path):
    """Where the iterations and the continuations rose in every op, ``--compare``
    prints one count line for each, not one line per op."""

    def record(unit, iterations, variational, plain):
        return {
            "workload": "invert-near-identity",
            "seed": 0,
            "unit": unit,
            "class": "near-identity/p3/n2",
            "exit": 0,
            "error": None,
            "ok": True,
            "sha256": f"{unit}-{iterations}",
            "residues": [[[[0.0, 0.0]]]],
            "iterations": iterations,
            "final_residual": 1e-9,
            "continuations": {"variational": variational, "plain": plain},
        }

    paths = []
    for name, runs in (("left", [(2, 2, 1)] * 3), ("right", [(4, 0, 5), (5, 0, 6), (3, 0, 4)])):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps([record(unit, *run) for unit, run in enumerate(runs)]))
    compared = run_sweep("--compare", *map(str, paths))
    assert compared.returncode == 0, compared.stderr
    assert [line for line in compared.stdout.splitlines() if "rose" in line] == [
        "invert-near-identity iterations rose: 3 of 3 ops",
        "invert-near-identity continuations rose: 3 of 3 ops",
    ]


def test_far_pool_solves_a_fast_draw():
    """Draw 0 of the far pool (3 poles, 2x2, scale 0.3) converges by
    Gauss-Newton with no warning, its line names the digest of its residues,
    their largest gap to the drawn residues and its continuations by kind,
    and the totals line counts it."""
    ran = subprocess.run([sys.executable, str(FAR_POOL), "--draws", "0"], cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert ran.returncode == 0, ran.stderr
    draw, totals = ran.stdout.splitlines()
    assert re.fullmatch(r"draw 0 \(P = 3, n = 2\): converged in 3 iterations, residues [0-9a-f]{12}, largest gap \d\.\d\de-1\d to the drawn, 3 variational \+ 3 plain continuations \[\S+ s\]", draw), draw
    assert totals == "1 of 1 converged, 0 warned, 0 raised a non-FuchsiaError"


def test_inverse_scaling_solves_the_smallest_fixture(tmp_path):
    out = tmp_path / "scaling.json"
    ran = subprocess.run(
        [sys.executable, str(SCALING), "--sizes", "18", "--repeats", "1", "--out", str(out)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert ran.returncode == 0, ran.stderr
    assert ran.stdout.startswith("N = 18 (3 poles, 2x2): solve ")
    [result] = json.loads(out.read_text())
    assert result["N"] == 18 and result["converged"]
    assert result["iterations"] == 2
    assert result["continuations"] == {"variational": 0, "plain": 3}
    assert result["residue_error"] <= 1e-9


def test_call_count_repeats_exactly():
    """Two runs of ``tools/call_count.py`` on the invert pool of seed 0
    print the same calls per op, one line per op and a mean line."""
    runs = [
        subprocess.run(
            [sys.executable, str(CALL_COUNT), "--workload", "invert-near-identity", "--seed", "0"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
        )
        for _ in range(2)
    ]
    for ran in runs:
        assert ran.returncode == 0, ran.stderr
    assert runs[0].stdout == runs[1].stdout
    *ops, mean = runs[0].stdout.splitlines()
    assert len(ops) == 4
    for index, line in enumerate(ops):
        counts = re.fullmatch(rf"op {index} near-identity/p3/n2: (\d+) calls \((\d+) Python, (\d+) C\)", line)
        assert counts and int(counts[1]) == int(counts[2]) + int(counts[3]) > 0, line
    assert re.fullmatch(r"invert-near-identity seed 0: \d+\.\d calls per op over 4 ops", mean), mean
