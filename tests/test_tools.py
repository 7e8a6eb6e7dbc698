"""The same-answers check of continuation changes, ``tools/seed_sweep.py``, runs end to end.

One seed is swept and compared with itself in subprocesses, as the tool is
run from a checkout: every comparison reads "0 differ", and the verify and
invert ops record nonzero continuation work counts.
"""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SWEEP = ROOT / "tools" / "seed_sweep.py"


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
    for workload in ("verify-mixed", "invert-near-identity"):
        [terms] = [line for line in lines if line.startswith(f"{workload} terms:")]
        counts = re.fullmatch(rf"{workload} terms: matrix_terms (\d+) -> \1, hop_terms (\d+) -> \2; 0 of \d+ ops differ", terms)
        assert counts, terms
        assert int(counts[1]) > 0 and int(counts[2]) > int(counts[1])
