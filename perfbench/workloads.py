"""Seeded inputs and correctness checks for the three benchmark workloads.

Each workload turns a seed into a fixed pool of "units".  A unit is one or
more CLI argument lists that run back to back, followed by a check that
decides, for every op of the unit, whether its answer is right.  A timed
run repeats the whole pool a fixed number of times (see ``WORKLOADS``), so
its op mix does not depend on the machine's speed.

verify-mixed      one ``fuchsia verify`` op per unit; two draws of each of
                  20 input classes (pole layout x residue kind x size), with
                  seeded coordinates and residues.
invert-near-identity
                  one ``fuchsia invert`` op per unit on a monodromy report
                  computed in set-up at tol 1e-10 (criterion-4 class).
exact-gauge       five ``fuchsia convert`` ops per unit that test the right
                  gauge action and the module round trip by exact equality;
                  a fixed reference pool, turned by seeded symmetries.
"""

import cmath
import json
import math
import os
import re
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from fuchsia import cli, jsonio
from fuchsia.equivalence import (
    RationalMatrix,
    module_from_matrix,
    rational_matrix_from_dict,
    rational_matrix_to_dict,
)
from fuchsia.rational import (
    CR_I,
    CR_ONE,
    RF_ONE,
    RF_ZERO,
    ComplexRational,
    Polynomial,
    RationalFunction,
)

VERIFY_INTEGRATION_TOL = 1e-9  # the CLI default, recorded for err_over_tol
VERIFY_DEFECT_LIMIT = 1e-6
ORACLE_LIMIT = 1e-7
INVERT_ARGS = ("--tol", "1e-8", "--max-iter", "25")
INVERT_RESIDUAL_LIMIT = 1e-8
INVERT_ENTRY_LIMIT = 1e-6

# The verify-mixed classes: (layout, residue kind, pole count, dimension).
# Pool entry k is VERIFY_SCHEDULE[k % 4][k // 4 % 5], so consecutive ops
# rotate through the layouts.  The classes keep the seed's known failures:
# collinear layouts with 5 or more poles raise GeometryError, and the 4- and
# 6-pole unit-circle layouts (a pole at -1 + 1.2e-16i) have a product defect
# of order 1.  Generic residues need 3 or more poles to be non-commuting.
# Class costs at the seed run from 0.002 s (GeometryError) to 1.6 s
# (clustered); the mix puts the op-time median inside a run of classes of
# similar cost (0.36 to 0.41 s), not in a gap between two cost groups,
# where the median would jump by a third between seeds.
VERIFY_SCHEDULE = (
    (("disk", "commuting", 3, 2), ("disk", "generic", 4, 3), ("disk", "generic", 3, 3),
     ("disk", "commuting", 2, 4), ("disk", "generic", 5, 4)),
    (("circle", "commuting", 3, 3), ("circle", "generic", 4, 2), ("circle", "commuting", 5, 2),
     ("circle", "generic", 6, 3), ("circle", "commuting", 2, 3)),
    (("collinear", "commuting", 2, 3), ("collinear", "generic", 3, 2),
     ("collinear", "commuting", 4, 4), ("collinear", "generic", 5, 2),
     ("collinear", "commuting", 6, 3)),
    (("clustered", "generic", 3, 2), ("clustered", "commuting", 4, 3),
     ("clustered", "generic", 5, 2), ("clustered", "commuting", 2, 2),
     ("clustered", "generic", 4, 4)),
)
VERIFY_CYCLE = len(VERIFY_SCHEDULE) * len(VERIFY_SCHEDULE[0])
VERIFY_POOL = 2 * VERIFY_CYCLE  # two draws per class smooth the op-time median

# The invert pool: one unit per pole triangle.  A seed turns each triangle by
# an angle of at most INVERT_TURN radians and conjugates a fixed reference
# set of residues by a seeded unitary matrix.  Conjugation keeps the norms
# the integrator and the solver look at, so every op takes 3 Gauss-Newton
# iterations and the A(z) evaluations per op vary by about 5% between seeds.
# Fully random instances take 2 or 3 iterations and 130k to 210k
# evaluations, which moves the median op time by some 20% between seeds.
INVERT_TRIANGLES = (
    (1.2 + 0.3j, -0.9 + 1.1j, -0.4 - 1.3j),
    (0.5 + 1.4j, -1.5 - 0.2j, 0.9 - 1.0j),
    (1.6 - 0.4j, -0.3 + 0.9j, -1.0 - 1.1j),
    (-1.4 + 0.6j, 0.2 - 1.5j, 1.1 + 1.0j),
)
INVERT_TURN = 0.2

# The gauge pool: one fixed reference set of matrices A and gauges B, C
# (GAUGE_SIZES, drawn from a fixed generator with fixed degrees and
# denominators per entry).  A seed changes every unit by symmetries that
# keep the work of each op: complex conjugation of every coefficient, and
# conjugation of A, B and C by a diagonal matrix of units (1, i, -1, -i).
# Both commute with the gauge action and keep every bit length.  With
# random coefficients of the same shapes, a unit's time varied by up to
# 1.5x between seeds and a pool's by about 10%.
GAUGE_SIZES = (2, 2, 2, 2)


@dataclass
class Unit:
    """Ops that run back to back, and the data their check needs."""

    label: str  # the input class, used to attribute failures
    argvs: list  # one CLI argument list per op
    outputs: list  # the --json path each op writes
    truth: dict = field(default_factory=dict)


@dataclass
class OpResult:
    exit_code: int
    seconds: float
    report: bytes | None  # raw canonical report, None when none was written
    error: str | None = None


# ---------------------------------------------------------------- inputs


def _write(path: str, doc: dict) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(jsonio.canonical_json(doc) + "\n")
    return path


def _separated(points, separation: float) -> bool:
    return all(
        abs(points[i] - points[j]) >= separation
        for i in range(len(points))
        for j in range(i + 1, len(points))
    )


def _disk_poles(rng, n, radius=2.0, separation=0.5):
    while True:
        pts = rng.uniform(-radius, radius, size=(n, 2))
        poles = [complex(x, y) for x, y in pts]
        if all(abs(p) <= radius for p in poles) and _separated(poles, separation):
            return poles


def _layout(rng, layout: str, n: int):
    if layout == "disk":
        return _disk_poles(rng, n)
    if layout == "circle":
        # Exact roots of unity: the seed's product-defect case lives here.
        return [cmath.exp(2j * math.pi * k / n) for k in range(n)]
    if layout == "collinear":
        while True:
            xs = sorted(rng.uniform(-2.0, 2.0, size=n))
            poles = [complex(x, 0.0) for x in xs]
            if _separated(poles, 0.5):
                return poles
    if layout == "clustered":
        poles = _disk_poles(rng, n - 1) if n > 2 else [complex(rng.uniform(-1, 1), 0.0)]
        anchor = poles[int(rng.integers(0, len(poles)))]
        poles.append(anchor + 1e-3 * cmath.exp(1j * rng.uniform(0, 2 * math.pi)))
        return poles
    raise ValueError(f"unknown layout {layout!r}")


def _commuting_residues(rng, p, n):
    """Simultaneously diagonal real residues and their closed-form monodromy."""
    while True:
        diags = rng.uniform(-0.45, 0.45, size=(n - 1, p))
        last = -diags.sum(axis=0)
        if np.all(np.abs(last) < 0.45):
            break
    entries = np.vstack([diags, last[None, :]])
    residues = [np.diag(e.astype(complex)) for e in entries]
    oracle = [np.diag(np.exp(2j * math.pi * e)) for e in entries]
    return residues, oracle


def _generic_residues(rng, p, n, bound=0.4):
    """Non-commuting non-resonant residues, 2-norm at most ``bound``."""
    while True:
        mats = [rng.normal(size=(p, p)) + 1j * rng.normal(size=(p, p)) for _ in range(n - 1)]
        mats = [0.5 * bound * m / max(1.0, np.linalg.norm(m, 2)) for m in mats]
        last = -sum(mats)
        if np.linalg.norm(last, 2) > bound:
            continue
        residues = mats + [last]
        if np.linalg.norm(residues[0] @ residues[1] - residues[1] @ residues[0]) < 1e-3:
            continue
        # Simple residue spectra keep the Jordan comparison unambiguous.
        if all(
            abs(e[i] - e[j]) >= 0.02
            for e in (np.linalg.eigvals(b) for b in residues)
            for i in range(p)
            for j in range(i + 1, p)
        ):
            return residues


def _system_doc(poles, residues) -> dict:
    return {
        "schema": jsonio.SYSTEM_SCHEMA,
        "dimension": residues[0].shape[0],
        "poles": [jsonio.complex_to_pair(a) for a in poles],
        "residues": [jsonio.matrix_to_pairs(b) for b in residues],
    }


def known_defect(layout: str, n: int):
    """Why the seed fails on this verify input class, or None.

    These classes stay in the workload and count as failed ops; the reason
    only keeps them from setting the run's ``correct`` flag to false.
    """
    if layout == "collinear" and n >= 5:
        return "GeometryError: more than 3 corridors detour around one pole"
    if layout == "circle" and n in (4, 6):
        return "product defect of order 1: composition_order disagrees with the detour side"
    return None


def verify_units(seed: int, workdir: str) -> list:
    rng = np.random.default_rng([seed, 1])
    units = []
    for k in range(VERIFY_POOL):
        layout, kind, n, p = VERIFY_SCHEDULE[k % 4][k // 4 % 5]
        poles = _layout(rng, layout, n)
        if kind == "commuting":
            residues, oracle = _commuting_residues(rng, p, n)
        else:
            residues, oracle = _generic_residues(rng, p, n), None
        src = _write(os.path.join(workdir, f"verify-{k}.json"), _system_doc(poles, residues))
        out = os.path.join(workdir, f"verify-{k}.out.json")
        units.append(
            Unit(
                label=f"{layout}/{kind}/p{n}/n{p}",
                argvs=[["--quiet", "verify", src, "--json", out]],
                outputs=[out],
                truth={"kind": kind, "oracle": oracle, "known_defect": known_defect(layout, n)},
            )
        )
    return units


def _small_residues(rng, bound=0.05, draw=0.04):
    while True:
        mats = []
        for _ in range(2):
            m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            mats.append(m * (draw / np.linalg.norm(m, 2)))
        last = -(mats[0] + mats[1])
        if np.linalg.norm(last, 2) <= bound:
            return mats + [last]


def _random_unitary(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def invert_units(seed: int, workdir: str) -> list:
    """Criterion-4 instances: 3 poles, 2x2 residues of 2-norm <= 0.05.

    The target is the CLI's own monodromy report at tol 1e-10, so set-up
    time includes computing it.
    """
    reference = np.random.default_rng(0)
    rng = np.random.default_rng([seed, 2])
    units = []
    for k, triangle in enumerate(INVERT_TRIANGLES):
        turn = cmath.exp(1j * rng.uniform(-INVERT_TURN, INVERT_TURN))
        poles = [a * turn for a in triangle]
        u = _random_unitary(rng, 2)
        residues = [u @ b @ u.conj().T for b in _small_residues(reference)]
        src = _write(os.path.join(workdir, f"invert-{k}.system.json"), _system_doc(poles, residues))
        target = os.path.join(workdir, f"invert-{k}.target.json")
        code = cli.main(["--quiet", "monodromy", src, "--tol", "1e-10", "--json", target])
        if code != cli.EXIT_OK:
            raise RuntimeError(f"target generation failed with exit code {code}")
        out = os.path.join(workdir, f"invert-{k}.out.json")
        units.append(
            Unit(
                label="near-identity/p3/n2",
                argvs=[["--quiet", "invert", target, *INVERT_ARGS, "--json", out]],
                outputs=[out],
                truth={"residues": residues},
            )
        )
    return units


def _reference_coeffs(rng, degree):
    """``degree + 1`` Gaussian rationals as (re, im) pairs, re never zero."""
    return [
        (
            Fraction(int(rng.choice((-3, -2, -1, 1, 2, 3))), int(rng.integers(1, 4))),
            Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 4))),
        )
        for _ in range(degree + 1)
    ]


_DENOMINATORS = (
    Polynomial([CR_ONE]),
    Polynomial([ComplexRational(0), CR_ONE]),  # z
    Polynomial([ComplexRational(-1), CR_ONE]),  # z - 1
)


def _symmetric_matrix(rows, powers, conj):
    """``D R D^-1`` with ``D = diag(i**powers)``, conjugated when ``conj``.

    ``rows`` holds (coefficient pairs, denominator) per entry, or None for
    zero and "one" for one; denominators are real, so only numerators turn.
    """
    entries = []
    for r, row in enumerate(rows):
        out = []
        for s, entry in enumerate(row):
            if entry is None or entry == "one":
                out.append(RF_ZERO if entry is None else RF_ONE)
                continue
            coeffs, den = entry
            unit = CR_I ** ((powers[r] - powers[s]) % 4)
            cs = [ComplexRational(re, -im if conj else im) * unit for re, im in coeffs]
            out.append(RationalFunction(Polynomial(cs), den))
        entries.append(out)
    return RationalMatrix(entries)


def _reference_unit(rng, k, n):
    """Entry specs of A (fixed degrees and denominators) and of B and C."""
    a = [
        [(_reference_coeffs(rng, (i + 2 * j + k) % 3), _DENOMINATORS[(2 * i + j + k) % 3]) for j in range(n)]
        for i in range(n)
    ]
    b = [["one" if i == j else None for j in range(n)] for i in range(n)]
    c = [row[:] for row in b]
    for i in range(n):
        for j in range(i + 1, n):
            b[i][j] = (_reference_coeffs(rng, 1), _DENOMINATORS[0])
            c[j][i] = (_reference_coeffs(rng, 1), _DENOMINATORS[0])
    return a, b, c


def gauge_units(seed: int, workdir: str, wrong_product: bool = False) -> list:
    """Matrices over Q(i)(z) with poles at 0 and 1, unitriangular gauges.

    A unit is five convert ops: (1) module(A) by B -> X, (2) X to a module,
    (3) that module by C -> Y, (4) module(A) by B@C -> Z, (5) the module of
    step 2 back to a matrix.  The check demands Y == Z (right group action)
    and step 5 == X (module round trip), both byte for byte.
    ``wrong_product`` replaces B@C by C@B to test the check itself.
    """
    reference = np.random.default_rng([0, 3])
    rng = np.random.default_rng([seed, 3])
    units = []
    for k, n in enumerate(GAUGE_SIZES):
        powers = [int(e) for e in rng.integers(0, 4, size=n)]
        conj = bool(rng.integers(0, 2))
        a, b, c = (_symmetric_matrix(spec, powers, conj) for spec in _reference_unit(reference, k, n))
        bc = c @ b if wrong_product else b @ c
        path = lambda name: os.path.join(workdir, f"gauge-{k}.{name}.json")  # noqa: E731
        _write(path("module"), module_from_matrix(a).to_dict())
        for name, m in (("b", b), ("c", c), ("bc", bc)):
            _write(path(name), rational_matrix_to_dict(m))
        outs = [path(f"out{i}") for i in range(1, 6)]
        argvs = [
            ["convert", path("module"), "--to", "matrix", "--basis", path("b")],
            ["convert", outs[0], "--to", "module"],
            ["convert", outs[1], "--to", "matrix", "--basis", path("c")],
            ["convert", path("module"), "--to", "matrix", "--basis", path("bc")],
            ["convert", outs[1], "--to", "matrix"],
        ]
        units.append(
            Unit(
                label=f"gauge/n{n}",
                argvs=[["--quiet", *argv, "--json", out] for argv, out in zip(argvs, outs)],
                outputs=outs,
            )
        )
    return units


# ---------------------------------------------------------------- checks


def _entries(report: bytes):
    return json.loads(report)["entries"]


def check_verify(unit: Unit, results) -> list:
    (res,) = results
    if res.exit_code != cli.EXIT_OK or res.report is None:
        return [False]
    doc = json.loads(res.report)
    rep = doc["monodromy"]
    ok = doc["overall"] is True and rep["product_defect"] <= VERIFY_DEFECT_LIMIT
    if ok and unit.truth["kind"] == "commuting":
        for got, want in zip(rep["matrices"], unit.truth["oracle"]):
            ok = ok and float(np.linalg.norm(jsonio.pairs_to_matrix(got) - want)) <= ORACLE_LIMIT
    return [ok]


def check_invert(unit: Unit, results) -> list:
    (res,) = results
    if res.exit_code != cli.EXIT_OK or res.report is None:
        return [False]
    doc = json.loads(res.report)
    ok = doc["converged"] is True and doc["final_residual"] <= INVERT_RESIDUAL_LIMIT
    for got, want in zip(doc["system"]["residues"], unit.truth["residues"]):
        ok = ok and float(np.max(np.abs(jsonio.pairs_to_matrix(got) - want))) <= INVERT_ENTRY_LIMIT
    return [ok]


def check_gauge(unit: Unit, results) -> list:
    if any(r.exit_code != cli.EXIT_OK or r.report is None for r in results):
        return [False] * len(results)
    x, module_x, y, z, back = (r.report for r in results)
    ok = _entries(y) == _entries(z) and _entries(back) == _entries(x)
    # Parse both sides too, so equal strings also mean equal field elements.
    ok = ok and rational_matrix_from_dict(json.loads(y)) == rational_matrix_from_dict(json.loads(z))
    return [ok] * len(results)


_INT = re.compile(rb"\d+")


def max_coeff_bits(report: bytes) -> int:
    """Largest bit length of any integer (numerator or denominator) in a report."""
    return max((int(m).bit_length() for m in _INT.findall(report)), default=0)


# Per workload: inputs, check, and the nominal seconds of one pass over the
# pool.  A timed run makes max(1, seconds // pass seconds) passes, a number
# fixed by --seconds alone, so every op gets the same number of tries on any
# machine and a faster program ends sooner instead of taking more samples.
WORKLOADS = {
    "verify-mixed": (verify_units, check_verify, 25.0),
    "invert-near-identity": (invert_units, check_invert, 25.0),
    "exact-gauge": (gauge_units, check_gauge, 1.75),
}
