"""Command line interface.

Subcommands: check, galois, monodromy, verify, invert, convert.  Every
command reads JSON documents, prints a short human summary (suppressed by
--quiet), and optionally writes a canonical JSON report with --json PATH;
equal inputs always produce byte-identical reports.  Exit codes: 0 success,
2 invalid input, 3 numerical failure (non-convergence or a failed verdict).
"""

import argparse
import functools
import sys
import warnings
from dataclasses import dataclass

from . import jsonio
from .equivalence import (
    MATRIX_SCHEMA,
    MODULE_SCHEMA,
    SCALAR_SCHEMA,
    DifferentialModule,
    ScalarEquation,
    companion_of_scalar,
    matrix_from_module,
    module_from_matrix,
    rational_matrix_from_dict,
    rational_matrix_to_dict,
)
from .errors import FuchsiaError, NumericsError, ValidationError
from .inverse import (
    DEFAULT_MAX_ITER,
    DEFAULT_RESIDUAL_TOL,
    InverseProblemInstance,
    first_order_seed,
    solve,
    validate_instance,  # noqa: F401 - perfbench/spans.py traces this name here
)
from .monodromy import DEFAULT_INTEGRATION_TOL, DEFAULT_VERIFY_TOL, monodromy, verify_theorem
from .system import (
    FuchsianSystem,
    ResonanceWarning,
    galois_generators,
    is_non_resonant,
    levelt_data,
    validate_system,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3


@dataclass
class CommandOutcome:
    """What a subcommand produced: exit code, report dict, human text; a
    ``human`` of None is the report's canonical JSON, serialized once."""

    exit_code: int
    report: dict | None
    human: str | None


def _fmt_complex(z: complex) -> str:
    return f"{z.real:.9g}{z.imag:+.9g}i"


def parse_complex_literal(text: str) -> complex:
    """Parse 're+imi' literals like '2', '1.5-0.5i', '2i', '-1e2+3i'."""
    s = text.strip().replace(" ", "")
    if not s:
        raise ValidationError("empty complex literal")
    try:
        if s.endswith(("i", "I", "j", "J")):
            value = complex(s[:-1] + "j")
        else:
            value = complex(s)
    except ValueError as exc:
        raise ValidationError(f"cannot parse complex literal {text!r}") from exc
    return value


def _load_system(path: str) -> FuchsianSystem:
    return FuchsianSystem.from_dict(jsonio.load_json(path))


def _resonance_section(system: FuchsianSystem) -> tuple[list, bool]:
    entries = []
    clean = True
    for record in is_non_resonant(system):
        if record.resonant:
            clean = False
        entries.append(
            {
                "pole_index": record.pole_index,
                "resonant": record.resonant,
                "witnesses": [
                    {
                        "eigenvalue_a": jsonio.complex_to_pair(a),
                        "eigenvalue_b": jsonio.complex_to_pair(b),
                        "integer": k,
                    }
                    for a, b, k in record.witnesses
                ],
            }
        )
    return entries, clean


def cmd_check(args) -> CommandOutcome:
    system = _load_system(args.system)
    levelt = levelt_data(system)
    resonance, clean = _resonance_section(system)
    levelt_json = []
    for table in levelt.per_pole:
        levelt_json.append(
            [
                {
                    "eigenvalue": jsonio.complex_to_pair(e.eigenvalue),
                    "integer_part": e.integer_part,
                    "fractional_part": jsonio.complex_to_pair(e.fractional_part),
                    "multiplicity": e.multiplicity,
                }
                for e in table
            ]
        )
    report = {
        "schema": jsonio.REPORT_SCHEMA,
        "kind": "check",
        "dimension": system.dimension,
        "poles": [jsonio.complex_to_pair(a) for a in system.poles],
        "residue_sum_defect": system.residue_sum_defect,
        "levelt": levelt_json,
        "resonance": resonance,
        "non_resonant": clean,
    }
    lines = [
        f"valid Fuchsian system: dimension {system.dimension}, "
        f"{system.pole_count} poles, residue sum defect {system.residue_sum_defect:.3e}"
    ]
    for j, table in enumerate(levelt.per_pole):
        parts = ", ".join(
            f"{_fmt_complex(e.eigenvalue)} = {e.integer_part} + {_fmt_complex(e.fractional_part)}"
            + (f" (x{e.multiplicity})" if e.multiplicity > 1 else "")
            for e in table
        )
        lines.append(f"pole {j} at {_fmt_complex(system.poles[j])}: exponents {parts}")
    lines.append("non-resonant" if clean else "RESONANT (integer eigenvalue differences)")
    return CommandOutcome(EXIT_OK, report, "\n".join(lines))


def cmd_galois(args) -> CommandOutcome:
    system = _load_system(args.system)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResonanceWarning)
        generators = galois_generators(system)
    notes = [str(w.message) for w in caught if issubclass(w.category, ResonanceWarning)]
    resonance, clean = _resonance_section(system)
    report = {
        "schema": jsonio.REPORT_SCHEMA,
        "kind": "galois",
        "dimension": system.dimension,
        "poles": [jsonio.complex_to_pair(a) for a in system.poles],
        "generators": [jsonio.matrix_to_pairs(g) for g in generators],
        "non_resonant": clean,
        "warnings": notes,
    }
    lines = [
        f"{len(generators)} differential Galois group generators "
        f"exp(2 pi i B_j), dimension {system.dimension}"
    ]
    for note in notes:
        lines.append(f"warning: {note}")
    return CommandOutcome(EXIT_OK, report, "\n".join(lines))


def _monodromy_report(system: FuchsianSystem, rep) -> dict:
    return {
        "schema": jsonio.REPORT_SCHEMA,
        "kind": "monodromy",
        "dimension": system.dimension,
        "poles": [jsonio.complex_to_pair(a) for a in system.poles],
        "base_point": jsonio.complex_to_pair(rep.base_point),
        "matrices": [jsonio.matrix_to_pairs(m) for m in rep.matrices],
        "error_estimates": list(rep.error_estimates),
        "composition": list(rep.composition),
        "product_defect": rep.product_defect,
        "convention": rep.convention,
    }


def cmd_monodromy(args) -> CommandOutcome:
    system = _load_system(args.system)
    base = parse_complex_literal(args.base) if args.base else None
    rep = monodromy(system, tol=args.tol, base_point=base)
    report = _monodromy_report(system, rep)
    lines = [
        f"monodromy computed at base point {_fmt_complex(rep.base_point)}; "
        f"loop product defect {rep.product_defect:.3e}",
        "error estimates: " + ", ".join(f"{e:.3e}" for e in rep.error_estimates),
    ]
    return CommandOutcome(EXIT_OK, report, "\n".join(lines))


def cmd_verify(args) -> CommandOutcome:
    system = _load_system(args.system)
    base = parse_complex_literal(args.base) if args.base else None
    result = verify_theorem(
        system,
        tol=args.tol,
        integration_tol=args.integration_tol,
        base_point=base,
    )
    per_pole = []
    for v in result.verdicts:
        per_pole.append(
            {
                "pole_index": v.pole_index,
                "non_resonant": v.non_resonant,
                "spectrum_match": v.spectrum_match,
                "spectrum_distance": v.spectrum_distance,
                "structure_match": v.structure_match,
                "conjugator": None if v.conjugator is None else jsonio.matrix_to_pairs(v.conjugator),
                "conjugator_residual": v.conjugator_residual,
                "monodromy_error": v.monodromy_error,
                "ok": v.ok,
            }
        )
    report = {
        "schema": jsonio.REPORT_SCHEMA,
        "kind": "verify",
        "overall": result.overall,
        "all_non_resonant": result.all_non_resonant,
        "per_pole": per_pole,
        "monodromy": _monodromy_report(system, result.representation),
    }
    lines = []
    for v in result.verdicts:
        status = "ok" if v.ok else "MISMATCH"
        hypo = "" if v.non_resonant else " [resonant: excluded from hypothesis]"
        lines.append(
            f"pole {v.pole_index}: {status}{hypo} "
            f"(spectrum {v.spectrum_distance:.3e}, structure "
            f"{'match' if v.structure_match else 'differ'}, conjugator residual "
            + (f"{v.conjugator_residual:.3e})" if v.conjugator_residual is not None else "none)")
        )
    lines.append(
        "theorem verified: monodromy matches exp(2 pi i B_j) up to conjugation"
        if result.overall
        else "theorem verification FAILED on a non-resonant pole"
    )
    code = EXIT_OK if result.overall else EXIT_NUMERIC
    return CommandOutcome(code, report, "\n".join(lines))


def cmd_invert(args) -> CommandOutcome:
    instance = InverseProblemInstance.from_dict(
        jsonio.load_json(args.instance), allow_far=args.allow_far
    )
    solution = solve(
        instance,
        tol=args.tol,
        max_iter=args.max_iter,
        integration_tol=args.integration_tol,
    )
    system_doc = validate_system(instance.poles, solution.residues).to_dict()
    seed = first_order_seed(instance)
    report = {
        "schema": jsonio.REPORT_SCHEMA,
        "kind": "invert",
        "converged": solution.converged,
        "iterations": solution.iterations,
        "final_residual": solution.final_residual,
        "non_resonant": solution.non_resonant,
        "seed": [jsonio.matrix_to_pairs(a) for a in seed],
        "system": system_doc,
    }
    lines = [
        (
            f"converged in {solution.iterations} iterations, "
            f"final residual {solution.final_residual:.3e}"
            if solution.converged
            else f"NOT converged after {solution.iterations} iterations, "
            f"best residual {solution.final_residual:.3e}"
        ),
        f"recovered system is {'non-resonant' if solution.non_resonant else 'RESONANT'}",
    ]
    if args.system_out:
        with open(args.system_out, "w", encoding="utf-8") as fh:
            fh.write(jsonio.canonical_json(system_doc) + "\n")
        lines.append(f"recovered system written to {args.system_out}")
    code = EXIT_OK if solution.converged else EXIT_NUMERIC
    return CommandOutcome(code, report, "\n".join(lines))


_CONVERTERS = {
    (SCALAR_SCHEMA, "matrix"): lambda doc, basis: rational_matrix_to_dict(
        companion_of_scalar(ScalarEquation.from_dict(doc))
    ),
    (SCALAR_SCHEMA, "module"): lambda doc, basis: module_from_matrix(
        companion_of_scalar(ScalarEquation.from_dict(doc))
    ).to_dict(),
    (MATRIX_SCHEMA, "module"): lambda doc, basis: module_from_matrix(
        rational_matrix_from_dict(doc)
    ).to_dict(),
    (MODULE_SCHEMA, "matrix"): lambda doc, basis: rational_matrix_to_dict(
        matrix_from_module(DifferentialModule.from_dict(doc), basis)
    ),
}


def cmd_convert(args) -> CommandOutcome:
    doc = jsonio.load_json(args.input)
    schema = doc.get("schema")
    if schema not in (SCALAR_SCHEMA, MATRIX_SCHEMA, MODULE_SCHEMA):
        raise ValidationError(
            f"input schema {schema!r} is not one of the convertible kinds "
            f"({SCALAR_SCHEMA}, {MATRIX_SCHEMA}, {MODULE_SCHEMA})"
        )
    if schema == SCALAR_SCHEMA and args.to == "scalar":
        raise ValidationError("input is already a scalar equation")
    key = (schema, args.to)
    if key not in _CONVERTERS:
        raise ValidationError(
            f"conversion from {schema} to {args.to!r} is not supported "
            "(recovering a scalar equation needs a cyclic vector, which is out of scope)"
        )
    basis = None
    if args.basis:
        basis = rational_matrix_from_dict(jsonio.load_json(args.basis))
    if args.basis and key != (MODULE_SCHEMA, "matrix"):
        raise ValidationError("--basis only applies when converting a module to a matrix")
    return CommandOutcome(EXIT_OK, _CONVERTERS[key](doc, basis), None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fuchsia",
        description=(
            "Fuchsian systems toolkit: differential Galois generators, "
            "monodromy by analytic continuation, exact representation "
            "conversions, and the near-identity inverse problem."
        ),
    )
    parser.add_argument("--quiet", action="store_true", help="suppress human-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--json", metavar="PATH", help="write a canonical JSON report to PATH")
        # Accept --quiet after the subcommand too; SUPPRESS keeps this copy
        # from clobbering a root-level --quiet with its own default.
        p.add_argument(
            "--quiet",
            action="store_true",
            default=argparse.SUPPRESS,
            help=argparse.SUPPRESS,
        )

    def add_integration_tol(p):
        p.add_argument(
            "--integration-tol",
            type=float,
            default=DEFAULT_INTEGRATION_TOL,
            help="integration tolerance (default %(default)g)",
        )

    p = sub.add_parser("check", help="validate a system and print Levelt/resonance data")
    p.add_argument("system", help="system JSON file")
    add_common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("galois", help="differential Galois group generators exp(2 pi i B_j)")
    p.add_argument("system", help="system JSON file")
    add_common(p)
    p.set_defaults(func=cmd_galois)

    p = sub.add_parser("monodromy", help="monodromy matrices by analytic continuation")
    p.add_argument("system", help="system JSON file")
    p.add_argument(
        "--tol",
        type=float,
        default=DEFAULT_INTEGRATION_TOL,
        help="integration tolerance (default %(default)g)",
    )
    p.add_argument("--base", help="base point as 're+imi' (default 1 + max |pole|)")
    add_common(p)
    p.set_defaults(func=cmd_monodromy)

    p = sub.add_parser("verify", help="compare monodromy against the exponential generators")
    p.add_argument("system", help="system JSON file")
    p.add_argument(
        "--tol", type=float, default=DEFAULT_VERIFY_TOL, help="verification tolerance (default %(default)g)"
    )
    add_integration_tol(p)
    p.add_argument("--base", help="base point as 're+imi'")
    add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("invert", help="recover residues from near-identity monodromy targets")
    p.add_argument("instance", help="inverse instance JSON (or a monodromy report)")
    p.add_argument(
        "--tol", type=float, default=DEFAULT_RESIDUAL_TOL, help="target residual (default %(default)g)"
    )
    p.add_argument(
        "--max-iter", type=int, default=DEFAULT_MAX_ITER, help="iteration cap (default %(default)g)"
    )
    add_integration_tol(p)
    p.add_argument(
        "--allow-far",
        action="store_true",
        help="attempt targets far from the identity despite the seed being unreliable",
    )
    p.add_argument("--system-out", metavar="PATH", help="also write the recovered system JSON")
    add_common(p)
    p.set_defaults(func=cmd_invert)

    p = sub.add_parser("convert", help="convert among scalar equation, matrix, and module")
    p.add_argument("input", help="scalar/matrix/module JSON file")
    p.add_argument("--to", required=True, choices=("scalar", "matrix", "module"))
    p.add_argument("--basis", help="matrix JSON file: basis change for module-to-matrix")
    add_common(p)
    p.set_defaults(func=cmd_convert)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use and kept: parsing leaves no state in it,
    and each ``cmd_*`` looks up the functions it calls when it runs."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        outcome = args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except FuchsiaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    text = jsonio.canonical_json(outcome.report) if args.json or outcome.human is None else None
    human = text if outcome.human is None else outcome.human
    if not args.quiet and human:
        print(human)
    if args.json and outcome.report is not None:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return outcome.exit_code


if __name__ == "__main__":
    sys.exit(main())
