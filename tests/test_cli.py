"""End-to-end CLI behavior through in-process main() calls."""

import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import fuchsia

from conftest import jordan_block_system
from fuchsia.cli import main, parse_complex_literal
from fuchsia.errors import ValidationError
from fuchsia.jsonio import canonical_json
from fuchsia.monodromy import PoleVerdict, verify_theorem
from fuchsia.paths import LOOP_CONVENTION
from fuchsia.rational import parse_rational_function
from fuchsia.system import FuchsianSystem, LeveltExponent, PoleResonance, is_non_resonant, levelt_data, validate_system


def write_json(path, doc):
    path.write_text(canonical_json(doc) + "\n", encoding="utf-8")
    return str(path)


@pytest.fixture
def scalar_system_path(tmp_path):
    """1x1 two-pole system with residue 0.2 at z=0."""
    b = np.array([[0.2]], dtype=complex)
    system = validate_system([0.0, 1.0], [b, -b])
    return write_json(tmp_path / "system.json", system.to_dict())


@pytest.fixture
def small_system_path(tmp_path):
    """Near-identity 1x1 system for the inverse pipeline."""
    b = np.array([[0.03]], dtype=complex)
    system = validate_system([0.0, 1.0], [b, -b])
    return write_json(tmp_path / "small.json", system.to_dict())


@pytest.fixture
def resonant_system_path(tmp_path):
    b = np.diag([0.25, 1.25]).astype(complex)
    system = validate_system([0.0, 1.0], [b, -b])
    return write_json(tmp_path / "resonant.json", system.to_dict())


class TestParseComplexLiteral:
    @pytest.mark.parametrize(
        "text, expected",
        [
            ("2", 2 + 0j),
            ("1.5-0.5i", 1.5 - 0.5j),
            ("2i", 2j),
            ("i", 1j),
            ("-1e2+3i", -100 + 3j),
            ("3+4j", 3 + 4j),
            (" 2 + 1i ", 2 + 1j),
        ],
    )
    def test_valid(self, text, expected):
        assert parse_complex_literal(text) == expected

    @pytest.mark.parametrize("text", ["", "   ", "abc", "1+", "oneplusi"])
    def test_invalid(self, text):
        with pytest.raises(ValidationError):
            parse_complex_literal(text)


class TestCheck:
    def test_valid_system(self, scalar_system_path, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code = main(["check", scalar_system_path, "--json", str(report_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "valid Fuchsian system" in out
        assert "non-resonant" in out
        text = report_path.read_text(encoding="utf-8")
        assert text.endswith("\n")
        report = json.loads(text)
        assert report["schema"] == "fuchsia-report/1"
        assert report["kind"] == "check"
        assert report["non_resonant"] is True
        assert len(report["levelt"]) == 2

    def test_reports_are_byte_identical(self, scalar_system_path, tmp_path):
        p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(["--quiet", "check", scalar_system_path, "--json", str(p1)]) == 0
        assert main(["--quiet", "check", scalar_system_path, "--json", str(p2)]) == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_missing_file_is_input_error(self, tmp_path, capsys):
        code = main(["check", str(tmp_path / "absent.json")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_system_is_input_error(self, tmp_path, capsys):
        path = write_json(tmp_path / "bad.json", {"schema": "fuchsia-system/1"})
        assert main(["check", path]) == 2
        assert "error:" in capsys.readouterr().err

    def test_resonant_system_still_checks(self, resonant_system_path, capsys):
        code = main(["check", resonant_system_path])
        assert code == 0
        assert "RESONANT" in capsys.readouterr().out

    def test_quiet_suppresses_output(self, scalar_system_path, capsys):
        assert main(["--quiet", "check", scalar_system_path]) == 0
        assert capsys.readouterr().out == ""

    def test_quiet_accepted_after_subcommand(self, scalar_system_path, capsys):
        assert main(["check", scalar_system_path, "--quiet"]) == 0
        assert capsys.readouterr().out == ""
        assert main(["galois", scalar_system_path, "--quiet"]) == 0
        assert capsys.readouterr().out == ""

    def test_calls_in_a_row_share_no_state(self, scalar_system_path, tmp_path, capsys):
        """The parser is built once per process: neither an exit code nor
        --quiet, before or after the subcommand, carries over to the next call."""
        missing = str(tmp_path / "missing.json")
        for quiet_first, quiet_after in (([], ["--quiet"]), (["--quiet"], []), ([], [])):
            assert main(quiet_first + ["check", missing] + quiet_after) == 2
            assert capsys.readouterr().out == ""
            assert main(["galois", scalar_system_path]) == 0
            assert "exp(2 pi i B" in capsys.readouterr().out
            assert main(["check", scalar_system_path] + quiet_after) == 0
            assert (capsys.readouterr().out == "") == bool(quiet_after)
            assert main(quiet_first + ["galois", scalar_system_path]) == 0
            assert (capsys.readouterr().out == "") == bool(quiet_first)


SMALL_SYSTEM = validate_system([0.0, 1.0], [np.array([[0.03]]), np.array([[-0.03]])]).to_dict()


@pytest.mark.parametrize(
    "command, doc",
    [
        ("check", {**SMALL_SYSTEM, "dimension": "x"}),
        ("check", {**SMALL_SYSTEM, "poles": 5}),
        ("invert", {"kind": "monodromy", "matrices": [[[[1.0, 0.0]]], [[[1.0, 0.0]]]]}),
    ],
    ids=["string-dimension", "scalar-poles", "report-without-poles"],
)
def test_malformed_field_is_input_error(command, doc, tmp_path, capsys):
    path = write_json(tmp_path / "doc.json", doc)
    assert main([command, path]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, doc",
    [
        ("check", {**SMALL_SYSTEM, "poles": [[10**400, 0], [1.0, 0.0]]}),
        ("invert", {"poles": [[0.0, 0.0], [1.0, 0.0]], "targets": [[[[1.0, 0.0]]]] * 2, "base_point": [10**400, 0]}),
    ],
    ids=["check-pole", "invert-base-point"],
)
def test_oversized_integer_is_input_error(command, doc, tmp_path, capsys):
    """A JSON integer too large for a double is not a finite entry: exit 2, not a traceback."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main([command, str(path)]) == 2
    assert "complex entries must be finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, options",
    [
        ("invert", ["--tol", "nan"]),
        ("invert", ["--integration-tol", "nan"]),
        ("invert", ["--max-iter", "-3"]),
        ("monodromy", ["--tol", "nan"]),
        ("monodromy", ["--tol", "inf"]),
        ("verify", ["--tol", "nan"]),
        ("verify", ["--tol", "-1"]),
    ],
    ids=[
        "invert-tol-nan",
        "invert-integration-tol-nan",
        "invert-negative-max-iter",
        "monodromy-tol-nan",
        "monodromy-tol-inf",
        "verify-tol-nan",
        "verify-negative-tol",
    ],
)
def test_invalid_tolerance_is_input_error(command, options, small_system_path, tmp_path, capsys):
    path = small_system_path
    if command == "invert":
        path = str(tmp_path / "monodromy.json")
        assert main(["--quiet", "monodromy", small_system_path, "--json", path]) == 0
    assert main([command, path, *options]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_commands_leave_scipy_unloaded(small_system_path, tmp_path):
    """Loading scipy costs a process about 0.5 s; the package runs on numpy alone.

    The verify system has a double eigenvalue in a 3 x 3 matrix, so the
    Jordan structures reach the Schur restriction of a cluster smaller than
    the matrix; the probe counts those calls.
    """
    b = np.diag([0.2, 0.2, -0.1]).astype(complex)
    c = np.diag([-0.35, -0.35, 0.3]).astype(complex)
    clustered = write_json(tmp_path / "clustered.json", validate_system([0.0, 1.0, 1j], [b, c, -b - c]).to_dict())
    report = str(tmp_path / "monodromy.json")
    probe = (
        "import sys, fuchsia.cli, fuchsia.linalg\n"
        "restrict, sizes = fuchsia.linalg._schur_restrict, []\n"
        "def counted(m, w, lam, other_reps, mu):\n"
        "    sizes.append((mu, m.shape[0]))\n"
        "    return restrict(m, w, lam, other_reps, mu)\n"
        "fuchsia.linalg._schur_restrict = counted\n"
        "loaded = ['scipy' in sys.modules]\n"
        f"assert fuchsia.cli.main(['--quiet', 'monodromy', {small_system_path!r}, '--json', {report!r}]) == 0\n"
        "loaded.append('scipy' in sys.modules)\n"
        f"assert fuchsia.cli.main(['--quiet', 'invert', {report!r}]) == 0\n"
        "loaded.append('scipy' in sys.modules)\n"
        f"assert fuchsia.cli.main(['--quiet', 'galois', {clustered!r}]) == 0\n"
        "loaded.append('scipy' in sys.modules)\n"
        f"assert fuchsia.cli.main(['--quiet', 'verify', {clustered!r}]) == 0\n"
        "loaded.append('scipy' in sys.modules)\n"
        "print(loaded, any(mu < n for mu, n in sizes))"
    )
    src = os.path.dirname(os.path.dirname(fuchsia.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=env
    ).stdout
    assert out.strip() == "[False, False, False, False, False] True"


class TestReportRows:
    """Each row of a report is its result record's fields, the complex values
    as [re, im] pairs; on the resonant fixture, whose witness rows are not empty."""

    @staticmethod
    def pair(z):
        return [z.real, z.imag]

    @staticmethod
    def report(command, path, tmp_path):
        report_path = tmp_path / f"{command}.json"
        main(["--quiet", command, path, "--json", str(report_path)])
        system = FuchsianSystem.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
        return json.loads(report_path.read_text(encoding="utf-8")), system

    def test_verify_rows_are_the_verdicts(self, resonant_system_path, tmp_path):
        report, system = self.report("verify", resonant_system_path, tmp_path)
        expected = [
            {
                "pole_index": v.pole_index,
                "non_resonant": v.non_resonant,
                "spectrum_match": v.spectrum_match,
                "spectrum_distance": v.spectrum_distance,
                "structure_match": v.structure_match,
                "conjugator": None if v.conjugator is None else np.stack([v.conjugator.real, v.conjugator.imag], -1).tolist(),
                "conjugator_residual": v.conjugator_residual,
                "monodromy_error": v.monodromy_error,
                "ok": v.ok,
            }
            for v in verify_theorem(system).verdicts
        ]
        assert report["per_pole"] == json.loads(canonical_json(expected))
        assert all(row.keys() == {f.name for f in fields(PoleVerdict)} for row in report["per_pole"])

    def test_check_rows_are_the_levelt_and_resonance_records(self, resonant_system_path, tmp_path):
        report, system = self.report("check", resonant_system_path, tmp_path)
        levelt = [
            [
                {
                    "eigenvalue": self.pair(e.eigenvalue),
                    "integer_part": e.integer_part,
                    "fractional_part": self.pair(e.fractional_part),
                    "multiplicity": e.multiplicity,
                }
                for e in table
            ]
            for table in levelt_data(system).per_pole
        ]
        resonance = [
            {
                "pole_index": r.pole_index,
                "resonant": r.resonant,
                "witnesses": [
                    {"eigenvalue_a": self.pair(a), "eigenvalue_b": self.pair(b), "integer": k} for a, b, k in r.witnesses
                ],
            }
            for r in is_non_resonant(system)
        ]
        assert any(row["witnesses"] for row in resonance)
        assert report["levelt"] == json.loads(canonical_json(levelt))
        assert report["resonance"] == json.loads(canonical_json(resonance))
        names = {f.name for f in fields(LeveltExponent)}
        assert all(row.keys() == names for table in report["levelt"] for row in table)
        assert all(row.keys() == {f.name for f in fields(PoleResonance)} for row in report["resonance"])


class TestGalois:
    def test_generators_reported(self, scalar_system_path, tmp_path):
        report_path = tmp_path / "galois.json"
        code = main(["--quiet", "galois", scalar_system_path, "--json", str(report_path)])
        assert code == 0
        report = json.loads(report_path.read_text(encoding="utf-8"))
        assert report["kind"] == "galois"
        assert len(report["generators"]) == 2
        g0 = report["generators"][0][0][0]
        expected = np.exp(2j * np.pi * 0.2)
        assert abs(complex(g0[0], g0[1]) - expected) < 1e-12

    def test_resonant_warns_but_succeeds(self, resonant_system_path, tmp_path, capsys):
        report_path = tmp_path / "galois.json"
        code = main(["galois", resonant_system_path, "--json", str(report_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "warning:" in out
        report = json.loads(report_path.read_text(encoding="utf-8"))
        assert report["warnings"]
        assert report["non_resonant"] is False


class TestMonodromy:
    def test_deterministic_report(self, scalar_system_path, tmp_path):
        p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
        assert main(["--quiet", "monodromy", scalar_system_path, "--json", str(p1)]) == 0
        assert main(["--quiet", "monodromy", scalar_system_path, "--json", str(p2)]) == 0
        assert p1.read_bytes() == p2.read_bytes()
        report = json.loads(p1.read_text(encoding="utf-8"))
        assert report["kind"] == "monodromy"
        assert report["product_defect"] < 1e-6
        assert sorted(report["composition"]) == [0, 1]

    def test_base_point_option(self, scalar_system_path, tmp_path):
        report_path = tmp_path / "m.json"
        code = main(
            [
                "--quiet",
                "monodromy",
                scalar_system_path,
                "--base",
                "4+1i",
                "--json",
                str(report_path),
            ]
        )
        assert code == 0
        report = json.loads(report_path.read_text(encoding="utf-8"))
        assert report["base_point"] == [4.0, 1.0]

    @pytest.mark.parametrize("base", ["1e16", "1e100"])
    def test_far_base_point_is_computed(self, scalar_system_path, tmp_path, base):
        """From the base point 1e16 or 1e100 the loops keep their clearance,
        and their hops near the poles are placed from the nearer end of each
        leg, so the report holds the closed form exp(+-2 pi i 0.2)."""
        report_path = tmp_path / "m.json"
        assert main(["--quiet", "monodromy", scalar_system_path, "--base", base, "--json", str(report_path)]) == 0
        report = json.loads(report_path.read_text(encoding="utf-8"))
        matrices = [complex(*m[0][0]) for m in report["matrices"]]
        assert np.max(np.abs(np.array(matrices) - np.exp(2j * np.pi * 0.2 * np.array([1.0, -1.0])))) <= 1e-14
        assert report["product_defect"] <= 1e-14

    def test_matrix_matches_exponential(self, scalar_system_path, tmp_path):
        report_path = tmp_path / "m.json"
        main(["--quiet", "monodromy", scalar_system_path, "--json", str(report_path)])
        report = json.loads(report_path.read_text(encoding="utf-8"))
        pair = report["matrices"][0][0][0]
        assert abs(complex(pair[0], pair[1]) - np.exp(2j * np.pi * 0.2)) < 1e-8


    def test_estimate_above_tol_exits_3_with_its_report(self, tmp_path, capsys):
        """Scalar residues +15 at 0 and -15 at 1 get an error estimate above
        the default 1e-9 (3.6e-8), so ``monodromy`` exits 3, says so, and
        still writes its report, as does ``verify``, whose verdicts hold;
        at a looser ``--integration-tol`` verify exits 0."""
        b = np.array([[15.0]], dtype=complex)
        path = write_json(tmp_path / "large.json", validate_system([0.0, 1.0], [b, -b]).to_dict())
        report_path = tmp_path / "m.json"
        assert main(["monodromy", path, "--json", str(report_path)]) == 3
        assert "NOT met" in capsys.readouterr().out
        report = json.loads(report_path.read_text(encoding="utf-8"))
        assert max(report["error_estimates"]) > 1e-9
        verify_path = tmp_path / "v.json"
        assert main(["--quiet", "verify", path, "--json", str(verify_path)]) == 3
        verified = json.loads(verify_path.read_text(encoding="utf-8"))
        assert verified["overall"] is True
        assert verified["monodromy"]["error_estimates"] == report["error_estimates"]
        assert main(["--quiet", "verify", path, "--integration-tol", "1e-6"]) == 0


class TestVerify:
    def test_theorem_holds(self, scalar_system_path, tmp_path, capsys):
        report_path = tmp_path / "v.json"
        code = main(["verify", scalar_system_path, "--json", str(report_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "theorem verified" in out
        report = json.loads(report_path.read_text(encoding="utf-8"))
        assert report["overall"] is True
        assert all(v["ok"] for v in report["per_pole"])

    def test_defective_residue_verifies(self, tmp_path):
        path = write_json(tmp_path / "jordan.json", jordan_block_system().to_dict())
        assert main(["--quiet", "verify", path]) == 0

    def test_impossible_tolerance_fails_with_exit_3(self, scalar_system_path, capsys):
        code = main(["verify", scalar_system_path, "--tol", "1e-18"])
        out = capsys.readouterr().out
        assert code == 3
        assert "FAILED" in out


class TestInvert:
    def test_pipeline_from_monodromy_report(self, small_system_path, tmp_path, capsys):
        """monodromy --json output feeds invert directly and closes the loop."""
        rep_path = tmp_path / "monodromy.json"
        assert main(["--quiet", "monodromy", small_system_path, "--json", str(rep_path)]) == 0

        out_path = tmp_path / "invert.json"
        sys_path = tmp_path / "recovered.json"
        code = main(
            [
                "invert",
                str(rep_path),
                "--json",
                str(out_path),
                "--system-out",
                str(sys_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "converged" in out
        report = json.loads(out_path.read_text(encoding="utf-8"))
        assert report["kind"] == "invert"
        assert report["converged"] is True
        assert report["final_residual"] <= 1e-8

        recovered = json.loads(sys_path.read_text(encoding="utf-8"))
        assert recovered["schema"] == "fuchsia-system/1"
        pair = recovered["residues"][0][0][0]
        assert abs(complex(pair[0], pair[1]) - 0.03) < 1e-6

    def test_unconverged_exits_3(self, small_system_path, tmp_path, capsys):
        rep_path = tmp_path / "monodromy.json"
        main(["--quiet", "monodromy", small_system_path, "--json", str(rep_path)])
        code = main(["invert", str(rep_path), "--max-iter", "0", "--tol", "1e-15"])
        out = capsys.readouterr().out
        assert code == 3
        assert "NOT converged" in out

    def test_report_of_another_loop_convention_is_input_error(self, small_system_path, tmp_path, capsys):
        """A report whose loops follow another convention composes in another
        order, so invert refuses it up front and names both conventions."""
        rep_path = tmp_path / "monodromy.json"
        assert main(["--quiet", "monodromy", small_system_path, "--json", str(rep_path)]) == 0
        report = json.loads(rep_path.read_text(encoding="utf-8"))
        assert report["convention"] == LOOP_CONVENTION
        report["convention"] = "ccw-circle/reversed-approach/order-angle-asc-near-first/v2"
        code = main(["invert", write_json(tmp_path / "stale.json", report)])
        err = capsys.readouterr().err
        assert code == 2
        assert report["convention"] in err
        assert LOOP_CONVENTION in err

    def test_far_targets_rejected_without_flag(self, scalar_system_path, tmp_path, capsys):
        rep_path = tmp_path / "monodromy.json"
        main(["--quiet", "monodromy", scalar_system_path, "--json", str(rep_path)])
        code = main(["invert", str(rep_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "allow_far" in err
        assert "--allow-far" in err

    def test_far_targets_accepted_with_flag(self, scalar_system_path, tmp_path):
        rep_path = tmp_path / "monodromy.json"
        main(["--quiet", "monodromy", scalar_system_path, "--json", str(rep_path)])
        out_path = tmp_path / "invert.json"
        code = main(
            ["--quiet", "invert", str(rep_path), "--allow-far", "--json", str(out_path)]
        )
        assert code == 0
        report = json.loads(out_path.read_text(encoding="utf-8"))
        assert report["converged"] is True


    def test_recovered_system_is_validated_once(self, small_system_path, tmp_path, monkeypatch):
        """An invert op validates the recovered residues once, in ``solve``,
        and writes its report from the system ``solve`` built."""
        calls = []

        def counted(*args):
            calls.append(args)
            return validate_system(*args)

        for module in ("fuchsia.inverse", "fuchsia.cli"):
            monkeypatch.setattr(f"{module}.validate_system", counted, raising=False)
        rep_path = tmp_path / "monodromy.json"
        assert main(["--quiet", "monodromy", small_system_path, "--json", str(rep_path)]) == 0
        calls.clear()
        out_path = tmp_path / "invert.json"
        assert main(["--quiet", "invert", str(rep_path), "--json", str(out_path)]) == 0
        assert len(calls) == 1
        report = json.loads(out_path.read_text(encoding="utf-8"))
        assert report["system"] == validate_system(*calls[0]).to_dict()


class TestConvert:
    @pytest.fixture
    def scalar_doc_path(self, tmp_path):
        doc = {
            "schema": "fuchsia-scalar/1",
            "order": 2,
            "coeffs": ["1/(4*z^2)", "0"],
        }
        return write_json(tmp_path / "scalar.json", doc)

    def test_scalar_to_matrix_to_module_chain(self, scalar_doc_path, tmp_path, capsys):
        matrix_path = tmp_path / "matrix.json"
        code = main(
            ["--quiet", "convert", scalar_doc_path, "--to", "matrix", "--json", str(matrix_path)]
        )
        assert code == 0
        matrix_doc = json.loads(matrix_path.read_text(encoding="utf-8"))
        assert matrix_doc["schema"] == "fuchsia-matrix/1"
        assert matrix_doc["entries"][0] == ["0", "1"]
        lower_left = parse_rational_function(matrix_doc["entries"][1][0])
        assert lower_left == parse_rational_function("-1/(4*z^2)")

        module_path = tmp_path / "module.json"
        code = main(
            ["--quiet", "convert", str(matrix_path), "--to", "module", "--json", str(module_path)]
        )
        assert code == 0
        module_doc = json.loads(module_path.read_text(encoding="utf-8"))
        assert module_doc["schema"] == "fuchsia-module/1"

        back_path = tmp_path / "back.json"
        code = main(
            ["--quiet", "convert", str(module_path), "--to", "matrix", "--json", str(back_path)]
        )
        assert code == 0
        back = json.loads(back_path.read_text(encoding="utf-8"))
        assert back == matrix_doc

    def test_module_to_matrix_with_basis(self, scalar_doc_path, tmp_path):
        matrix_path = tmp_path / "matrix.json"
        main(["--quiet", "convert", scalar_doc_path, "--to", "matrix", "--json", str(matrix_path)])
        module_path = tmp_path / "module.json"
        main(["--quiet", "convert", str(matrix_path), "--to", "module", "--json", str(module_path)])

        basis_doc = {
            "schema": "fuchsia-matrix/1",
            "dimension": 2,
            "entries": [["1", "z"], ["0", "1"]],
        }
        basis_path = write_json(tmp_path / "basis.json", basis_doc)
        gauged_path = tmp_path / "gauged.json"
        code = main(
            [
                "--quiet",
                "convert",
                str(module_path),
                "--to",
                "matrix",
                "--basis",
                str(basis_path),
                "--json",
                str(gauged_path),
            ]
        )
        assert code == 0
        gauged = json.loads(gauged_path.read_text(encoding="utf-8"))
        original = json.loads(matrix_path.read_text(encoding="utf-8"))
        assert gauged != original

    def test_matrix_to_scalar_unsupported(self, scalar_doc_path, tmp_path, capsys):
        matrix_path = tmp_path / "matrix.json"
        main(["--quiet", "convert", scalar_doc_path, "--to", "matrix", "--json", str(matrix_path)])
        code = main(["convert", str(matrix_path), "--to", "scalar"])
        assert code == 2
        assert "cyclic vector" in capsys.readouterr().err

    def test_scalar_to_scalar_rejected(self, scalar_doc_path, capsys):
        assert main(["convert", scalar_doc_path, "--to", "scalar"]) == 2
        assert "already" in capsys.readouterr().err

    def test_basis_with_wrong_target_rejected(self, scalar_doc_path, tmp_path, capsys):
        basis_doc = {
            "schema": "fuchsia-matrix/1",
            "dimension": 2,
            "entries": [["1", "0"], ["0", "1"]],
        }
        basis_path = write_json(tmp_path / "basis.json", basis_doc)
        code = main(
            ["convert", scalar_doc_path, "--to", "matrix", "--basis", str(basis_path)]
        )
        assert code == 2
        assert "--basis" in capsys.readouterr().err

    def test_basis_is_refused_before_its_file_is_read(self, scalar_doc_path, tmp_path, capsys):
        """A --basis for any conversion but module to matrix is refused as such, even when its file is missing."""
        code = main(["convert", scalar_doc_path, "--to", "matrix", "--basis", str(tmp_path / "missing.json")])
        assert code == 2
        assert "--basis only applies when converting a module to a matrix" in capsys.readouterr().err

    def test_unknown_schema_rejected(self, tmp_path, capsys):
        path = write_json(tmp_path / "odd.json", {"schema": "something/9"})
        assert main(["convert", path, "--to", "matrix"]) == 2
