"""End-to-end CLI behavior through in-process main() calls."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import fuchsia

from conftest import jordan_block_system
from fuchsia.cli import main, parse_complex_literal
from fuchsia.errors import ValidationError
from fuchsia.jsonio import canonical_json
from fuchsia.rational import parse_rational_function
from fuchsia.system import validate_system


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


def test_cli_import_leaves_scipy_optimize_unloaded():
    """scipy.optimize costs every CLI process about 0.2 s; only verify needs it."""
    probe = "import sys, fuchsia.cli; print('scipy.optimize' in sys.modules)"
    src = os.path.dirname(os.path.dirname(fuchsia.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=env
    ).stdout
    assert out.strip() == "False"


def test_monodromy_and_invert_leave_scipy_unloaded(small_system_path, tmp_path):
    """Loading scipy costs every CLI process about 0.3 s; monodromy and invert never need it."""
    report = str(tmp_path / "monodromy.json")
    probe = (
        "import sys, fuchsia.cli\n"
        "loaded = ['scipy' in sys.modules]\n"
        f"assert fuchsia.cli.main(['--quiet', 'monodromy', {small_system_path!r}, '--json', {report!r}]) == 0\n"
        "loaded.append('scipy' in sys.modules)\n"
        f"assert fuchsia.cli.main(['--quiet', 'invert', {report!r}]) == 0\n"
        "loaded.append('scipy' in sys.modules)\n"
        "print(loaded)"
    )
    src = os.path.dirname(os.path.dirname(fuchsia.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=env
    ).stdout
    assert out.strip() == "[False, False, False]"


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

    def test_matrix_matches_exponential(self, scalar_system_path, tmp_path):
        report_path = tmp_path / "m.json"
        main(["--quiet", "monodromy", scalar_system_path, "--json", str(report_path)])
        report = json.loads(report_path.read_text(encoding="utf-8"))
        pair = report["matrices"][0][0][0]
        assert abs(complex(pair[0], pair[1]) - np.exp(2j * np.pi * 0.2)) < 1e-8


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
        code = main(["invert", str(rep_path), "--max-iter", "0"])
        out = capsys.readouterr().out
        assert code == 3
        assert "NOT converged" in out

    def test_far_targets_rejected_without_flag(self, scalar_system_path, tmp_path, capsys):
        rep_path = tmp_path / "monodromy.json"
        main(["--quiet", "monodromy", scalar_system_path, "--json", str(rep_path)])
        code = main(["invert", str(rep_path)])
        assert code == 2
        assert "allow_far" in capsys.readouterr().err

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

    def test_unknown_schema_rejected(self, tmp_path, capsys):
        path = write_json(tmp_path / "odd.json", {"schema": "something/9"})
        assert main(["convert", path, "--to", "matrix"]) == 2
