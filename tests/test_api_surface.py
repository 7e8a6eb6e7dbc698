"""The package's count of tunable knobs may only fall."""

import ast
import pathlib

import fuchsia

# Defaulted parameters of public functions and methods; lower it when a
# change removes one.
MAX_DEFAULTED_PARAMETERS = 21

# Module-level numeric constants; lower it when a change removes one.
MAX_NUMERIC_CONSTANTS = 25


def package_trees():
    for path in sorted(pathlib.Path(fuchsia.__file__).parent.glob("*.py")):
        yield path.stem, ast.parse(path.read_text())


def defaulted_parameters():
    """(module, function, count) for every public function or method with
    defaults; public means no leading underscore, plus ``__init__``."""
    found = []
    for module, tree in package_trees():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name.startswith("_") and node.name != "__init__":
                continue
            args = node.args
            count = len(args.defaults) + sum(d is not None for d in args.kw_defaults)
            if count:
                found.append((module, node.name, count))
    return found


def numeric_constants():
    """(module, name) for every module-level assignment of a number: a
    value with a numeric literal whose only calls are ``np.array``, such
    as ``1e-9``, ``2.0 * math.pi`` or a tableau, but not ``ComplexRational(0)``."""
    found = []
    for module, tree in package_trees():
        for node in tree.body:
            if not isinstance(node, (ast.Assign, ast.AnnAssign)) or node.value is None:
                continue
            parts = list(ast.walk(node.value))
            numeric = any(
                isinstance(part, ast.Constant) and type(part.value) in (int, float, complex) for part in parts
            )
            calls = [ast.unparse(part.func) for part in parts if isinstance(part, ast.Call)]
            if numeric and all(call == "np.array" for call in calls):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                found += [(module, ast.unparse(target)) for target in targets]
    return found


def test_defaulted_parameter_count_does_not_grow():
    found = defaulted_parameters()
    total = sum(count for _, _, count in found)
    assert total <= MAX_DEFAULTED_PARAMETERS, found


def test_numeric_constant_count_does_not_grow():
    found = numeric_constants()
    assert len(found) <= MAX_NUMERIC_CONSTANTS, found
