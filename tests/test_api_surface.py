"""The package's count of tunable knobs may only fall."""

import ast
import pathlib

import fuchsia

# Defaulted parameters of public functions and methods; lower it when a
# change removes one.
MAX_DEFAULTED_PARAMETERS = 21


def defaulted_parameters():
    """(module, function, count) for every public function or method with
    defaults; public means no leading underscore, plus ``__init__``."""
    found = []
    for path in sorted(pathlib.Path(fuchsia.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name.startswith("_") and node.name != "__init__":
                continue
            args = node.args
            count = len(args.defaults) + sum(d is not None for d in args.kw_defaults)
            if count:
                found.append((path.stem, node.name, count))
    return found


def test_defaulted_parameter_count_does_not_grow():
    found = defaulted_parameters()
    total = sum(count for _, _, count in found)
    assert total <= MAX_DEFAULTED_PARAMETERS, found
