"""The package's count of tunable knobs may only fall, its numeric layer stands apart from its exact one, and it needs numpy alone."""

import ast
import pathlib

import fuchsia

# Defaulted parameters of public functions and methods, and defaulted fields
# of dataclasses; lower it when a change removes one.
MAX_DEFAULTED_PARAMETERS = 20

# Module-level numeric constants; lower it when a change removes one.
MAX_NUMERIC_CONSTANTS = 25

# The floating-point continuation and its callers, and the exact arithmetic over Q(i)(z).
NUMERIC_MODULES = ("system", "linalg", "paths", "monodromy", "inverse")
EXACT_MODULES = {"rational", "equivalence"}


def package_trees():
    for path in sorted(pathlib.Path(fuchsia.__file__).parent.glob("*.py")):
        yield path.stem, ast.parse(path.read_text())


def is_dataclass(node) -> bool:
    return any(ast.unparse(d.func if isinstance(d, ast.Call) else d) == "dataclass" for d in node.decorator_list)


def defaulted_parameters():
    """(module, function, count) for every public function or method with
    defaults, public meaning no leading underscore, plus ``__init__``; and
    (module, class, count) for every dataclass with defaulted fields, which
    are defaults of its constructor."""
    found = []
    for module, tree in package_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and is_dataclass(node):
                count = sum(isinstance(item, ast.AnnAssign) and item.value is not None for item in node.body)
                if count:
                    found.append((module, node.name, count))
                continue
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


def package_imports(tree):
    """The package modules that ``tree`` imports, at module level or inside a function."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            yield from [node.module] if node.module else (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("fuchsia."):
            yield node.module.split(".")[1]
        elif isinstance(node, ast.Import):
            yield from (alias.name.split(".")[1] for alias in node.names if alias.name.startswith("fuchsia."))


def test_numeric_layer_does_not_import_the_exact_layer():
    """No numeric module reaches ``rational`` or ``equivalence``, directly or
    through the package modules it imports; only ``cli`` and ``__init__`` use both."""
    graph = {module: set(package_imports(tree)) for module, tree in package_trees()}
    for start in NUMERIC_MODULES:
        reached, todo = set(), [start]
        while todo:
            new = graph[todo.pop()] - reached
            reached |= new
            todo += new
        assert not reached & EXACT_MODULES, (start, sorted(reached))


def test_package_does_not_import_scipy():
    """No module imports scipy, at module level or inside a function: its
    import would cost every ``verify`` and ``galois`` process about 0.5 s."""
    found = []
    for module, tree in package_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [(module, name) for name in names if name.split(".")[0] == "scipy"]
    assert not found


def test_defaulted_parameter_count_does_not_grow():
    found = defaulted_parameters()
    total = sum(count for _, _, count in found)
    assert total <= MAX_DEFAULTED_PARAMETERS, found


def test_numeric_constant_count_does_not_grow():
    found = numeric_constants()
    assert len(found) <= MAX_NUMERIC_CONSTANTS, found
