"""In-memory spans around fuchsia's public functions, recorded at their use sites.

``Recorder.install`` replaces each function named in ``USE_SITES`` by a
wrapper in the module that calls it, so the package itself is not edited.
A span is ``(name, start, end, parent)``; a layer's self time is the sum of
its spans' durations minus the time their child spans cover.  Some wrappers
also bump counters (A(z) evaluations, loop arc length, geometry errors).
Only calls made inside an op, that is below a ``cli.main`` span opened with
``Recorder.call``, are recorded; the harness's own checks use the same
functions.  ``uninstall`` restores every original.
"""

import functools
import importlib
import time
from collections import Counter

LAYERS = ("cli", "jsonio", "system", "paths", "monodromy", "linalg", "inverse", "rational", "equivalence")

# (module that makes the call, attribute it calls, span name).  The package
# re-exports functions under submodule names (``fuchsia.monodromy`` is also a
# function), so modules are looked up with importlib, never by attribute.
USE_SITES = (
    ("fuchsia.jsonio", "load_json", "jsonio.load_json"),
    ("fuchsia.jsonio", "canonical_json", "jsonio.canonical_json"),
    ("fuchsia.system", "validate_system", "system.validate_system"),
    ("fuchsia.inverse", "validate_system", "system.validate_system"),
    ("fuchsia.monodromy", "is_non_resonant", "system.is_non_resonant"),
    ("fuchsia.inverse", "is_non_resonant", "system.is_non_resonant"),
    ("fuchsia.monodromy", "build_loops", "paths.build_loops"),
    ("fuchsia.inverse", "build_loops", "paths.build_loops"),
    ("fuchsia.monodromy", "composition_order", "paths.composition_order"),
    ("fuchsia.inverse", "composition_order", "paths.composition_order"),
    ("fuchsia.monodromy", "path_clearance_audit", "paths.path_clearance_audit"),
    ("fuchsia.cli", "verify_theorem", "monodromy.verify_theorem"),
    ("fuchsia.cli", "monodromy", "monodromy.monodromy"),
    ("fuchsia.monodromy", "monodromy", "monodromy.monodromy"),
    ("fuchsia.monodromy", "continue_solution", "monodromy.continue_solution"),
    ("fuchsia.inverse", "continue_solution", "monodromy.continue_solution"),
    ("fuchsia.monodromy", "coefficient_function", "monodromy.coefficient_function"),
    ("fuchsia.monodromy", "eigen_decompose", "linalg.eigen_decompose"),
    ("fuchsia.system", "eigen_decompose", "linalg.eigen_decompose"),
    ("fuchsia.monodromy", "jordan_structure", "linalg.jordan_structure"),
    ("fuchsia.monodromy", "similarity_transform", "linalg.similarity_transform"),
    ("fuchsia.monodromy", "matrix_exp", "linalg.matrix_exp"),
    ("fuchsia.system", "matrix_exp", "linalg.matrix_exp"),
    ("fuchsia.cli", "validate_instance", "inverse.validate_instance"),
    ("fuchsia.cli", "solve", "inverse.solve"),
    ("fuchsia.cli", "first_order_seed", "inverse.first_order_seed"),
    ("fuchsia.rational", "polynomial_gcd", "rational.polynomial_gcd"),
    ("fuchsia.equivalence", "parse_rational_function", "rational.parse_rational_function"),
    ("fuchsia.equivalence", "gauge_transform", "equivalence.gauge_transform"),
    ("fuchsia.equivalence", "rational_matrix_from_strings", "equivalence.rational_matrix_from_strings"),
    ("fuchsia.cli", "rational_matrix_from_dict", "equivalence.rational_matrix_from_dict"),
    ("fuchsia.cli", "rational_matrix_to_dict", "equivalence.rational_matrix_to_dict"),
    ("fuchsia.cli", "module_from_matrix", "equivalence.module_from_matrix"),
    ("fuchsia.cli", "matrix_from_module", "equivalence.matrix_from_module"),
)


class Recorder:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = Counter()
        self._stack = []
        self._originals = []

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans[index][2] = time.perf_counter()
            self._stack.pop()

    def _wrapper(self, name, fn):
        if name == "monodromy.coefficient_function":
            return self._counting_coefficients(fn)
        if name == "paths.build_loops":
            return self._measuring_loops(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            self.counts[name] += 1
            return self.call(name, fn, *args, **kwargs)

        return wrapper

    def _counting_coefficients(self, fn):
        @functools.wraps(fn)
        def wrapper(system):
            rhs = fn(system)
            if not self._stack:
                return rhs

            def counted(z):
                self.counts["monodromy.rhs_evals"] += 1
                return rhs(z)

            return counted

        return wrapper

    def _measuring_loops(self, fn):
        from fuchsia.errors import GeometryError

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            self.counts["paths.build_loops"] += 1
            try:
                loops = self.call("paths.build_loops", fn, *args, **kwargs)
            except GeometryError:
                self.counts["paths.geometry_errors"] += 1
                raise
            self.counts["paths.loops"] += len(loops)
            self.counts["paths.segments"] += sum(len(loop.segments) for loop in loops)
            self.counts["paths.arc_length"] += sum(loop.length for loop in loops)
            return loops

        return wrapper

    def install(self):
        for module_name, attr, name in USE_SITES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrapper(name, original))

    def uninstall(self):
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def summary(self):
        """Per span name: inclusive seconds; per layer: self seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        inclusive = Counter()
        self_time = Counter({layer: 0.0 for layer in LAYERS})
        for (name, start, end, _), covered in zip(self.spans, child):
            inclusive[name] += end - start
            self_time[name.split(".", 1)[0]] += end - start - covered
        return inclusive, self_time

    def within(self, outer: str, inner: str):
        """Count and seconds of ``inner`` spans that run inside an ``outer`` span."""
        count, seconds = 0, 0.0
        for name, start, end, parent in self.spans:
            if name != inner:
                continue
            while parent >= 0 and self.spans[parent][0] != outer:
                parent = self.spans[parent][3]
            if parent >= 0:
                count += 1
                seconds += end - start
        return count, seconds
