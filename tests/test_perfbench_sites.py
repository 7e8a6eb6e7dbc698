"""Every function the benchmark's traced pass wraps still exists where it is called.

``perfbench/spans.py`` replaces each ``(module, attribute)`` in ``USE_SITES``
by a timing wrapper; a renamed or removed function breaks ``--trace 1``.
The file is loaded by path, so the benchmark directory needs no package
marker and is not edited.  An import the package keeps only for a site
carries the comment ``MARK``, and must name a site that still exists.
"""

import importlib
import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"
MARK = "perfbench/spans.py traces this name here"


def load_use_sites():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.USE_SITES


@pytest.mark.parametrize("module_name, attr, span", load_use_sites())
def test_use_site_resolves_to_callable(module_name, attr, span):
    module = importlib.import_module(module_name)
    assert callable(getattr(module, attr, None)), f"{module_name}.{attr} ({span})"


def test_marked_imports_name_a_use_site():
    sites = {(module_name, attr) for module_name, attr, _ in load_use_sites()}
    marked = [
        (f"fuchsia.{path.stem}", re.search(r"(\w+),?\s*#", line).group(1))
        for path in sorted((ROOT / "src" / "fuchsia").glob("*.py"))
        for line in path.read_text(encoding="utf-8").splitlines()
        if MARK in line
    ]
    assert marked
    assert [site for site in marked if site not in sites] == []
