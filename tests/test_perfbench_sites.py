"""Every function the benchmark's traced pass wraps still exists where it is called.

``perfbench/spans.py`` replaces each ``(module, attribute)`` in ``USE_SITES``
by a timing wrapper; a renamed or removed function breaks ``--trace 1``.
The file is loaded by path, so the benchmark directory needs no package
marker and is not edited.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_use_sites():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.USE_SITES


@pytest.mark.parametrize("module_name, attr, span", load_use_sites())
def test_use_site_resolves_to_callable(module_name, attr, span):
    module = importlib.import_module(module_name)
    assert callable(getattr(module, attr, None)), f"{module_name}.{attr} ({span})"
