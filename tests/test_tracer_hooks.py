"""Every name the benchmark's tracer wraps still exists in the package.

``bench/tracing.py`` patches functions by module and attribute name, so
deleting or renaming one breaks the traced benchmark run.  This reads the
tracer's own tables and resolves each entry the way it does.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve(tracing):
    targets = list(tracing.SPANS.values())
    targets += [(module, attr) for _, module, attr in tracing.COUNTED]
    assert targets
    for module, attr in targets:
        importlib.import_module(module)
        owner, name = tracing._resolve(module, attr)
        assert callable(getattr(owner, name, None)), f"{module}.{attr}"
