"""Every name the benchmark's tracer wraps still exists in the package.

``bench/tracing.py`` patches functions by module and attribute name, so
deleting or renaming one breaks the traced benchmark run.  This reads the
tracer's own tables and resolves each entry the way it does.  The same
tables are the only licence for an import that its module never reads: the
tracer counts calls through such a name, so it must stay bound.  The
``canonical.*`` spans wrap ``CanonicalWordSet``'s methods, so that must be
the walk ``build_gamma`` runs, and the tracer's counts must build no
forcing word.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import crautomata.gamma as gamma_module
from crautomata import fixed_example
from crautomata.canonical import CanonicalWordSet

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "bench" / "tracing.py"
PACKAGE = ROOT / "src" / "crautomata"


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


def _imported_and_read(tree):
    """Names bound by the module's imports, and every name it reads.

    A name read as the base of an attribute, or inside an annotation, is an
    ``ast.Name`` too.
    """
    imported, read = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(
                alias.asname or alias.name.split(".")[0] for alias in node.names
            )
        elif isinstance(node, ast.Name):
            read.add(node.id)
    return imported, read


def test_no_unread_imports(tracing):
    counted = {(module, name) for _, module, name in tracing.COUNTED}
    paths = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert paths
    unread = []
    for path in paths:
        imported, read = _imported_and_read(ast.parse(path.read_text()))
        module = f"crautomata.{path.stem}"
        unread += [
            f"{module}.{name}"
            for name in sorted(imported - read)
            if (module, name) not in counted
        ]
    assert unread == []


def test_canonical_spans_time_the_decisions_walk(tracing, decodes):
    walks = [
        value
        for value in vars(gamma_module).values()
        if isinstance(value, type) and issubclass(value, CanonicalWordSet)
    ]
    assert walks == [CanonicalWordSet]
    tracer = tracing.Tracer()
    tracer.start_pass()
    tracer.install()
    try:
        result = gamma_module.build_gamma(fixed_example("e5"))
    finally:
        tracer.uninstall()
    counts = tracer.counts
    assert counts["canonical.grow_calls"] == result.terminal_step == 3
    assert counts["canonical.select_calls"] == result.terminal_step
    assert counts["canonical.signatures"] > 0
    # Counting forced edges reads len(level.forcing), which builds no word.
    assert counts["gamma.edges_forced"] > 0 and decodes == []
