"""Static checks: ``repro.core`` imports no package that sits above it,
the checkpoint records import no package a run is made of, the seed
generator imports none of the packages its seeds feed, and an optimizer
pass takes nothing but the unit and its sema."""

import ast
import inspect
from pathlib import Path

import repro
from repro.optim import OptimizationPass

ROOT = Path(repro.__file__).resolve().parent
CORE = ROOT / "core"

#: Packages built on ``repro.core``: the findings database, the
#: orchestrator, triage, the marker engine, reduction, the paper's
#: analysis drivers and coverage.
UPPER_LAYERS = frozenset({"corpusdb", "orchestrator", "triage", "markers",
                          "reduction", "analysis", "coverage"})


def _imports_of(path: Path, packages: frozenset) -> list:
    """Every import of one of the ``repro`` *packages* in *path*, lazy ones
    too."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.module:
            # ``from repro import markers`` names the package as an alias.
            modules = [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        else:
            continue
        for module in modules:
            parts = module.split(".")
            if parts[0] == "repro" and len(parts) > 1 \
                    and parts[1] in packages:
                found.append(f"{path.name}:{node.lineno} {module}")
    return found


def test_core_imports_no_upper_layer():
    imports = [entry for path in sorted(CORE.rglob("*.py"))
               for entry in _imports_of(path, UPPER_LAYERS)]
    assert imports == []


def test_checkpoint_records_import_no_run_type():
    """A checkpoint record holds each cell's verdict, so restoring one
    needs no interpreter result, report or source location."""
    path = ROOT / "orchestrator" / "records.py"
    assert _imports_of(path, frozenset({"vm", "cdsl"})) == []


def test_seed_generator_imports_none_of_its_consumers():
    """A consumer hands the generator its acceptance check
    (``CsmithGenerator.generate(accept=)``), so the dependency points from
    the consumers to the generator, never back."""
    consumers = frozenset({"markers", "core", "compilers", "optim",
                           "reduction", "triage", "orchestrator",
                           "analysis"})
    path = ROOT / "seedgen" / "csmith.py"
    assert _imports_of(path, consumers) == []


def test_passes_take_the_unit_and_its_sema_only():
    """``run_pipelines`` runs a step that several pipelines share once,
    across compilers, releases and levels, and the optimized cache key
    names no release: both hold only while a pass can read none of them.
    So every pass defines ``run(self, unit, sema)`` and nothing more."""
    passes, pending = [], list(OptimizationPass.__subclasses__())
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        passes.append(cls)
    assert len(passes) >= 6
    for cls in [OptimizationPass, *passes]:
        assert "run" in vars(cls), cls.__name__
        assert list(inspect.signature(cls.run).parameters) == \
            ["self", "unit", "sema"], cls.__name__
