"""Static check: ``repro.core`` imports no package that sits above it."""

import ast
from pathlib import Path

import repro

CORE = Path(repro.__file__).resolve().parent / "core"

#: Packages built on ``repro.core``: the findings database, the
#: orchestrator, triage, the marker engine, reduction, the paper's
#: analysis drivers and coverage.
UPPER_LAYERS = frozenset({"corpusdb", "orchestrator", "triage", "markers",
                          "reduction", "analysis", "coverage"})


def _upper_layer_imports(path: Path) -> list:
    """Every import of an upper-layer package in *path*, lazy ones too."""
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
                    and parts[1] in UPPER_LAYERS:
                found.append(f"{path.name}:{node.lineno} {module}")
    return found


def test_core_imports_no_upper_layer():
    imports = [entry for path in sorted(CORE.rglob("*.py"))
               for entry in _upper_layer_imports(path)]
    assert imports == []
