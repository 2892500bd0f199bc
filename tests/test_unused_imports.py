"""Static check: no program module keeps an import it does not use."""

import ast
from pathlib import Path

import repro

ROOT = Path(repro.__file__).resolve().parent


def _unused_imports(path: Path) -> list:
    """Names bound by a module-level import of *path* that occur nowhere
    else in the module as a name, nor in its ``__all__``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(target, ast.Name) and target.id == "__all__"
                        for target in node.targets)):
            used.update(element.value for element in node.value.elts)
    return [f"{path.relative_to(ROOT)}:{line} {name}"
            for name, line in bound.items() if name not in used]


def test_no_module_keeps_an_unused_import():
    """``__init__.py`` files are exempt: their imports are re-exports."""
    unused = [entry for path in sorted(ROOT.rglob("*.py"))
              if path.name != "__init__.py"
              for entry in _unused_imports(path)]
    assert unused == []
