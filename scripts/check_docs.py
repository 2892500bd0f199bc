#!/usr/bin/env python
"""Doc-consistency check, run by CI and runnable locally:

    PYTHONPATH=src python scripts/check_docs.py [--no-run]

Asserts that the docs and the code cannot drift apart:

1. README's layout table lists every ``src/repro/*`` package (and nothing
   that does not exist);
2. every ``examples/*.py`` referenced anywhere in README.md or docs/*.md
   exists on disk — and conversely every example file is referenced;
3. every referenced example runs successfully under ``--smoke``
   (skipped with ``--no-run``);
4. every class/function re-exported in ``repro.__all__`` has a docstring;
5. every backticked dotted ``repro.…`` name in README.md or docs/*.md
   imports and resolves, so the docs cannot name deleted code.

Exit code 0 = consistent; 1 = at least one failure (all are reported).
"""

from __future__ import annotations

import importlib
import inspect
import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
DOC_FILES = [REPO / "README.md", *sorted((REPO / "docs").glob("*.md"))]

failures: list[str] = []


def fail(message: str) -> None:
    failures.append(message)
    print(f"FAIL: {message}")


def ok(message: str) -> None:
    print(f"  ok: {message}")


def check_layout_table() -> None:
    """README's layout table vs. the packages under src/repro/."""
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    listed = set(re.findall(r"^\|\s*`repro\.(\w+)`", readme, re.MULTILINE))
    actual = {path.parent.name
              for path in (REPO / "src" / "repro").glob("*/__init__.py")}
    for package in sorted(actual - listed):
        fail(f"README layout table is missing `repro.{package}`")
    for package in sorted(listed - actual):
        fail(f"README layout table lists `repro.{package}`, "
             f"which does not exist under src/repro/")
    if actual == listed:
        ok(f"README layout table covers all {len(actual)} repro.* packages")


def referenced_examples() -> set:
    names = set()
    for doc in DOC_FILES:
        text = doc.read_text(encoding="utf-8")
        names.update(re.findall(r"examples/(\w+\.py)", text))
    return names


def check_examples_exist() -> set:
    referenced = referenced_examples()
    existing = {path.name for path in (REPO / "examples").glob("*.py")}
    for name in sorted(referenced - existing):
        fail(f"docs reference examples/{name}, which does not exist")
    for name in sorted(existing - referenced):
        fail(f"examples/{name} is not referenced from README.md or docs/")
    if referenced == existing:
        ok(f"all {len(existing)} examples exist and are referenced in docs")
    return referenced & existing


def check_examples_run(names: set) -> None:
    for name in sorted(names):
        proc = subprocess.run(
            [sys.executable, str(REPO / "examples" / name), "--smoke"],
            cwd=str(REPO), capture_output=True, text=True, timeout=300,
            env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"})
        if proc.returncode != 0:
            tail = "\n".join(proc.stderr.splitlines()[-5:])
            fail(f"examples/{name} --smoke exited {proc.returncode}:\n{tail}")
        else:
            ok(f"examples/{name} --smoke ran clean")


def check_public_docstrings() -> None:
    sys.path.insert(0, str(REPO / "src"))
    import repro

    undocumented = []
    for name in repro.__all__:
        if name.startswith("__"):
            continue
        obj = getattr(repro, name)
        if not (inspect.isclass(obj) or inspect.isroutine(obj)):
            continue  # constants cannot carry docstrings; see docs/API.md
        if not inspect.getdoc(obj):
            undocumented.append(name)
    if undocumented:
        fail(f"public API without docstrings: {', '.join(undocumented)}")
    else:
        ok(f"every class/function in repro.__all__ has a docstring")


def _resolves(name: str) -> bool:
    """Does dotted *name* import as a module, or as attributes of one?"""
    parts = name.split(".")
    for split in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for attr in parts[split:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def check_dotted_names() -> None:
    """Every backticked dotted ``repro.…`` name in the docs resolves."""
    sys.path.insert(0, str(REPO / "src"))
    names = set()
    for doc in DOC_FILES:
        names.update(re.findall(r"`(repro(?:\.\w+)+)`",
                                doc.read_text(encoding="utf-8")))
    unresolved = [name for name in sorted(names) if not _resolves(name)]
    for name in unresolved:
        fail(f"docs name `{name}`, which does not import and resolve")
    if not unresolved:
        ok(f"all {len(names)} backticked repro.* names in docs resolve")


def main() -> int:
    run_examples = "--no-run" not in sys.argv
    print("== README layout table ==")
    check_layout_table()
    print("== examples referenced from docs ==")
    runnable = check_examples_exist()
    if run_examples:
        print("== examples run under --smoke ==")
        check_examples_run(runnable)
    print("== public API docstrings ==")
    check_public_docstrings()
    print("== dotted names in docs ==")
    check_dotted_names()
    if failures:
        print(f"\n{len(failures)} doc-consistency failure(s)")
        return 1
    print("\ndocs are consistent")
    return 0


if __name__ == "__main__":
    sys.exit(main())
