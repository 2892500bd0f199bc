"""The doc-consistency script's dotted-name check: the docs may name only
``repro`` code that imports and resolves."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "check_docs.py"


def _load_check_docs():
    """A fresh copy of the script as a module, with no failures recorded."""
    spec = importlib.util.spec_from_file_location("check_docs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_dotted_name_check_flags_deleted_code(tmp_path, monkeypatch):
    check_docs = _load_check_docs()
    doc = tmp_path / "doc.md"
    doc.write_text("`repro.core.differential.Cell` and `repro.orchestrator` "
                   "stay; `repro.analysis.table_bucket_lifetimes` and "
                   "`repro.reduction.predicates.make_signature_predicate` "
                   "went.\n", encoding="utf-8")
    monkeypatch.setattr(check_docs, "DOC_FILES", [doc])
    check_docs.check_dotted_names()
    assert check_docs.failures == [
        f"docs name `{name}`, which does not import and resolve"
        for name in ("repro.analysis.table_bucket_lifetimes",
                     "repro.reduction.predicates.make_signature_predicate")]


def test_docs_name_only_code_that_resolves():
    check_docs = _load_check_docs()
    check_docs.check_dotted_names()
    assert check_docs.failures == []
