"""The fn-bug gallery's headline discrepancies.

Every hand-written figure entry of examples/fn_bug_gallery.py pairs a
*detecting* configuration with a *missing* one: the detecting binary must
crash with a sanitizer report and the missing binary must exit normally.
The slow-tier gallery reduction tests build on exactly this discrepancy.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro.compilers import GccCompiler, LlvmCompiler

EXAMPLES_DIR = str(Path(__file__).resolve().parents[2] / "examples")
if EXAMPLES_DIR not in sys.path:
    sys.path.insert(0, EXAMPLES_DIR)

import fn_bug_gallery  # noqa: E402


def _run(config, source):
    compiler = (GccCompiler(version=13) if config.compiler == "gcc"
                else LlvmCompiler(version=17))
    return compiler.compile(source, opt_level=config.opt_level,
                            sanitizer=config.sanitizer).run()


@pytest.mark.parametrize("entry", fn_bug_gallery.GALLERY,
                         ids=[title.split(":")[0] for title, *_ in
                              fn_bug_gallery.GALLERY])
def test_figure_entry_shows_the_fn_discrepancy(entry):
    title, source, _, detecting, missing = entry
    assert _run(detecting, source).crashed, title
    assert _run(missing, source).exited_normally, title
