"""DSE's one-walk dead-symbol analysis against the three-walk reference.

``reference_dse`` keeps the analysis the one-walk traversal replaced.
The two must agree on hand-written store targets and at every DSE
fixpoint step of the optimizer pipelines over generated programs.
"""

import pytest

from repro.cdsl import analyze, ast_nodes as ast, parse_program
from repro.cdsl.visitor import find_nodes
from repro.optim import dse
from repro.optim.passes import OptimizationContext
from repro.optim.pipelines import pipeline_for

from reference_dse import reference_dead_symbols

PRELUDE = "struct S { int f; };\n"

#: (statements of main, the locals DSE calls dead).  Every body declares
#: ``int x``, ``int i``, ``int a[4]``, ``struct S s`` and ``struct S *p =
#: &s`` and reads none of them outside the statements; ``s`` is a struct,
#: which DSE never removes.
CASES = [
    # The index of a plain target is read, every identifier in it.
    ("a[i = 3] = 5;", {"a", "p", "x"}),
    # A compound-assignment target is read.
    ("x += 1;", {"a", "i", "p"}),
    # ``->`` reads its pointer; ``.`` on a plain target does not.
    ("p->f = 1;", {"a", "i", "x"}),
    ("s.f = 1;", {"a", "i", "p", "x"}),
    # The pointer of a ``*`` target is read, and ``&x`` makes x escape.
    ("*(&x) = 5;", {"a", "i", "p"}),
    # An index's ``++`` operand is read.
    ("a[x++] = 0;", {"a", "i", "p"}),
    ("volatile int v; v = 1;", {"a", "i", "p", "x"}),
    # ``&a[i]`` makes a escape and reads i.
    ("int *q = &a[i]; *q = 1;", {"p", "x"}),
]


def _main(body: str):
    unit = parse_program(
        PRELUDE + "int main() { int x = 0; int i = 0; int a[4];"
        " struct S s; struct S *p = &s; " + body + " return 0; }")
    analyze(unit)
    return unit.function_named("main")


def _names(fn, uids) -> set:
    return {decl.name for decl in find_nodes(fn, ast.VarDecl)
            if decl.symbol is not None and decl.symbol.uid in uids}


@pytest.mark.parametrize("body,expected", CASES,
                         ids=[body for body, _ in CASES])
def test_hand_written_targets_match_the_reference(body, expected):
    fn = _main(body)
    dead = dse._dead_symbols(fn)
    assert dead == reference_dead_symbols(fn)
    assert _names(fn, dead) == expected


def test_every_fixpoint_step_matches_the_reference(
        sample_seeds, sample_ub_programs, monkeypatch):
    """Over every function of generated seeds and their UB programs, under
    ``-O2`` and ``-O3`` of both compilers, DSE's analysis equals the
    reference's at each fixpoint step."""
    one_walk = dse._dead_symbols
    steps = []

    def checked(fn):
        dead = one_walk(fn)
        assert dead == reference_dead_symbols(fn), fn.name
        steps.append(bool(dead))
        return dead

    monkeypatch.setattr(dse, "_dead_symbols", checked)
    sources = [seed.source for seed in sample_seeds]
    sources += [program.source for programs in sample_ub_programs.values()
                for program in programs]
    for source in sources:
        for compiler in ("gcc", "llvm"):
            for level in ("-O2", "-O3"):
                unit = parse_program(source)
                sema = analyze(unit)
                pipeline_for(compiler, level).run(
                    unit, sema, OptimizationContext())
    assert len(sources) >= 10
    assert any(steps) and not all(steps)
