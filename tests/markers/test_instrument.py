"""Tests for the marker-planting instrumentation pass."""

from __future__ import annotations

import pytest

from repro.cdsl import analyze, parse_program
from repro.markers import MarkerPlanter, marker_calls
from repro.markers.instrument import (
    CONTEXT_FN_ENTRY,
    CONTEXT_IF_ELSE,
    CONTEXT_IF_THEN,
    CONTEXT_LOOP_BODY,
)
from repro.seedgen import CsmithGenerator, GeneratorConfig

SOURCE = """\
int helper(int x) { if (x) { return 1; } return 2; }
int main() {
  int c = 0;
  if (c) { c = 5; }
  for (int i = 0; i < 3; i++) { c += 1; }
  while (c > 10) { c -= 1; }
  return c;
}
"""


def plant(source=SOURCE):
    return MarkerPlanter().plant(source)


def test_every_branch_arm_and_loop_gets_a_marker():
    marked = plant()
    contexts = [site.context for site in marked.sites]
    # helper: entry, if-then, if-else; main: entry, if-then, if-else,
    # for-body, while-body.
    assert contexts.count(CONTEXT_FN_ENTRY) == 2
    assert contexts.count(CONTEXT_IF_THEN) == 2
    assert contexts.count(CONTEXT_IF_ELSE) == 2
    assert contexts.count(CONTEXT_LOOP_BODY) == 2


def test_instrumented_source_parses_analyzes_and_declares_markers():
    marked = plant()
    unit = parse_program(marked.source)
    analyze(unit)  # prototypes make every marker call resolvable
    assert set(marker_calls(unit)) == set(marked.marker_names)


def test_planting_is_deterministic():
    first = plant()
    second = plant()
    assert first.source == second.source
    assert first.sites == second.sites


def test_sites_record_function_context_and_line():
    marked = plant()
    lines = marked.source.splitlines()
    for site in marked.sites:
        assert site.line > 0
        assert f"{site.name}();" in lines[site.line - 1]
        assert site.function in ("helper", "main")
    assert marked.site_named(marked.sites[0].name) is marked.sites[0]
    assert marked.site_named("__no_such_marker_") is None


def test_missing_else_arm_is_synthesized_with_a_marker():
    marked = plant("int main() { int c = 1; if (c) { c = 2; } return c; }")
    contexts = {site.context for site in marked.sites}
    assert CONTEXT_IF_ELSE in contexts
    assert "else" in marked.source


def test_nested_branches_are_instrumented():
    marked = plant("""\
int main() {
  int c = 1;
  if (c) { if (c > 0) { c = 2; } }
  return c;
}
""")
    contexts = [s.context for s in marked.sites]
    assert contexts.count(CONTEXT_IF_THEN) == 2
    assert contexts.count(CONTEXT_IF_ELSE) == 2


def test_base_source_and_prefix_are_recorded():
    marked = MarkerPlanter(prefix="__probe_").plant(SOURCE, seed_index=7)
    assert marked.base_source == SOURCE
    assert marked.prefix == "__probe_"
    assert marked.seed_index == 7
    assert all(site.name.startswith("__probe_") for site in marked.sites)


@pytest.mark.parametrize("prefix", ["__ubfm_", "__probe_"])
def test_each_sites_line_is_the_first_line_calling_its_marker(prefix):
    """On generated seeds, whose markers run past ten (so ``__ubfm_1_``
    and ``__ubfm_11_`` both exist), each site's line is the first line
    whose text contains ``<name>();``."""
    generator = CsmithGenerator(GeneratorConfig(seed=11))
    planter = MarkerPlanter(prefix=prefix)
    planted = []
    for index in range(6):
        marked = planter.plant(generator.generate(index).source)
        planted.append(len(marked.sites))
        lines = marked.source.splitlines()
        for site in marked.sites:
            first = next(number for number, line in enumerate(lines, start=1)
                         if f"{site.name}();" in line)
            assert site.line == first
    assert max(planted) > 11


def test_planting_a_tree_in_place_equals_planting_a_parse_of_its_text():
    """The generator's own tree, given with its text, plants to the marked
    program a parse of that text plants to, and is the tree that carries
    the markers."""
    generator = CsmithGenerator(GeneratorConfig(seed=11))
    planter = MarkerPlanter()
    for index in range(4):
        captured = []
        seed = generator.generate(
            index, accept=lambda attempt: captured.append(attempt) or "")
        unit = captured[-1].unit
        marked = planter.plant(unit, index, base_source=seed.source)
        assert marked == planter.plant(seed.source, seed_index=index)
        assert marked.base_source == seed.source
        assert set(marker_calls(unit)) == set(marked.marker_names)
