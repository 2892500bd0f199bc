"""The validated seed hand-off: a seed carries the parse its validation
built, and the planter and the UB generator read that parse instead of
parsing the seed again, with results identical to working from the text
and the parse itself left untouched."""

from __future__ import annotations

import pytest

from repro.cdsl.printer import print_program
from repro.cdsl.visitor import walk
from repro.core.ubgen import UBGenerator
from repro.markers import MarkerPlanter
from repro.seedgen import CsmithGenerator, GeneratorConfig

SEED_INDICES = (0, 3, 5)


@pytest.fixture(scope="module")
def seeds():
    generator = CsmithGenerator(GeneratorConfig(seed=31))
    return [generator.generate(index) for index in SEED_INDICES]


def _annotations(unit):
    return [(node, getattr(node, "ctype", None), getattr(node, "symbol", None))
            for node in walk(unit)]


def test_validated_seed_carries_its_analyzed_parse(seeds):
    for seed in seeds:
        unit, sema = seed.analyzed
        assert sema is not None
        assert print_program(unit) == seed.source
        assert "analyzed" not in repr(seed)


def test_unvalidated_seed_carries_no_parse():
    seed = CsmithGenerator(GeneratorConfig(seed=31)).generate(0,
                                                              validate=False)
    assert seed.analyzed is None


def test_planting_from_the_parse_equals_planting_from_the_text(seeds):
    planter = MarkerPlanter()
    for seed in seeds:
        from_unit = planter.plant(seed.analyzed[0], seed_index=seed.index)
        from_text = planter.plant(seed.source, seed_index=seed.index)
        assert from_unit == from_text
        assert from_unit.base_source == seed.source


def test_generating_from_the_seed_equals_generating_from_its_text(seeds):
    generator = UBGenerator(seed=2, max_programs_per_type=1)
    for seed in seeds:
        from_seed = generator.generate_all(seed)
        from_text = generator.generate_all(seed.source, seed_index=seed.index)
        assert from_seed == from_text
        assert any(from_seed.values())


def test_consumers_leave_the_seed_parse_untouched(seeds):
    planter = MarkerPlanter()
    generator = UBGenerator(seed=2, max_programs_per_type=1)
    for seed in seeds:
        unit = seed.analyzed[0]
        before = _annotations(unit)
        planter.plant(unit, seed_index=seed.index)
        generator.generate_all(seed)
        generator.generate_all(seed)
        assert print_program(unit) == seed.source
        after = _annotations(unit)
        assert len(after) == len(before)
        for (node, ctype, symbol), (node_after, ctype_after,
                                    symbol_after) in zip(before, after):
            assert node_after is node
            assert ctype_after is ctype
            assert symbol_after is symbol
