"""The frontend against its reference, and the printer/parser fixed point.

The inputs are what the campaign parses: Csmith-like seeds, MUSIC mutants,
Juliet cases and every UB program generated from ``sample_seeds``.  The
reference (``reference_frontend``) is the character-at-a-time lexer and
the per-level recursive binary parser that the regex lexer and precedence
climbing replaced.
"""

import random

import pytest
from reference_frontend import ReferenceParser

from repro.cdsl.parser import Parser, parse_program
from repro.cdsl.printer import print_program
from repro.cdsl.visitor import walk
from repro.seedgen import MusicMutator, generate_juliet_suite
from repro.utils.errors import ReproError

#: Fragments spliced into corrupted inputs: each opens or closes a token
#: class whose error handling differs between a regex and a hand lexer.
_SPLICES = ['"', "'", "/*", "*/", "//", "\\", "0x", "08", "#", "`", "$",
            "\t", "\r", "\x0c", "\n"]
_ASCII = [chr(code) for code in range(32, 127)] + ["\n", "\t", "\x00"]


@pytest.fixture(scope="module")
def frontend_sources(sample_seeds, sample_seed, ub_generator):
    sources = [seed.source for seed in sample_seeds]
    sources += [m.source for m in MusicMutator(seed=1).mutate(sample_seed,
                                                              count=8)]
    sources += [case.source for case in generate_juliet_suite(cases_per_type=1)]
    for seed in sample_seeds:
        for programs in ub_generator.generate_all(seed).values():
            sources += [program.source for program in programs]
    return sources


def _shape(unit):
    """Preorder (node type, location, node id relative to the root)."""
    nodes = list(walk(unit))
    first = nodes[0].node_id
    return [(type(node).__name__, node.loc, node.node_id - first)
            for node in nodes]


def _error(exc):
    return type(exc).__name__, str(exc), exc.line, exc.col


def _outcome(parser_class, source):
    """The tokens and the printed program of *source*; an error stands in
    for what it prevented as (class, message, line, column)."""
    try:
        parser = parser_class(source)
    except ReproError as exc:
        return _error(exc)
    try:
        return parser.tokens, print_program(parser.parse_translation_unit())
    except ReproError as exc:
        return parser.tokens, _error(exc)


def test_frontend_matches_reference(frontend_sources):
    assert len(frontend_sources) > 50
    for source in frontend_sources:
        parser, reference = Parser(source), ReferenceParser(source)
        assert parser.tokens == reference.tokens
        unit = parser.parse_translation_unit()
        reference_unit = reference.parse_translation_unit()
        assert print_program(unit) == print_program(reference_unit)
        assert _shape(unit) == _shape(reference_unit)


def test_printing_a_parsed_program_is_a_fixed_point(frontend_sources):
    for source in frontend_sources:
        printed = print_program(parse_program(source))
        assert print_program(parse_program(printed)) == printed


def _corruptions(source, rng, count):
    for _ in range(count):
        i = rng.randrange(len(source) + 1)
        choice = rng.randrange(3)
        if choice == 0:
            yield source[:i]
        elif choice == 1:
            yield source[:i] + rng.choice(_ASCII) + source[i + 1:]
        else:
            yield source[:i] + rng.choice(_SPLICES) + source[i:]


def test_corrupted_inputs_lex_and_fail_like_the_reference(frontend_sources):
    rng = random.Random(16)
    lex_errors = parse_errors = 0
    for source in frontend_sources:
        for corrupted in _corruptions(source, rng, 3):
            outcome = _outcome(Parser, corrupted)
            assert outcome == _outcome(ReferenceParser, corrupted), corrupted
            if isinstance(outcome[0], str):
                lex_errors += 1
            elif isinstance(outcome[1], tuple):
                parse_errors += 1
    assert lex_errors > 10 and parse_errors > 10
