"""One execution per marker seed: the engine accepts each seed through the
reference run of its planted program, and falls back to the seed's own
run when that run does not settle validity.  Either way it keeps the seed,
marked program and liveness the unchanged pieces give: the plain
generator, a plant of the validated parse and a liveness run."""

from __future__ import annotations

import pytest

from repro.cdsl import analyze, ast_nodes as ast, parse_program
from repro.cdsl.visitor import walk
from repro.markers import (
    EliminationOracle,
    MarkerCampaignConfig,
    MarkerEngine,
    MarkerPlanter,
)
from repro.markers import engine as engine_module
from repro.seedgen import CsmithGenerator, GeneratorConfig, csmith
from repro.telemetry import runtime as telemetry
from repro.vm import interpreter, run_program

SMALL = dict(num_seeds=2, rng_seed=7,
             versions={"gcc": [10, 11, 12, 14], "llvm": [13, 14, 16, 18]})


def _reference(config, index):
    """The seed, its marked program and the marker calls of that
    program's reference run, from the plain generator, a plant of the
    validated parse and a liveness run."""
    seed = CsmithGenerator(GeneratorConfig(seed=config.rng_seed)).generate(
        index)
    marked = MarkerPlanter(prefix=config.marker_prefix).plant(
        seed.analyzed[0], seed_index=index)
    reached, _ = EliminationOracle(max_steps=config.max_steps).liveness(marked)
    return seed, marked, reached


def _batch_view(batch):
    return (batch.generated, batch.planted, batch.live_markers,
            batch.findings, batch.survival, batch.configs_surveyed)


def _reference_batch(engine, index):
    """What :meth:`MarkerEngine.run_seed` must report for *index*: the
    reference pieces, surveyed and classified by the engine."""
    _, marked, reached = _reference(engine.config, index)
    live = frozenset(reached or ())
    findings, survival, configs = (engine._survey(marked, live)
                                   if reached is not None else ([], {}, 0))
    return (True, len(marked.sites), len(live), findings, survival, configs)


@pytest.fixture()
def vm_runs(monkeypatch):
    """The result of every interpreter run, in order."""
    runs = []
    real_run = interpreter.Interpreter.run

    def counting_run(self):
        result = real_run(self)
        runs.append(result)
        return result

    monkeypatch.setattr(interpreter.Interpreter, "run", counting_run)
    return runs


def _spoil_attempt_zero(monkeypatch, spoil):
    """Make attempt 0 of every seed index build the program *spoil* makes
    of the builder's tree."""
    salts = []
    real_derive, real_build = csmith.derive_seed, csmith._ProgramBuilder.build

    def recording_derive(seed, salt):
        salts.append(salt)
        return real_derive(seed, salt)

    def build(self):
        unit = real_build(self)
        if salts[-1] % 31 == 0:
            spoil(unit)
        return unit

    monkeypatch.setattr(csmith, "derive_seed", recording_derive)
    monkeypatch.setattr(csmith._ProgramBuilder, "build", build)


@pytest.fixture()
def reject_first_attempt(monkeypatch):
    """Attempt 0 of every seed index builds a program without ``main``,
    which the VM refuses to run, planted or not."""
    def rename_main(unit):
        unit.function_named("main").name = "not_main"

    _spoil_attempt_zero(monkeypatch, rename_main)


@pytest.fixture()
def undeclared_first_attempt(monkeypatch):
    """Attempt 0 of every seed index uses an undeclared identifier in
    ``main``, so its text, planted or not, fails analysis."""
    def rename_identifier(unit):
        next(node for node in walk(unit.function_named("main"))
             if isinstance(node, ast.Identifier)).name = "undeclared_0"

    _spoil_attempt_zero(monkeypatch, rename_identifier)


def test_run_seed_executes_each_seed_once(vm_runs):
    engine = MarkerEngine(MarkerCampaignConfig(**SMALL))
    for index in range(SMALL["num_seeds"]):
        vm_runs.clear()
        batch = engine.run_seed(index)
        assert len(vm_runs) == 1
        assert batch.configs_surveyed
        assert _batch_view(batch) == _reference_batch(engine, index)


def test_a_planted_run_that_times_out_falls_back_to_the_seed(vm_runs):
    """Under a step budget smaller than the seed's run, the planted run
    settles nothing; the seed's own run accepts it, and the seed keeps
    the planted run's liveness: none."""
    engine = MarkerEngine(MarkerCampaignConfig(**dict(SMALL, max_steps=1_000)))
    for index in range(SMALL["num_seeds"]):
        vm_runs.clear()
        batch = engine.run_seed(index)
        assert [run.status for run in vm_runs] == ["timeout", "ok"]
        assert batch.live_markers == 0 and not batch.configs_surveyed
        assert _batch_view(batch) == _reference_batch(engine, index)
        assert engine._marked_seed(index) == _reference(engine.config,
                                                        index)[1:]


def test_a_planted_run_over_the_validation_budget_falls_back_to_the_seed(
        vm_runs, monkeypatch):
    """With the validation budget at the seed's own steps, the planted run
    (which adds marker calls) exceeds it and cannot accept the seed alone;
    the seed's own run still does."""
    engine = MarkerEngine(MarkerCampaignConfig(**SMALL))
    seed, marked, _ = _reference(engine.config, 0)
    own = run_program(*seed.analyzed).steps
    _, planted = EliminationOracle().liveness(marked)
    assert own < planted
    for module in (csmith, engine_module):
        monkeypatch.setattr(module, "VALIDATION_MAX_STEPS", own)
    vm_runs.clear()
    batch = engine.run_seed(0)
    assert [(run.status, run.steps) for run in vm_runs] == [
        ("ok", planted), ("ok", own)]
    assert batch.configs_surveyed
    assert _batch_view(batch) == _reference_batch(engine, 0)


def test_engine_and_generator_pick_the_same_attempt(reject_first_attempt):
    config = MarkerCampaignConfig(**SMALL)
    engine = MarkerEngine(config)
    session = telemetry.enable(campaign="t-engine-rejects-attempt")
    try:
        marked, reached = engine._marked_seed(0)
    finally:
        telemetry.disable()
    seed, reference_marked, reference_reached = _reference(config, 0)
    assert seed.metadata["attempt"] == 1
    assert (marked, reached) == (reference_marked, reference_reached)
    assert marked.base_source == seed.source
    assert session.metrics.counter_value("seedgen.invalid_attempts") == 1


def test_engine_rejects_an_attempt_whose_text_fails_analysis(
        undeclared_first_attempt, vm_runs):
    """The marked text of attempt 0 fails analysis, so the liveness run
    never starts and the seed's own check rejects the attempt as a
    frontend failure, as the plain generator does; attempt 1 is the
    seed, validated by its one planted run."""
    config = MarkerCampaignConfig(**SMALL)
    engine = MarkerEngine(config)
    session = telemetry.enable(campaign="t-engine-rejects-analysis")
    try:
        marked, reached = engine._marked_seed(0)
    finally:
        telemetry.disable()
    assert len(vm_runs) == 1
    assert session.metrics.counter_value("seedgen.invalid_attempts") == 1
    seed, reference_marked, reference_reached = _reference(config, 0)
    assert seed.metadata["attempt"] == 1
    assert (marked, reached) == (reference_marked, reference_reached)
    assert marked.base_source == seed.source


@pytest.mark.slow
@pytest.mark.parametrize("rng_seed", range(41))
def test_engine_accepts_the_plain_generators_seeds(rng_seed):
    """The accepted seed set is the plain generator's: for ten indices,
    the engine's seed text, marked text and marker calls equal the
    reference's, and each seed's own run matches its planted run in
    everything but the marker calls, in no more steps."""
    config = MarkerCampaignConfig(rng_seed=rng_seed)
    engine = MarkerEngine(config)
    for index in range(10):
        seed, marked, reached = _reference(config, index)
        assert engine._marked_seed(index) == (marked, reached)
        assert marked.base_source == seed.source
        own = run_program(*seed.analyzed, max_steps=config.max_steps)
        unit = parse_program(marked.source)
        planted = run_program(unit, analyze(unit), max_steps=config.max_steps)
        assert (own.status, own.exit_code, own.stdout) == \
            (planted.status, planted.exit_code, planted.stdout)
        assert own.steps <= planted.steps
