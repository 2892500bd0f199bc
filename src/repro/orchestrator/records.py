"""JSON-stable records for checkpointing campaign state.

A :class:`~repro.core.fuzzer.SeedBatch` holds, per tested program, each
configuration's :class:`~repro.core.differential.Cell` and the candidates
over those cells.  A record holds exactly that: per-type generation
counts, then per program its source, its cells as compact rows
``[compiler, sanitizer, level, status, kind, error]``, its discrepancy
counter, and candidates that name their cells by index.  So
``batch_from_record(batch_to_record(batch))`` equals *batch* but for the
seed's wall-clock duration and telemetry, which no record carries.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from enum import Enum
from typing import Dict

from repro.core.crash_site import OracleVerdict
from repro.core.differential import (
    Cell,
    DifferentialResult,
    FNBugCandidate,
    TestConfig,
    WrongReportCandidate,
)
from repro.core.fuzzer import CampaignConfig, SeedBatch
from repro.core.insertion import UBProgram
from repro.core.ub_types import UBType

RECORD_VERSION = 2


# ---------------------------------------------------------------------------
# Config fingerprinting
# ---------------------------------------------------------------------------

def _freeze(value):
    """Reduce a config value to stable, JSON-serializable data.

    Callables are identified by qualified name (never ``repr``, whose memory
    addresses change between runs); dataclasses — e.g. seeded
    :class:`~repro.sanitizers.defects.Defect` objects — are frozen field by
    field so two registries differing in *any* field fingerprint apart.
    """
    if isinstance(value, Enum):
        return value.value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {field.name: _freeze(getattr(value, field.name))
                for field in dataclasses.fields(value)}
    if callable(value):
        # Qualname alone collides for e.g. two lambdas born in one scope;
        # the bytecode digest and source position keep them apart while
        # staying stable across processes (unlike repr's memory address).
        name = getattr(value, "__qualname__", value.__class__.__name__)
        code = getattr(value, "__code__", None)
        if code is None:
            return name
        digest = hashlib.sha256(code.co_code).hexdigest()[:12]
        return f"{name}@{code.co_firstlineno}:{digest}"
    if isinstance(value, (list, tuple, set, frozenset)):
        items = [_freeze(item) for item in value]
        return sorted(items, key=repr) if isinstance(value, (set, frozenset)) else items
    if isinstance(value, dict):
        return {str(key): _freeze(val) for key, val in sorted(value.items())}
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    return repr(value)


def config_fingerprint(config: CampaignConfig) -> str:
    """A stable digest of *every* campaign knob.

    The payload is derived from ``dataclasses.fields`` so a future
    :class:`CampaignConfig` field is automatically part of the key — the
    cache and the checkpoint can never silently ignore a knob.  Used both to
    key the analysis-layer campaign cache and to refuse resuming a
    checkpoint against a different configuration.
    """
    payload = {field.name: _freeze(getattr(config, field.name))
               for field in dataclasses.fields(config)}
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")).hexdigest()
    return digest[:16]


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _program_record(program: UBProgram) -> dict:
    return {
        "source": program.source,
        "ub_type": program.ub_type.value,
        "seed_index": program.seed_index,
        "generator": program.generator,
        "description": program.description,
    }


def _cell_row(cell: Cell) -> list:
    status, kind = cell.verdict if cell.verdict is not None else (None, None)
    return [cell.config.compiler, cell.config.sanitizer,
            cell.config.opt_level, status, kind, cell.error]


def _diff_record(diff: DifferentialResult) -> dict:
    index = {id(cell): position for position, cell in enumerate(diff.cells)}
    return {
        "program": _program_record(diff.program),
        "cells": [_cell_row(cell) for cell in diff.cells],
        "optimization_discrepancies": diff.optimization_discrepancies,
        "fn_candidates": [
            {"detecting": index[id(c.detecting)],
             "missing": index[id(c.missing)],
             "crash_site": list(c.crash_site) if c.crash_site else None,
             "reason": c.verdict.reason}
            for c in diff.fn_candidates],
        "wrong_reports": [
            {"first": index[id(c.first)], "second": index[id(c.second)],
             "difference": c.difference}
            for c in diff.wrong_report_candidates],
    }


def batch_to_record(batch: SeedBatch) -> dict:
    """Flatten one seed batch into a JSON-serializable record.

    The seed's wall-clock duration is left out: nothing reads it from a
    restored batch, and without it one config always writes the same
    bytes."""
    return {
        "seed_index": batch.seed_index,
        "generated": batch.generated,
        "programs_generated": {ub.value: count
                               for ub, count in batch.programs_generated.items()},
        "diffs": [_diff_record(diff) for diff in batch.diff_results],
    }


# ---------------------------------------------------------------------------
# Deserialization
# ---------------------------------------------------------------------------

def _program_from(record: dict) -> UBProgram:
    return UBProgram(source=record["source"], ub_type=UBType(record["ub_type"]),
                     seed_index=record["seed_index"],
                     generator=record["generator"],
                     description=record["description"])


def _cell_from(row: list) -> Cell:
    compiler, sanitizer, opt_level, status, kind, error = row
    return Cell(TestConfig(compiler, sanitizer, opt_level),
                (status, kind) if status is not None else None, error)


def _diff_from(record: dict) -> DifferentialResult:
    program = _program_from(record["program"])
    cells = [_cell_from(row) for row in record["cells"]]
    return DifferentialResult(
        program=program,
        cells=cells,
        fn_candidates=[
            FNBugCandidate(
                program=program, detecting=cells[c["detecting"]],
                missing=cells[c["missing"]],
                verdict=OracleVerdict(
                    is_bug=True,
                    crash_site=(tuple(c["crash_site"]) if c["crash_site"]
                                else None),
                    reason=c["reason"]))
            for c in record["fn_candidates"]],
        wrong_report_candidates=[
            WrongReportCandidate(program=program, first=cells[c["first"]],
                                 second=cells[c["second"]],
                                 difference=c["difference"])
            for c in record["wrong_reports"]],
        optimization_discrepancies=record["optimization_discrepancies"])


def batch_from_record(record: dict) -> SeedBatch:
    """Rebuild the seed batch a checkpoint record was written from."""
    programs_generated: Dict[UBType, int] = {
        UBType(value): count
        for value, count in record["programs_generated"].items()}
    return SeedBatch(seed_index=record["seed_index"],
                     generated=record["generated"],
                     programs_generated=programs_generated,
                     diff_results=[_diff_from(diff)
                                   for diff in record["diffs"]])
