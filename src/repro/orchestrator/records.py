"""JSON-stable records for checkpointing campaign state.

A :class:`~repro.core.fuzzer.SeedBatch` carries full
:class:`~repro.core.differential.DifferentialResult` objects, which are too
heavy (per-config execution traces) to snapshot.  This module flattens a
batch into plain JSON data holding exactly what the campaign's *finalization*
needs — per-type generation counts, per-program discrepancy counters and the
candidate fields consumed by representative selection and triage — and
rebuilds "thin" batches from those records on resume.

Thin batches reproduce the exact same deduplicated bug reports and campaign
stats as the originals; only the raw per-configuration outcomes (used by the
RQ3 oracle-accuracy analysis) are absent, since they never survive a
checkpoint round-trip.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from enum import Enum
from typing import Dict, List, Optional

from repro.cdsl.source import SourceLocation
from repro.core.crash_site import OracleVerdict
from repro.core.differential import (
    ConfigOutcome,
    DifferentialResult,
    FNBugCandidate,
    TestConfig,
    WrongReportCandidate,
)
from repro.core.fuzzer import CampaignConfig, SeedBatch
from repro.core.insertion import UBProgram
from repro.core.ub_types import UBType
from repro.vm.errors import ExecutionResult, SanitizerReport

RECORD_VERSION = 1


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


def _config_record(config: TestConfig) -> dict:
    return {"compiler": config.compiler, "sanitizer": config.sanitizer,
            "opt_level": config.opt_level}


def _fn_record(candidate: FNBugCandidate) -> dict:
    report = (candidate.detecting.result.report
              if candidate.detecting.result is not None else None)
    return {
        "missing": _config_record(candidate.missing.config),
        "detecting": _config_record(candidate.detecting.config),
        "detecting_kind": report.kind if report is not None else None,
        "detecting_sanitizer": report.sanitizer if report is not None else None,
        "crash_site": list(candidate.crash_site) if candidate.crash_site else None,
        "reason": candidate.verdict.reason,
    }


def _wrong_record(candidate: WrongReportCandidate) -> dict:
    return {
        "first": _config_record(candidate.first.config),
        "second": _config_record(candidate.second.config),
        "difference": candidate.difference,
    }


def batch_to_record(batch: SeedBatch) -> dict:
    """Flatten one seed batch into a JSON-serializable record."""
    diffs: List[dict] = []
    for diff in batch.diff_results:
        diffs.append({
            "program": _program_record(diff.program),
            "optimization_discrepancies": diff.optimization_discrepancies,
            "fn_candidates": [_fn_record(c) for c in diff.fn_candidates],
            "wrong_reports": [_wrong_record(c) for c in diff.wrong_report_candidates],
        })
    return {
        "seed_index": batch.seed_index,
        "generated": batch.generated,
        "duration_seconds": batch.duration_seconds,
        "programs_generated": {ub.value: count
                               for ub, count in batch.programs_generated.items()},
        "surveyed_cells": batch.surveyed_cells,
        "skipped_cells": batch.skipped_cells,
        "diffs": diffs,
    }


# ---------------------------------------------------------------------------
# Deserialization
# ---------------------------------------------------------------------------

def _program_from(record: dict) -> UBProgram:
    return UBProgram(source=record["source"], ub_type=UBType(record["ub_type"]),
                     seed_index=record["seed_index"],
                     generator=record["generator"],
                     description=record["description"])


def _config_from(record: dict) -> TestConfig:
    return TestConfig(compiler=record["compiler"], sanitizer=record["sanitizer"],
                      opt_level=record["opt_level"])


def _fn_from(record: dict, program: UBProgram) -> FNBugCandidate:
    detecting_result: Optional[ExecutionResult] = None
    if record["detecting_kind"] is not None:
        report = SanitizerReport(sanitizer=record["detecting_sanitizer"] or "",
                                 kind=record["detecting_kind"],
                                 location=SourceLocation())
        detecting_result = ExecutionResult(status="sanitizer_report",
                                           report=report)
    crash_site = tuple(record["crash_site"]) if record["crash_site"] else None
    return FNBugCandidate(
        program=program,
        detecting=ConfigOutcome(_config_from(record["detecting"]),
                                detecting_result),
        missing=ConfigOutcome(_config_from(record["missing"]), None),
        verdict=OracleVerdict(is_bug=True, crash_site=crash_site,
                              reason=record["reason"]))


def _wrong_from(record: dict, program: UBProgram) -> WrongReportCandidate:
    return WrongReportCandidate(
        program=program,
        first=ConfigOutcome(_config_from(record["first"]), None),
        second=ConfigOutcome(_config_from(record["second"]), None),
        difference=record["difference"])


def batch_from_record(record: dict) -> SeedBatch:
    """Rebuild a (thin) seed batch from a checkpoint record."""
    diff_results: List[DifferentialResult] = []
    for diff in record["diffs"]:
        program = _program_from(diff["program"])
        diff_results.append(DifferentialResult(
            program=program,
            outcomes=[],
            fn_candidates=[_fn_from(c, program) for c in diff["fn_candidates"]],
            wrong_report_candidates=[_wrong_from(c, program)
                                     for c in diff["wrong_reports"]],
            optimization_discrepancies=diff["optimization_discrepancies"]))
    programs_generated: Dict[UBType, int] = {
        UBType(value): count
        for value, count in record["programs_generated"].items()}
    return SeedBatch(seed_index=record["seed_index"],
                     generated=record["generated"],
                     programs_generated=programs_generated,
                     diff_results=diff_results,
                     duration_seconds=record["duration_seconds"],
                     surveyed_cells=record["surveyed_cells"],
                     skipped_cells=record["skipped_cells"])
