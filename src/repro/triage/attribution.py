"""From a findings-database bucket to a recorded known bug.

:func:`attribute_bucket` is the glue the ``bisect`` CLI drives: it loads a
bucket's representative program out of the
:class:`~repro.corpusdb.FindingsDB`, rebuilds the probe the finding came
from (a :class:`~repro.triage.probes.CrashProbe` for crash buckets, a
:class:`~repro.triage.probes.MarkerProbe` for marker buckets), bisects the
release timeline, and persists the result as a row in the known-bug patch
database — after which campaigns sharing the database auto-suppress the
bucket instead of re-filing it (DEAD's ``patchdatabase`` workflow).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.compilers.cache import CompilationCache
from repro.compilers.versions import trunk_version
from repro.core.ub_types import UBType
from repro.corpusdb import CRASH_KIND, FindingsDB
from repro.markers.engine import UNSOUND_ELIMINATION
from repro.optim.pipelines import PASS_INTRODUCED
from repro.sanitizers.defects import Defect
from repro.triage.bisector import (BisectionError, BisectionResult,
                                   RevisionBisector)
from repro.triage.probes import CrashProbe, MarkerProbe


@dataclass
class Attribution:
    """One bisected bucket: where its behaviour lives and which event owns it."""

    kind: str
    signature: str
    slug: str
    compiler: str
    result: BisectionResult

    @property
    def responsible(self) -> str:
        return self.result.responsible

    @property
    def status(self) -> str:
        """``fixed`` when the window closes before the newest release."""
        return "fixed" if self.result.fixed is not None else "open"

    def to_json(self) -> dict:
        record = self.result.to_json()
        record.update({"kind": self.kind, "signature": self.signature,
                       "slug": self.slug, "status": self.status})
        return record


def _bucket_config(db: FindingsDB, bucket_id: int) -> str:
    """The first recorded hit config of a bucket (read-only lookup)."""
    row = db.connection.execute(
        "SELECT config FROM corpus_bucket_hits "
        "WHERE bucket_id = ? AND config != '' ORDER BY rowid LIMIT 1",
        (bucket_id,)).fetchone()
    return row["config"] if row is not None else ""


def _bucket_source(db: FindingsDB, bucket_id: int) -> str:
    digests = db.bucket_digests(bucket_id)
    if not digests:
        raise BisectionError(f"bucket {bucket_id} has no stored program")
    source = db.get_program(digests[0])
    if source is None:
        raise BisectionError(f"program {digests[0]} missing from database")
    return source


def _bisect_crash_bucket(db: FindingsDB, bucket: dict,
                         registry: Optional[Sequence[Defect]],
                         cache: Optional[CompilationCache],
                         max_steps: int) -> BisectionResult:
    _, ub_type, _, sanitizer = json.loads(bucket["signature"])
    config = _bucket_config(db, bucket["id"])
    if not config:
        raise BisectionError(f"bucket {bucket['slug']} has no hit config")
    # Crash hit configs are TestConfig labels: "gcc -O2 -fsanitize=asan".
    compiler, opt_level = config.split()[:2]
    probe = CrashProbe(_bucket_source(db, bucket["id"]), UBType(ub_type),
                       compiler, sanitizer, opt_level, registry=registry,
                       cache=cache, max_steps=max_steps)
    bisector = RevisionBisector(compiler)
    # FN campaigns observe misses on trunk; a finding filed against an
    # older database may no longer reproduce there, so fall back to an
    # anchor sweep before giving up.
    anchor = bisector.find_anchor(probe, preferred=trunk_version(compiler))
    if anchor is None:
        raise BisectionError(
            f"bucket {bucket['slug']} not reproducible at any release")
    return bisector.bisect(probe, anchor, relevant=probe.relevant)


def _bisect_marker_bucket(db: FindingsDB, bucket: dict,
                          cache: Optional[CompilationCache],
                          ) -> BisectionResult:
    kind, compiler, _, _, name, responsible_pass = json.loads(
        bucket["signature"])
    config = _bucket_config(db, bucket["id"])
    if not config:
        raise BisectionError(f"bucket {bucket['slug']} has no hit config")
    # Marker hit configs read "gcc-11 -O2" (raw version, never "trunk").
    version_token, opt_level = config.split()[:2]
    observed = int(version_token.rsplit("-", 1)[1])
    probe = MarkerProbe(_bucket_source(db, bucket["id"]), name, compiler,
                        opt_level, cache=cache)
    bad = probe
    if kind == UNSOUND_ELIMINATION:
        # Unsound eliminations are bad where the live marker *disappears*.
        bad = lambda version: not probe(version)
    # Retention flips once more where the responsible pass first landed;
    # bisecting from that release on keeps the probe monotone around the
    # observed defect window.
    first = PASS_INTRODUCED.get(compiler, {}).get(responsible_pass)
    versions = None
    if first is not None and first <= observed:
        versions = list(range(first, trunk_version(compiler) + 1))
    bisector = RevisionBisector(compiler, versions=versions)
    anchor = bisector.find_anchor(bad, preferred=observed)
    if anchor is None:
        raise BisectionError(
            f"bucket {bucket['slug']} not reproducible at any release")
    return bisector.bisect(bad, anchor, relevant=probe.relevant)


def bisect_bucket(db: FindingsDB, bucket: dict,
                  registry: Optional[Sequence[Defect]] = None,
                  cache: Optional[CompilationCache] = None,
                  max_steps: int = 200_000) -> Attribution:
    """Bisect one bucket row (as returned by
    :meth:`~repro.corpusdb.FindingsDB.query_buckets`) without recording."""
    if bucket["kind"] == CRASH_KIND:
        result = _bisect_crash_bucket(db, bucket, registry, cache, max_steps)
    else:
        result = _bisect_marker_bucket(db, bucket, cache)
    return Attribution(kind=bucket["kind"], signature=bucket["signature"],
                       slug=bucket["slug"], compiler=result.compiler,
                       result=result)


def record_attribution(db: FindingsDB, attribution: Attribution,
                       campaign_id: Optional[int] = None) -> int:
    """Persist one attribution into the known-bug patch database."""
    result = attribution.result
    return db.record_attribution(
        attribution.kind, attribution.signature,
        responsible=attribution.responsible,
        compiler=attribution.compiler,
        introduced_version=result.introduced,
        fixed_version=result.fixed,
        status=attribution.status,
        window=result.window_label,
        observed_version=result.observed,
        introduced_event=(result.introduced_event.event_id
                          if result.introduced_event else ""),
        fixed_event=(result.fixed_event.event_id
                     if result.fixed_event else ""),
        probes=result.probes,
        campaign_id=campaign_id)


def attribute_bucket(db: FindingsDB, bucket: dict,
                     registry: Optional[Sequence[Defect]] = None,
                     cache: Optional[CompilationCache] = None,
                     max_steps: int = 200_000,
                     campaign_id: Optional[int] = None) -> Attribution:
    """Bisect one bucket and record the result; the ``bisect`` CLI's unit."""
    attribution = bisect_bucket(db, bucket, registry=registry, cache=cache,
                                max_steps=max_steps)
    record_attribution(db, attribution, campaign_id=campaign_id)
    return attribution
