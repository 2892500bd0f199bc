"""Parallel campaign orchestration: sharded execution, corpus, checkpointing.

This package scales the serial fuzzing loop of :mod:`repro.core.fuzzer` to
many cores without giving up reproducibility:

* :mod:`repro.orchestrator.campaign`   — :class:`OrchestratedCampaign`: one
  campaign object per process, its seeds run in-process or on a ``fork``
  pool whose workers inherit it;
* :mod:`repro.orchestrator.corpus`     — corpus store + crash dedup index;
* :mod:`repro.orchestrator.checkpoint` — JSON checkpoint/resume;
* :mod:`repro.orchestrator.stats`      — live throughput/ETA monitoring;
* :mod:`repro.orchestrator.cli`        — ``python -m repro.orchestrator``.

The invariant the whole package is built around: a seed work-item's output
is a pure function of ``(CampaignConfig, seed_index)``, so any sharding of
work-items over any number of processes merges into the same campaign.
"""

from repro.orchestrator.campaign import OrchestratedCampaign
from repro.orchestrator.checkpoint import CampaignCheckpoint, CheckpointMismatch
from repro.orchestrator.corpus import CorpusStore, CrashBucket, bucket_key_for
from repro.orchestrator.records import (
    batch_from_record,
    batch_to_record,
    config_fingerprint,
)
from repro.orchestrator.stats import ThroughputMonitor, ThroughputSnapshot

__all__ = [
    "OrchestratedCampaign",
    "CampaignCheckpoint", "CheckpointMismatch",
    "CorpusStore", "CrashBucket", "bucket_key_for",
    "batch_from_record", "batch_to_record", "config_fingerprint",
    "ThroughputMonitor", "ThroughputSnapshot",
]
