"""Checkpoint/resume of interrupted campaigns via JSON snapshots.

The snapshot is a single JSON document holding the campaign config
fingerprint plus one record per completed seed (see
:mod:`repro.orchestrator.records`).  It is rewritten atomically
(temp file + ``os.replace``) after every recorded batch, so a campaign
killed at any point can resume from the last completed seed.

A checkpoint written for one configuration refuses to resume another: the
fingerprint covers every knob that influences results, so a silent partial
reuse can never produce a mixed bug set.
"""

from __future__ import annotations

import json
import logging
import os
from typing import Dict

logger = logging.getLogger(__name__)

from repro.core.fuzzer import CampaignConfig, SeedBatch
from repro.orchestrator.records import (
    RECORD_VERSION,
    batch_from_record,
    batch_to_record,
    config_fingerprint,
)
from repro.utils.io import atomic_write_json


class CheckpointMismatch(Exception):
    """The snapshot on disk belongs to a different campaign configuration."""


class CampaignCheckpoint:
    """Persists completed seed batches for one campaign configuration.

    Every recorded batch rewrites the snapshot, so a killed campaign
    recomputes only the seeds that had not finished.
    """

    def __init__(self, path: str, config: CampaignConfig) -> None:
        self.path = str(path)
        self.fingerprint = config_fingerprint(config)
        self._records: Dict[int, dict] = {}
        self._loaded = False

    # -- reading ---------------------------------------------------------------

    def load(self) -> Dict[int, SeedBatch]:
        """Return the completed batches recorded on disk, keyed by seed index.

        Missing file → empty dict (a fresh campaign).  A snapshot written by
        a different configuration raises :class:`CheckpointMismatch`.  Keys
        other than the version, fingerprint and seeds (such as the
        ``metadata`` older snapshots carried) are ignored.
        """
        self._records = {}
        self._loaded = True
        if not os.path.exists(self.path):
            return {}
        with open(self.path, "r", encoding="utf-8") as handle:
            snapshot = json.load(handle)
        if snapshot.get("version") != RECORD_VERSION:
            raise CheckpointMismatch(
                f"unsupported checkpoint version {snapshot.get('version')!r}")
        if snapshot.get("fingerprint") != self.fingerprint:
            raise CheckpointMismatch(
                f"checkpoint {self.path} was written for config "
                f"{snapshot.get('fingerprint')!r}, not {self.fingerprint!r}")
        self._records = {int(key): value
                         for key, value in snapshot.get("seeds", {}).items()}
        logger.info("loaded checkpoint %s: %d completed seeds",
                    self.path, len(self._records))
        return {index: batch_from_record(record)
                for index, record in self._records.items()}

    # -- writing ---------------------------------------------------------------

    def record(self, batch: SeedBatch) -> None:
        """Add one completed batch and rewrite the snapshot (:meth:`flush`)."""
        if not self._loaded:
            self.load()
        self._records[batch.seed_index] = batch_to_record(batch)
        self.flush()

    def flush(self) -> None:
        """Rewrite the snapshot atomically from the recorded batches."""
        snapshot = {
            "version": RECORD_VERSION,
            "fingerprint": self.fingerprint,
            "seeds": {str(index): record
                      for index, record in sorted(self._records.items())},
        }
        logger.debug("flushing checkpoint %s (%d seeds)", self.path,
                     len(self._records))
        atomic_write_json(self.path, snapshot)
