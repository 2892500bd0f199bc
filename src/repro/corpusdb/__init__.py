"""Cross-campaign findings database (programs, buckets, outcomes).

The durable half of campaign-as-a-service: one SQLite file accumulates
every campaign's programs (zlib-compressed, content-addressed), finding
buckets (crash and marker kinds under their canonical signatures, with
first-/last-seen recurrence tracking), surveyed outcome cells and reduced
reproducers.  The orchestrator's
:class:`~repro.orchestrator.corpus.CorpusStore` is a façade over
:class:`FindingsDB`, which holds the only persisted copy of a fuzz
campaign's corpus; the ``query`` CLI subcommand reads it directly.
Connection plumbing (WAL, busy timeouts, ``BEGIN IMMEDIATE`` retry
transactions) lives in :mod:`repro.corpusdb.connection`.  This package is
the only code that owns a SQLite schema.
"""

from repro.corpusdb.connection import connect, immediate
from repro.corpusdb.db import (CRASH_KIND, FindingsDB, crash_signature,
                               decompress_source, marker_signature,
                               program_digest, signature_json)

__all__ = [
    "CRASH_KIND",
    "FindingsDB",
    "connect",
    "crash_signature",
    "decompress_source",
    "immediate",
    "marker_signature",
    "program_digest",
    "signature_json",
]
