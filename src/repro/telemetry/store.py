"""Provenance stamp for bench artifacts: git sha, timestamp and hostname.

``benchmarks/bench_common.py`` stamps every ``artifacts/bench_*.json`` with
:func:`stamp_fields`; the module stays only because the campaign benchmark
imports it by this name.
"""

from __future__ import annotations

import os
import socket
import subprocess
import time
from typing import Optional


def current_git_sha(cwd: Optional[str] = None) -> str:
    """The current commit sha, or ``"unknown"`` outside a git checkout.

    ``REPRO_GIT_SHA`` overrides the lookup (CI detached-head workflows set
    it from the event payload; tests pin it for stable fixtures).
    """
    override = os.environ.get("REPRO_GIT_SHA")
    if override:
        return override
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10,
                              cwd=cwd)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = proc.stdout.strip()
    return sha if proc.returncode == 0 and sha else "unknown"


def stamp_fields() -> dict:
    """The provenance stamp bench artifact writers attach (see
    ``benchmarks/bench_common.py``): git sha, wall-clock timestamp and
    hostname."""
    return {
        "git_sha": current_git_sha(),
        "recorded_at": time.time(),
        "hostname": socket.gethostname(),
    }
