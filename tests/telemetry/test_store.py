"""The provenance stamp bench artifacts carry: git sha, time and host."""

from __future__ import annotations

import importlib.util
import json
import os
import shutil
import socket
import subprocess
import sys
import time

from repro.telemetry.store import current_git_sha, stamp_fields

REPO = os.path.join(os.path.dirname(__file__), "..", "..")


def test_git_sha_env_override(monkeypatch):
    monkeypatch.setenv("REPRO_GIT_SHA", "deadbeef")
    assert current_git_sha() == "deadbeef"


def test_git_sha_is_unknown_outside_a_checkout(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_GIT_SHA", raising=False)
    monkeypatch.delenv("GIT_DIR", raising=False)
    # Keep git from finding a repository above the scratch directory.
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path.parent))
    assert current_git_sha(cwd=str(tmp_path)) == "unknown"


def test_stamp_fields_shape():
    stamp = stamp_fields()
    assert set(stamp) == {"git_sha", "recorded_at", "hostname"}
    assert isinstance(stamp["recorded_at"], float)


def test_stamp_names_the_commit_host_and_time(monkeypatch):
    monkeypatch.setenv("REPRO_GIT_SHA", "cafef00d")
    before = time.time()
    stamp = stamp_fields()
    assert stamp["git_sha"] == "cafef00d"
    assert stamp["hostname"] == socket.gethostname()
    assert before <= stamp["recorded_at"] <= time.time()


def test_bench_record_carries_the_stamp(tmp_path, monkeypatch):
    """``write_bench_record`` writes ``artifacts/bench_<name>.json`` next to
    the benchmark directory; a copy of the helper module keeps the artifact
    out of the checkout."""
    monkeypatch.setenv("REPRO_GIT_SHA", "deadbeef")
    bench_dir = tmp_path / "benchmarks"
    bench_dir.mkdir()
    shutil.copy(os.path.join(REPO, "benchmarks", "bench_common.py"),
                bench_dir / "bench_common.py")
    spec = importlib.util.spec_from_file_location(
        "bench_common_copy", bench_dir / "bench_common.py")
    bench_common = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_common)

    path = bench_common.write_bench_record("demo", uncached_ms=12.5,
                                           label="x")
    assert os.path.samefile(path, tmp_path / "artifacts" / "bench_demo.json")
    with open(path, encoding="utf-8") as handle:
        record = json.load(handle)
    assert record["bench"] == "demo"
    assert record["schema"] == bench_common.BENCH_SCHEMA
    assert (record["uncached_ms"], record["label"]) == (12.5, "x")
    assert set(record["stamp"]) == {"git_sha", "recorded_at", "hostname"}
    assert record["stamp"]["git_sha"] == "deadbeef"


def test_importing_repro_leaves_the_stamp_module_unloaded():
    """Only the bench helpers load the stamp module (and with it
    ``subprocess`` and ``socket``); a campaign never does."""
    code = ("import sys, repro, repro.orchestrator; "
            "print('repro.telemetry.store' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
