"""Command-line launcher for orchestrated campaigns.

Usage::

    python -m repro.orchestrator --seeds 20 --workers 4 \
        --checkpoint campaign.json --corpus corpus/ --trace

Interrupt it at any point; re-running the same command resumes from the
checkpoint and finishes with the same bug set as an uninterrupted run.

``--trace`` persists span-level telemetry under ``<corpus>/telemetry/``;
replay it into a per-stage profile with::

    python -m repro.orchestrator stats corpus/

``--db PATH`` puts the findings database at PATH instead of
``<corpus>/corpus.sqlite``, so campaigns sharing it dedupe against each
other; the ``query``, ``bisect`` and ``known-bugs`` subcommands read it.

Both modes build one :class:`OrchestratedCampaign` from the arguments; a
combination it rejects (``--checkpoint``/``--corpus`` in marker mode,
``--trace`` or ``--db`` without ``--corpus``, ``--workers N`` without the
``fork`` start method) prints its message as ``error: ...`` and exits
with status 2.

Status output goes through :mod:`logging` (configure with ``-v``/``-q``);
the result summary itself prints to stdout (``--json`` for machines).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from typing import List, Optional, Sequence

from repro.core.fuzzer import CampaignConfig
from repro.core.ub_types import ALL_UB_TYPES, UBType
from repro.orchestrator.campaign import OrchestratedCampaign
from repro.telemetry import configure_logging

logger = logging.getLogger(__name__)
#: Progress/status lines (per-seed throughput, reduction notices) stream
#: through this logger at INFO — visible by default, silenced by --quiet.
_PROGRESS = logging.getLogger("repro.orchestrator.progress")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.orchestrator",
        description="Run a sharded campaign: sanitizer fuzzing with "
                    "checkpoint/resume, corpus storage and crash dedup "
                    "(--mode fuzz), or marker-based missed-optimization "
                    "and optimizer-regression finding (--mode markers).")
    parser.add_argument("--mode", choices=("fuzz", "markers"), default="fuzz",
                        help="campaign kind: sanitizer FN-bug fuzzing or "
                             "the marker elimination engine (default: fuzz)")
    parser.add_argument("--seeds", type=int, default=10,
                        help="number of seed programs (default: 10)")
    parser.add_argument("--rng-seed", type=int, default=0,
                        help="master RNG seed; the full campaign is a pure "
                             "function of this (default: 0)")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes; 1 = serial (default: 1)")
    parser.add_argument("--opt-levels", default=None,
                        help="comma-separated optimization levels (default: "
                             "all five for --mode fuzz, -O2,-O3 for "
                             "--mode markers)")
    parser.add_argument("--versions", default=None, metavar="SPEC",
                        help="markers mode: releases to survey, e.g. "
                             "'gcc=9-12,llvm=13-16' (default: every "
                             "simulated version)")
    parser.add_argument("--compilers", default="gcc,llvm",
                        help="comma-separated compilers (gcc, llvm)")
    parser.add_argument("--ub-types", default="",
                        help="comma-separated UB types (default: all)")
    parser.add_argument("--max-programs-per-type", type=int, default=2,
                        help="cap on UB programs per (seed, UB type)")
    parser.add_argument("--max-programs-total", type=int, default=None,
                        help="stop after this many UB programs overall")
    parser.add_argument("--no-triage", action="store_true",
                        help="skip defect triage (candidates only, faster)")
    parser.add_argument("--reduce", action="store_true",
                        help="reduce one representative crash per dedup "
                             "bucket to a minimal reproducer (written to "
                             "the corpus as reduced/<bucket>.c)")
    parser.add_argument("--checkpoint", default=None, metavar="PATH",
                        help="JSON snapshot to write/resume from")
    parser.add_argument("--corpus", default=None, metavar="DIR",
                        help="directory for the persistent corpus store")
    parser.add_argument("--max-seeds-per-session", type=int, default=None,
                        help="process at most N new seeds, then stop "
                             "(resume later from the checkpoint)")
    parser.add_argument("--trace", action="store_true",
                        help="record span-level telemetry to "
                             "<corpus>/telemetry/trace.jsonl (requires "
                             "--corpus; replay with the 'stats' subcommand)")
    parser.add_argument("--db", default=None, metavar="PATH", dest="db_path",
                        help="cross-campaign findings database (SQLite) "
                             "instead of <corpus>/corpus.sqlite; fuzzing "
                             "campaigns write it through the corpus store "
                             "(requires --corpus), marker campaigns persist "
                             "their finding buckets (query with 'query')")
    parser.add_argument("-q", "--quiet", action="store_true",
                        help="suppress per-seed progress lines and other "
                             "status logging (warnings still shown)")
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="more status logging (-v: info, -vv: debug)")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="print a machine-readable JSON summary")
    return parser


def build_stats_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.orchestrator stats",
        description="Replay the telemetry a traced campaign persisted "
                    "(telemetry/trace.jsonl + metrics.json) into a "
                    "per-stage time/cache/VM profile, optionally exporting "
                    "the span trace to standard formats.")
    parser.add_argument("campaign_dir",
                        help="campaign corpus directory (the --corpus of "
                             "the traced run)")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="print the profile as JSON")
    parser.add_argument("--export-chrome", default=None, metavar="PATH",
                        help="write the span trace as Chrome trace-event "
                             "JSON (chrome://tracing, Perfetto)")
    parser.add_argument("--export-folded", default=None, metavar="PATH",
                        help="write the span trace as folded stacks "
                             "(flamegraph.pl / speedscope input)")
    return parser


def build_watch_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.orchestrator watch",
        description="Live-monitor a running traced campaign: tail its "
                    "telemetry/trace.jsonl (read-only, never disturbing "
                    "the writer) and render throughput, ETA, per-stage "
                    "self-time and stall health until the campaign "
                    "finishes.")
    parser.add_argument("campaign_dir",
                        help="the running campaign's --corpus directory")
    parser.add_argument("--interval", type=float, default=2.0, metavar="S",
                        help="seconds between refreshes (default: 2)")
    parser.add_argument("--once", action="store_true",
                        help="render a single snapshot and exit")
    parser.add_argument("--timeout", type=float, default=None, metavar="S",
                        help="give up after S seconds (default: follow "
                             "until the campaign finishes)")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="print one JSON snapshot per refresh")
    return parser


def build_query_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.orchestrator query",
        description="Query the cross-campaign findings database: every "
                    "finding bucket (crash and marker kinds) with its "
                    "recurrence history, filterable by bucket slug, "
                    "compiler, kind and last-seen time.")
    parser.add_argument("--db", required=True, metavar="PATH", dest="db_path",
                        help="findings database (a campaign's "
                             "<corpus>/corpus.sqlite, or the shared --db "
                             "file)")
    parser.add_argument("--bucket", default=None, metavar="SUBSTR",
                        help="only buckets whose slug or signature contains "
                             "SUBSTR")
    parser.add_argument("--compiler", default=None, metavar="NAME",
                        help="only buckets hit under this compiler")
    parser.add_argument("--kind", default=None, metavar="KIND",
                        help="bucket kind: crash, missed-optimization, "
                             "regression, unsound-elimination")
    parser.add_argument("--since", default=None, metavar="WHEN",
                        help="only buckets last seen at/after WHEN "
                             "(YYYY-MM-DD[THH:MM:SS] or a unix timestamp)")
    parser.add_argument("--campaign", default=None, metavar="KEY",
                        help="only buckets a given campaign key hit")
    parser.add_argument("--programs", action="store_true",
                        help="also print per-bucket program digests")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="machine-readable output")
    return parser


def build_bisect_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.orchestrator bisect",
        description="Bisect findings-database buckets over the simulated "
                    "release timeline: binary-search to the exact version "
                    "— and the pass-introduction or defect-window event at "
                    "that version — responsible for each finding, and "
                    "record the attribution in the known-bug patch "
                    "database so later campaigns suppress the bucket "
                    "instead of re-filing it.")
    parser.add_argument("buckets", nargs="*", metavar="SUBSTR",
                        help="bisect buckets whose slug or signature "
                             "contains SUBSTR (omit with --all)")
    parser.add_argument("--db", required=True, metavar="PATH", dest="db_path",
                        help="findings database holding the buckets")
    parser.add_argument("--all", action="store_true", dest="all_buckets",
                        help="bisect every bucket in the database")
    parser.add_argument("--kind", default=None, metavar="KIND",
                        help="only buckets of this kind: crash, "
                             "missed-optimization, regression, "
                             "unsound-elimination")
    parser.add_argument("--dry-run", action="store_true",
                        help="bisect and print, but record nothing")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="machine-readable output")
    return parser


def build_known_bugs_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.orchestrator known-bugs",
        description="Print the known-bug patch database: every attributed "
                    "bucket with its responsible release-timeline event, "
                    "affected-version window, and the campaigns whose "
                    "re-finds it suppressed.")
    parser.add_argument("--db", required=True, metavar="PATH", dest="db_path",
                        help="findings database holding the attributions")
    parser.add_argument("--ledger", action="store_true",
                        help="also print the per-campaign suppression "
                             "ledger")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="machine-readable output")
    return parser


class CLIError(Exception):
    """A user-input problem reported as a clean one-line error."""


def _parse_ub_types(spec: str) -> Sequence[UBType]:
    if not spec.strip():
        return ALL_UB_TYPES
    types = []
    for value in spec.split(","):
        try:
            types.append(UBType(value.strip()))
        except ValueError:
            known = ", ".join(ub.value for ub in ALL_UB_TYPES)
            raise CLIError(f"unknown UB type {value.strip()!r} "
                           f"(choose from: {known})") from None
    return tuple(types)


def _check_compilers(names: Sequence[str]) -> None:
    from repro.compilers.compiler import compiler_class
    for name in names:
        try:
            compiler_class(name)
        except KeyError:
            raise CLIError(f"unknown compiler {name!r} "
                           f"(choose from: gcc, llvm)") from None


def _check_opt_levels(levels: Sequence[str]) -> None:
    from repro.compilers.options import ALL_OPT_LEVELS
    for level in levels:
        if level not in ALL_OPT_LEVELS:
            raise CLIError(f"unknown optimization level {level!r} "
                           f"(choose from: {', '.join(ALL_OPT_LEVELS)})")


def _parse_versions(spec: Optional[str]) -> Optional[dict]:
    """Parse ``gcc=9-12,llvm=13-16`` into ``{"gcc": [9..12], ...}``."""
    if spec is None or not spec.strip():
        return None
    versions: dict = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            compiler, span = part.split("=", 1)
            low, _, high = span.partition("-")
            first, last = int(low), int(high or low)
        except ValueError:
            raise CLIError(f"bad --versions entry {part!r} "
                           f"(expected e.g. gcc=9-12)") from None
        if last < first:
            raise CLIError(f"bad --versions range {part!r}")
        versions[compiler.strip()] = list(range(first, last + 1))
    return versions


def _opt_levels_from_args(args: argparse.Namespace) -> tuple:
    default = ("-O0,-O1,-Os,-O2,-O3" if args.mode == "fuzz" else "-O2,-O3")
    spec = args.opt_levels if args.opt_levels is not None else default
    return tuple(level.strip() for level in spec.split(",") if level.strip())


def config_from_args(args: argparse.Namespace):
    compilers = tuple(name.strip() for name in args.compilers.split(",")
                      if name.strip())
    opt_levels = _opt_levels_from_args(args)
    if args.mode == "markers":
        from repro.markers.engine import MarkerCampaignConfig
        versions = _parse_versions(args.versions)
        if versions is not None:
            unknown = sorted(set(versions) - set(compilers))
            if unknown:
                raise CLIError(
                    f"--versions names compilers not being surveyed: "
                    f"{', '.join(unknown)} (surveying: "
                    f"{', '.join(compilers)})")
        return MarkerCampaignConfig(
            num_seeds=args.seeds,
            rng_seed=args.rng_seed,
            compilers=compilers,
            opt_levels=opt_levels,
            versions=versions)
    return CampaignConfig(
        num_seeds=args.seeds,
        rng_seed=args.rng_seed,
        ub_types=_parse_ub_types(args.ub_types),
        opt_levels=opt_levels,
        compilers=compilers,
        max_programs_per_type=args.max_programs_per_type,
        max_programs_total=args.max_programs_total,
        triage=not args.no_triage)


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    if argv[:1] == ["stats"]:
        return _stats_main(argv[1:])
    if argv[:1] == ["watch"]:
        return _watch_main(argv[1:])
    if argv[:1] == ["query"]:
        return _query_main(argv[1:])
    if argv[:1] == ["bisect"]:
        return _bisect_main(argv[1:])
    if argv[:1] == ["known-bugs"]:
        return _known_bugs_main(argv[1:])
    args = build_parser().parse_args(argv)
    configure_logging(0 if args.quiet else 1 + args.verbose)
    try:
        return _run(args)
    except CLIError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _progress(line: str) -> None:
    _PROGRESS.info("%s", line)


def _run(args: argparse.Namespace) -> int:
    from repro.orchestrator.checkpoint import CheckpointMismatch
    config = config_from_args(args)
    _check_compilers(config.compilers)
    _check_opt_levels(config.opt_levels)
    try:
        # The campaign validates its own arguments (storage that a marker
        # campaign cannot use, a trace or --db without a corpus, workers
        # without fork); its ValueError is the CLI's error message.
        orchestrated = OrchestratedCampaign(
            config,
            workers=args.workers,
            checkpoint_path=args.checkpoint,
            corpus=args.corpus,
            progress=None if args.quiet else _progress,
            max_seeds_per_session=args.max_seeds_per_session,
            reduce=args.reduce,
            trace=args.trace,
            db_path=args.db_path)
    except ValueError as exc:
        raise CLIError(str(exc)) from None
    try:
        result = orchestrated.run()
    except CheckpointMismatch as exc:
        raise CLIError(f"{exc} — pass a fresh --checkpoint path to start "
                       f"over") from None
    except json.JSONDecodeError as exc:
        raise CLIError(f"checkpoint {args.checkpoint} is not valid JSON "
                       f"({exc}) — delete it or pass a fresh path") from None
    if args.mode == "markers":
        return _print_markers(args, orchestrated, result)

    stats = result.stats
    summary = {
        "seeds_used": stats.seeds_used,
        "seeds_resumed": len(orchestrated.resumed_indices),
        "programs_generated": stats.total_programs(),
        "programs_tested": stats.programs_tested,
        "discrepant_programs": stats.discrepant_programs,
        "fn_candidates": stats.fn_candidates,
        "wrong_report_candidates": stats.wrong_report_candidates,
        "duration_seconds": round(stats.duration_seconds, 3),
        "workers": orchestrated.workers,
        "bug_reports": [
            {"bug_id": report.bug_id, "compiler": report.compiler,
             "sanitizer": report.sanitizer, "ub_type": report.ub_type.value,
             "status": report.status, "category": report.category,
             "affected_opt_levels": report.affected_opt_levels,
             "affected_versions": report.affected_versions}
            for report in result.bug_reports
        ],
    }
    if orchestrated.corpus is not None:
        corpus_summary = orchestrated.corpus.summary()
        summary["corpus"] = {"programs": corpus_summary["programs"],
                             "crashes": corpus_summary["crashes"],
                             "unique_crashes": corpus_summary["unique_crashes"],
                             "new_buckets": corpus_summary["new_buckets"],
                             "recurrent_buckets":
                                 corpus_summary["recurrent_buckets"],
                             "suppressed_buckets":
                                 corpus_summary["suppressed_buckets"]}
        if corpus_summary["suppressed_buckets"]:
            summary["suppressions"] = orchestrated.corpus.suppressions()
    if orchestrated.telemetry_summary is not None:
        summary["cache"] = orchestrated.telemetry_summary["cache"]
    if args.trace:
        summary["telemetry_dir"] = os.path.join(args.corpus, "telemetry")
    if orchestrated.telemetry_summary is not None:
        summary["health"] = orchestrated.telemetry_summary["health"]
    if orchestrated.reductions:
        summary["reductions"] = [record.to_json()
                                 for record in orchestrated.reductions]

    if args.as_json:
        print(json.dumps(summary, indent=2))
        return 0

    print(f"seeds used            : {summary['seeds_used']}"
          + (f" ({summary['seeds_resumed']} resumed from checkpoint)"
             if summary["seeds_resumed"] else ""))
    print(f"UB programs generated : {summary['programs_generated']}")
    print(f"programs tested       : {summary['programs_tested']}")
    print(f"discrepant programs   : {summary['discrepant_programs']}")
    print(f"FN candidates         : {summary['fn_candidates']}")
    print(f"wrong-report candidates: {summary['wrong_report_candidates']}")
    if "corpus" in summary:
        corpus = summary["corpus"]
        print(f"corpus                : {corpus['programs']} programs, "
              f"{corpus['crashes']} crashes in "
              f"{corpus['unique_crashes']} dedup buckets")
        if corpus["recurrent_buckets"]:
            print(f"cross-campaign dedup  : {corpus['new_buckets']} "
                  f"new bucket(s), {corpus['recurrent_buckets']} seen in "
                  f"earlier campaigns")
        if corpus["suppressed_buckets"]:
            print(f"known-bug suppression : {corpus['suppressed_buckets']} "
                  f"bucket(s) already attributed — reported once, not "
                  f"re-filed")
            for line in summary.get("suppressions", ()):
                print(f"  suppressed_by {line['suppressed_by']}: "
                      f"{line['slug']} — {line['hits']} hit(s)")
    if "cache" in summary:
        print(f"compilation cache     : {_cache_line(summary['cache'])}")
    if "telemetry_dir" in summary:
        print(f"telemetry             : {summary['telemetry_dir']} "
              f"(replay: python -m repro.orchestrator stats "
              f"{args.corpus})")
    if "health" in summary:
        health = summary["health"]
        stalls = (f", {health['stalls']} stall(s), worst gap "
                  f"{health['worst_gap_seconds']}s"
                  if health["stalls"] else "")
        print(f"health                : {health['status']}{stalls}")
    print(f"wall-clock            : {summary['duration_seconds']}s "
          f"({summary['workers']} worker(s))")
    if orchestrated.reductions:
        from repro.analysis.tables import table_reduction_quality
        from repro.utils.text import format_table
        headers, rows = table_reduction_quality(orchestrated.reductions)
        print("reduced reproducers   :")
        for line in format_table(headers, rows).splitlines():
            print(f"  {line}")
    print(f"distinct bugs         : {len(summary['bug_reports'])}")
    for report in summary["bug_reports"]:
        levels = ", ".join(report["affected_opt_levels"]) or "-"
        print(f"  [{report['status']:9s}] {report['bug_id']} — "
              f"{report['compiler']} {report['sanitizer']} / "
              f"{report['ub_type']} / levels: {levels}")
    return 0


def _cache_line(cache: dict) -> str:
    """``H hits / M misses (R% hit rate), E evicted`` from cache counters."""
    hits, misses = cache.get("hits", 0), cache.get("misses", 0)
    total = hits + misses
    rate = f"{hits / total:.0%}" if total else "n/a"
    return (f"{hits} hits / {misses} misses ({rate} hit rate), "
            f"{cache.get('evictions', 0)} evicted")


def _print_markers(args: argparse.Namespace,
                   orchestrated: OrchestratedCampaign, result) -> int:
    """Print a finished marker campaign's summary."""
    stats = result.stats
    summary = {
        "mode": "markers",
        "seeds_used": stats.seeds_used,
        "markers_planted": stats.markers_planted,
        "live_markers": stats.live_markers,
        "configs_surveyed": stats.configs_surveyed,
        "raw_findings": stats.raw_findings,
        "findings_by_kind": dict(stats.findings_by_kind),
        "workers": orchestrated.workers,
        "buckets": [
            {"kind": f.kind, "compiler": f.compiler,
             "site": f.marker.signature, "pass": f.responsible_pass,
             "opt_level": f.opt_level, "version": f.version,
             "prev_version": f.prev_version}
            for f in result.findings
        ],
    }
    if orchestrated.telemetry_summary is not None:
        summary["cache"] = orchestrated.telemetry_summary["cache"]
        totals = orchestrated.telemetry_summary["totals"]
        if "marker.compiles" in totals:
            summary["compiles"] = totals["marker.compiles"]
    if args.db_path is not None:
        summary["db"] = {"path": args.db_path}
    if orchestrated.marker_suppressions:
        summary["suppressions"] = [
            {"slug": line["slug"] or line["signature"][:40],
             "suppressed_by": line["responsible"], "hits": line["hits"]}
            for line in orchestrated.marker_suppressions]
    if orchestrated.reductions:
        summary["reductions"] = [record.to_json()
                                 for record in orchestrated.reductions]
    if args.as_json:
        print(json.dumps(summary, indent=2))
        return 0

    from repro.analysis import table_marker_findings, table_marker_survival
    from repro.utils.text import format_table
    print(f"seeds used            : {summary['seeds_used']}")
    print(f"markers planted       : {summary['markers_planted']} "
          f"({summary['live_markers']} live)")
    compiles = (f" ({summary['compiles']} compiles)"
                if "compiles" in summary else "")
    print(f"configs surveyed      : {summary['configs_surveyed']}{compiles}")
    if "cache" in summary:
        print(f"compilation cache     : {_cache_line(summary['cache'])}")
    print(f"raw findings          : {summary['raw_findings']} "
          f"{summary['findings_by_kind']}")
    print(f"workers               : {summary['workers']}")
    headers, rows = table_marker_survival(result)
    print("marker survival       :")
    for line in format_table(headers, rows).splitlines():
        print(f"  {line}")
    headers, rows = table_marker_findings(result)
    print(f"finding buckets       : {len(result.buckets)}")
    for line in format_table(headers, rows).splitlines():
        print(f"  {line}")
    if "suppressions" in summary:
        print(f"known-bug suppression : {len(summary['suppressions'])} "
              f"bucket(s) already attributed — reported once, not re-filed")
        for line in summary["suppressions"]:
            print(f"  suppressed_by {line['suppressed_by']}: "
                  f"{line['slug']} — {line['hits']} hit(s)")
    if "db" in summary:
        print(f"findings database     : {summary['db']['path']} "
              f"(query: python -m repro.orchestrator query --db "
              f"{summary['db']['path']})")
    if orchestrated.reductions:
        from repro.analysis.tables import table_reduction_quality
        headers, rows = table_reduction_quality(orchestrated.reductions)
        print("reduced reproducers   :")
        for line in format_table(headers, rows).splitlines():
            print(f"  {line}")
    return 0


def _stats_main(argv: List[str]) -> int:
    """The ``stats`` subcommand: replay persisted telemetry into a profile."""
    args = build_stats_parser().parse_args(argv)
    from repro.telemetry.profile import load_profile
    if not os.path.isdir(args.campaign_dir):
        print(f"error: {args.campaign_dir!r} is not a campaign directory",
              file=sys.stderr)
        return 2
    try:
        profile = load_profile(args.campaign_dir)
    except FileNotFoundError:
        # An existing campaign dir that simply was never traced is not an
        # error — report the situation and how to change it, exit clean.
        print(f"no telemetry recorded under {args.campaign_dir} "
              f"(run the campaign with --trace to record one)")
        return 0
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        print(f"error: telemetry under {args.campaign_dir!r} is unreadable "
              f"({exc})", file=sys.stderr)
        return 2
    exit_code = _stats_exports(args)
    if exit_code is not None:
        return exit_code
    if args.as_json:
        print(json.dumps(profile.to_json(), indent=2))
        return 0

    from repro.analysis import table_stage_profile
    from repro.utils.text import format_table
    if profile.campaign:
        print(f"campaign              : {profile.campaign}")
    print(f"seeds traced          : {profile.seed_count} "
          f"({profile.span_count} spans)")
    if profile.wall_seconds is not None:
        print(f"wall-clock            : {profile.wall_seconds:.2f}s")
    headers, rows = table_stage_profile(profile)
    print("stage profile         :")
    for line in format_table(headers, rows).splitlines():
        print(f"  {line}")
    counters = profile.counters
    if counters.get("cache.hits", 0) or counters.get("cache.misses", 0):
        cache = {"hits": counters.get("cache.hits", 0),
                 "misses": counters.get("cache.misses", 0),
                 "evictions": counters.get("cache.evictions", 0)}
        print(f"compilation cache     : {_cache_line(cache)}")
    if counters.get("vm.runs"):
        print(f"vm                    : {counters['vm.runs']} runs, "
              f"{counters.get('vm.steps', 0)} steps")
    print(f"swallowed errors      : "
          f"{counters.get('compile.errors', 0)} compile errors, "
          f"{counters.get('ubgen.invalid_mutations', 0)} invalid mutations, "
          f"{counters.get('ubgen.profile_failures', 0)} profile failures")
    return 0


def _stats_exports(args: argparse.Namespace) -> Optional[int]:
    """Handle ``stats --export-chrome/--export-folded``.

    Returns an exit code when exporting was requested (0 done, 2 error),
    None when no export flag was given and stats should render normally.
    """
    if args.export_chrome is None and args.export_folded is None:
        return None
    from repro.telemetry.export import write_chrome_trace, write_folded_stacks
    from repro.telemetry.profile import telemetry_paths
    from repro.telemetry.tracer import read_trace
    trace_path = telemetry_paths(args.campaign_dir)[0]
    if not os.path.exists(trace_path):
        print(f"error: no span trace under {args.campaign_dir!r} — exports "
              f"need a campaign recorded with --trace (metrics alone are "
              f"not exportable)", file=sys.stderr)
        return 2
    events = read_trace(trace_path)
    if args.export_chrome is not None:
        path = write_chrome_trace(events, args.export_chrome)
        print(f"chrome trace          : {path} (load in chrome://tracing "
              f"or https://ui.perfetto.dev)")
    if args.export_folded is not None:
        path = write_folded_stacks(events, args.export_folded)
        print(f"folded stacks         : {path} (feed to flamegraph.pl or "
              f"speedscope)")
    return 0


def _watch_main(argv: List[str]) -> int:
    """The ``watch`` subcommand: live stats for a running traced campaign."""
    import time as _time

    from repro.telemetry.monitor import WatchView
    args = build_watch_parser().parse_args(argv)
    if not os.path.isdir(args.campaign_dir):
        print(f"error: {args.campaign_dir!r} is not a campaign directory",
              file=sys.stderr)
        return 2
    view = WatchView(args.campaign_dir)
    deadline = (_time.monotonic() + args.timeout
                if args.timeout is not None else None)
    while True:
        view.refresh()
        if args.as_json:
            print(json.dumps(view.snapshot()), flush=True)
        else:
            for line in view.format_lines():
                print(line, flush=True)
        if args.once:
            return 0
        if view.finished:
            print("campaign finished")
            return 0
        if deadline is not None and _time.monotonic() >= deadline:
            print("watch timeout reached; campaign still running")
            return 0
        _time.sleep(max(0.05, args.interval))


def _parse_since(spec: str) -> float:
    """``--since`` accepts an ISO date/datetime or a raw unix timestamp."""
    import datetime
    try:
        return float(spec)
    except ValueError:
        pass
    for fmt in ("%Y-%m-%dT%H:%M:%S", "%Y-%m-%d %H:%M:%S", "%Y-%m-%d"):
        try:
            return datetime.datetime.strptime(spec, fmt).timestamp()
        except ValueError:
            continue
    raise CLIError(f"--since {spec!r} is neither YYYY-MM-DD[THH:MM:SS] "
                   f"nor a unix timestamp")


def _stamp(value) -> str:
    import datetime
    if value is None:
        return "-"
    return datetime.datetime.fromtimestamp(value).strftime("%Y-%m-%d %H:%M")


def _query_main(argv: List[str]) -> int:
    """The ``query`` subcommand: filterable findings-database view."""
    from repro.corpusdb import FindingsDB
    args = build_query_parser().parse_args(argv)
    if not os.path.exists(args.db_path):
        print(f"error: findings database {args.db_path!r} does not exist "
              f"(run a campaign with --corpus first)", file=sys.stderr)
        return 2
    try:
        since = _parse_since(args.since) if args.since is not None else None
    except CLIError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    with FindingsDB(args.db_path) as db:
        rows = db.query_buckets(kind=args.kind, compiler=args.compiler,
                                bucket=args.bucket, since=since,
                                campaign=args.campaign)
        if args.programs:
            for row in rows:
                row["programs"] = db.bucket_digests(row["id"])
        counts = db.summary()
    if args.as_json:
        print(json.dumps({"buckets": rows, "summary": counts}, indent=2))
        return 0
    if not rows:
        print("no matching buckets")
    else:
        from repro.utils.text import format_table
        headers = ["Bucket", "Kind", "Sanitizer", "Pass", "Hits",
                   "Campaigns", "First seen", "Last seen", "Reduced"]
        table = []
        for row in rows:
            table.append([row["slug"], row["kind"], row["sanitizer"] or "-",
                          row["responsible_pass"] or "-", row["count"],
                          row["campaigns"], _stamp(row["first_seen_at"]),
                          _stamp(row["last_seen_at"]),
                          "yes" if row["reduced"] else "-"])
        print(format_table(headers, table))
        if args.programs:
            for row in rows:
                digests = ", ".join(d[:12] for d in row["programs"])
                print(f"  {row['slug']}: {digests}")
    print(f"database: {counts['buckets']} buckets, {counts['hits']} hits, "
          f"{counts['programs']} programs, {counts['outcomes']} outcomes, "
          f"{counts['reductions']} reductions across "
          f"{counts['campaigns']} campaigns")
    return 0


def _bisect_main(argv: List[str]) -> int:
    """The ``bisect`` subcommand: attribute buckets to timeline events."""
    from repro.compilers.cache import CompilationCache
    from repro.corpusdb import FindingsDB
    from repro.triage import BisectionError, bisect_bucket, record_attribution
    args = build_bisect_parser().parse_args(argv)
    if not args.buckets and not args.all_buckets:
        print("error: name at least one bucket substring, or pass --all",
              file=sys.stderr)
        return 2
    if not os.path.exists(args.db_path):
        print(f"error: findings database {args.db_path!r} does not exist "
              f"(run a campaign with --db first)", file=sys.stderr)
        return 2
    cache = CompilationCache()
    attributions = []
    failures = []
    with FindingsDB(args.db_path) as db:
        if args.all_buckets:
            rows = db.query_buckets(kind=args.kind)
        else:
            seen = set()
            rows = []
            for substr in args.buckets:
                for row in db.query_buckets(kind=args.kind, bucket=substr):
                    if row["id"] not in seen:
                        seen.add(row["id"])
                        rows.append(row)
        for row in rows:
            try:
                attribution = bisect_bucket(db, row, cache=cache)
            except BisectionError as exc:
                failures.append({"slug": row["slug"], "error": str(exc)})
                continue
            if not args.dry_run:
                record_attribution(db, attribution)
            attributions.append(attribution)
    if args.as_json:
        print(json.dumps({
            "attributions": [a.to_json() for a in attributions],
            "failures": failures,
            "recorded": not args.dry_run,
        }, indent=2))
        return 0 if not failures else 1
    if not attributions and not failures:
        print("no matching buckets")
        return 0
    if attributions:
        from repro.analysis.tables import table_attribution
        from repro.utils.text import format_table
        headers, table = table_attribution(attributions)
        print(format_table(headers, table))
    for failure in failures:
        print(f"  [unbisected] {failure['slug']}: {failure['error']}")
    verb = "bisected" if args.dry_run else "attributed"
    print(f"{verb} {len(attributions)} bucket(s)"
          + (f", {len(failures)} failed" if failures else "")
          + ("" if args.dry_run else
             f" — recorded in {args.db_path} (campaigns sharing this "
             f"database now suppress them)"))
    return 0 if not failures else 1


def _known_bugs_main(argv: List[str]) -> int:
    """The ``known-bugs`` subcommand: print the known-bug patch database."""
    from repro.corpusdb import FindingsDB
    args = build_known_bugs_parser().parse_args(argv)
    if not os.path.exists(args.db_path):
        print(f"error: findings database {args.db_path!r} does not exist "
              f"(run a campaign with --db first)", file=sys.stderr)
        return 2
    with FindingsDB(args.db_path) as db:
        bugs = db.known_bugs()
        ledger = db.suppression_ledger()
        counts = db.summary()
    if args.as_json:
        print(json.dumps({"known_bugs": bugs, "ledger": ledger,
                          "summary": counts}, indent=2))
        return 0
    if not bugs:
        print("no known bugs recorded (attribute buckets with 'bisect')")
        return 0
    from repro.analysis.tables import table_known_bugs
    from repro.utils.text import format_table
    headers, table = table_known_bugs(bugs)
    print(format_table(headers, table))
    if args.ledger:
        print("suppression ledger    :")
        if not ledger:
            print("  (no campaign re-found an attributed bucket yet)")
        for line in ledger:
            print(f"  suppressed_by {line['responsible']}: "
                  f"{line['slug'] or line['signature'][:40]} — "
                  f"{line['hits']} hit(s) in campaign "
                  f"{(line['campaign_key'] or '?')[-40:]}")
    print(f"known bugs: {len(bugs)} attributed, "
          f"{counts['suppressions']} suppression ledger line(s) across "
          f"{counts['campaigns']} campaigns")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
