"""Campaign benchmark of the UBfuzz reproduction.

Run from the repository root::

    python3 campaign_bench/run.py --workload fuzz --seed 1 --seconds 40 --trace 0

Without ``--seed`` and ``--seconds`` it runs the pinned default, seed 1 at
40 s.  Workloads: ``fuzz`` (serial fuzzing campaign with corpus, checkpoint
and findings DB) and ``markers`` (serial marker campaign with a findings
DB); see README.md.

Every run starts fresh processes: set-up samples (interpreter start to a
constructed campaign) and one untraced campaign whose ``run()`` gives the
end-to-end metrics.  Campaign times are rescaled to a nominal machine speed
that a fixed reference loop measures in the campaign process
(``speed.py``); set-up time is the fastest sample as measured.  With
``--trace 1`` a traced campaign follows and the per-layer metrics are
reported instead.  The findings of every campaign are digested and checked
against the pinned digests and against earlier runs of the same seed
(traced against untraced), and the operation counts of traced runs must
repeat exactly.  The last line of standard output is one JSON object; any
mismatch prints ``"correct": false`` and exits with status 1.
"""

import argparse
import compileall
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import speed

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(BENCH_DIR, ".work")
CHILD = os.path.join(BENCH_DIR, "child.py")

SETUP_SAMPLES = 16
TRACE_SETUP_SAMPLES = 6
CHILD_TIMEOUT_S = 150

#: End-to-end metrics (untraced runs) and their units.
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("programs_per_s", "1/s"),
              ("cpu_s", "s"), ("peak_rss_mb", "MB"))

#: ``repro`` packages whose import time the traced run reports.
PACKAGES = ("analysis", "cdsl", "compilers", "core", "corpusdb", "coverage",
            "markers", "optim", "orchestrator", "reduction", "sanitizers",
            "seedgen", "telemetry", "triage", "utils", "vm")


class Mismatch(Exception):
    """Findings or counts differ from what they must equal."""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def _start(args, workdir, importtime=False):
    """Start child.py in a fresh process group with stderr to a file."""
    os.makedirs(workdir, exist_ok=True)
    command = [sys.executable]
    if importtime:
        command += ["-X", "importtime"]
    command += [CHILD, *map(str, args), workdir]
    with open(os.path.join(workdir, "stderr.txt"), "w") as stderr:
        return subprocess.Popen(command, cwd=ROOT, env=_env(),
                                stdout=subprocess.PIPE, stderr=stderr,
                                text=True, start_new_session=True)


def _kill(process) -> None:
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    process.wait()


def _finish(process, workdir) -> str:
    try:
        out, _ = process.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        _kill(process)
        raise RuntimeError(f"{os.path.basename(workdir)}: timed out")
    if process.returncode != 0:
        with open(os.path.join(workdir, "stderr.txt")) as handle:
            sys.stderr.write(handle.read()[-4000:])
        raise RuntimeError(f"{os.path.basename(workdir)}: exit status "
                           f"{process.returncode}")
    return out


def setup_samples(workload, plan, workdir, count, importtime):
    """Fresh-process set-up times, plus per-package import times."""
    times, imports = [], []
    for index in range(count + 1):
        sample_dir = os.path.join(workdir, f"setup-{index}")
        start = time.perf_counter()
        process = _start(["setup", workload, *plan], sample_dir,
                         importtime=importtime)
        try:
            line = process.stdout.readline()
        except BaseException:
            _kill(process)
            raise
        elapsed = time.perf_counter() - start
        _finish(process, sample_dir)
        if line.strip() != "ready":
            raise RuntimeError("set-up sample did not construct the campaign")
        if index == 0:
            continue  # warm-up: page cache and bytecode
        times.append(elapsed)
        if importtime:
            with open(os.path.join(sample_dir, "stderr.txt")) as handle:
                imports.append(_import_times(handle.read()))
        shutil.rmtree(sample_dir)
    return times, imports


def _import_times(stderr: str) -> dict:
    """Self import seconds per ``repro`` package from ``-X importtime``."""
    per_package = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = [field.strip() for field in line[12:].split("|")]
        if len(fields) != 3 or not fields[0].isdigit():
            continue
        self_us, cumulative_us, module = int(fields[0]), int(fields[1]), fields[2]
        if module == "repro":
            per_package["repro"] = cumulative_us / 1e6
        elif module.startswith("repro."):
            package = module.split(".")[1]
            per_package[package] = per_package.get(package, 0.0) + self_us / 1e6
    return per_package


def run_campaign(mode, workload, plan, workdir) -> dict:
    out = _finish(_start([mode, workload, *plan], workdir), workdir)
    return json.loads(out.strip().splitlines()[-1])


def source_hash() -> str:
    """Digest of the program and benchmark sources (keys the run cache)."""
    hasher = hashlib.sha256()
    for top in (os.path.join(SRC, "repro"), BENCH_DIR):
        for directory, dirs, names in os.walk(top):
            dirs[:] = sorted(d for d in dirs if not d.startswith((".", "_")))
            for name in sorted(names):
                if name.endswith(".py"):
                    path = os.path.join(directory, name)
                    hasher.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as handle:
                        hasher.update(handle.read())
    return hasher.hexdigest()[:16]


def _prune_records(current: str) -> None:
    """Drop the records of other source versions."""
    for name in os.listdir(WORK):
        if name.startswith(("findings-", "counts-")) \
                and name != f"{name.split('-')[0]}-{current}.json":
            os.remove(os.path.join(WORK, name))


def _agree(path, key, value, what) -> bool:
    """Record *value* under *key* in the JSON file at *path*, or check it
    equals the value an earlier run recorded there (returns True then)."""
    recorded = {}
    if os.path.exists(path):
        with open(path) as handle:
            recorded = json.load(handle)
    if key in recorded:
        if recorded[key] != value:
            raise Mismatch(f"{what}: {value} != {recorded[key]}")
        return True
    recorded[key] = value
    temporary = f"{path}.{os.getpid()}"
    with open(temporary, "w") as handle:
        json.dump(recorded, handle, indent=1, sort_keys=True)
    os.replace(temporary, path)
    return False


def check_findings(args, pinned, records, plan, findings) -> list:
    """Compare findings with the pinned digests and with earlier runs."""
    notes = []
    observed = {"rng_seed": plan[0], "num_seeds": plan[1],
                "programs": findings["programs"],
                "digests": findings["digests"]}
    if "stored_buckets" in findings \
            and findings["stored_buckets"] != findings["buckets"]:
        raise Mismatch(f"corpus holds {findings['stored_buckets']} buckets, "
                       f"the result {findings['buckets']}")
    if args.seed == pinned["seed"] and args.seconds == pinned["seconds"]:
        if pinned[args.workload] != observed:
            raise Mismatch(f"{args.workload} findings {observed} != pinned "
                           f"{pinned[args.workload]}")
        notes.append("findings equal the pinned digests")
    # Every run of one workload and seed must find the same: traced
    # equals untraced, and a rerun equals the first run.
    if _agree(os.path.join(WORK, f"findings-{records}.json"),
              f"{args.workload}/{args.seed}/{args.seconds}", observed,
              f"{args.workload} findings"):
        notes.append("findings equal earlier runs of this seed")
    return notes


def operations(counts) -> tuple:
    """(attempted, failed) operations counted at the layer boundaries."""
    names = ("seedgen", "compilers.compile", "vm.run", "markers.survey")
    attempted = sum(counts.get(name + ".calls", 0) for name in names)
    failed = sum(counts.get(name + ".failed", 0) for name in names)
    return attempted, failed


def main(argv=None) -> int:
    # The pinned digests are for the default seed and size.
    with open(os.path.join(BENCH_DIR, "pinned.json")) as handle:
        pinned = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=pinned["seed"])
    parser.add_argument("--seconds", type=int, default=pinned["seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"campaign_bench: no program sources under {SRC}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [BENCH_DIR, SRC]
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")

    compileall.compile_dir(os.path.join(SRC, "repro"), quiet=1)
    compileall.compile_dir(BENCH_DIR, quiet=1, maxlevels=0)
    os.makedirs(WORK, exist_ok=True)
    records = source_hash()
    _prune_records(records)
    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    plan = workloads.plan(args.workload, args.seed, args.seconds)
    print(f"workload {args.workload}  seed {args.seed}  campaign rng_seed "
          f"{plan[0]}, {plan[1]} seed programs")
    try:
        result = measure(args, pinned, records, plan, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def measure(args, pinned, records, plan, workdir) -> dict:
    trace = bool(args.trace)
    samples = TRACE_SETUP_SAMPLES if trace else SETUP_SAMPLES
    # Half the set-up samples run before the campaign and half after, so
    # a burst of load on the machine cannot hit all of them.
    setup, imports = setup_samples(args.workload, plan,
                                   os.path.join(workdir, "before"),
                                   samples // 2, importtime=trace)
    untraced = run_campaign("run", args.workload, plan,
                            os.path.join(workdir, "run"))
    runs = [untraced]
    if trace:
        runs.append(run_campaign("trace", args.workload, plan,
                                 os.path.join(workdir, "trace")))
        os.replace(os.path.join(workdir, "trace", "spans.json"),
                   os.path.join(WORK, f"spans-{args.workload}.json"))
    more_setup, more_imports = setup_samples(
        args.workload, plan, os.path.join(workdir, "after"),
        samples - samples // 2, importtime=trace)
    setup += more_setup
    imports += more_imports
    correct, notes = True, []
    try:
        for run in runs:
            notes = check_findings(args, pinned, records, plan,
                                   run["findings"])
        if trace:
            deterministic = {key: value
                             for key, value in runs[1]["counts"].items()
                             if not key.startswith("orchestrator.")}
            if _agree(os.path.join(WORK, f"counts-{records}.json"),
                      f"{args.workload}/{args.seed}/{args.seconds}",
                      deterministic, f"{args.workload} traced counts"):
                notes.append("traced counts equal earlier traced runs")
    except Mismatch as exc:
        correct = False
        print(f"MISMATCH: {exc}")
    findings = untraced["findings"]
    print("findings: " + json.dumps(findings, sort_keys=True))
    for note in notes:
        print("check: " + note)

    attempted, failed = operations(runs[-1]["counts"])
    absent = sorted(set(runs[-1]["absent"]))
    if absent:
        print("absent entry points (reported as 0): " + ", ".join(absent))
    wall = untraced["wall_s"] * untraced["speed_factor"]
    if trace:
        traced = runs[1]
        metrics = dict(traced["layers"])
        for package in PACKAGES + ("repro",):
            metrics[f"{package}.import_s"] = statistics.median(
                sample.get(package, 0.0) for sample in imports)
        metrics["trace.overhead_share"] = (
            traced["wall_s"] * traced["speed_factor"] / wall - 1)
        metrics["failed_share"] = failed / attempted if attempted else 0.0
        metrics["speed.reference_s"] = traced["reference_s"]
        _print_layers(metrics, traced["wall_s"])
        units = {name: _unit(name) for name in metrics}
    else:
        # Load on the machine only adds time to a set-up sample, and the
        # fastest sample is the steadiest of the estimators tried (README).
        metrics = {"setup_s": min(setup), "wall_s": wall,
                   "programs_per_s": findings["programs"] / wall,
                   "cpu_s": untraced["cpu_s"] * untraced["speed_factor"],
                   "peak_rss_mb": untraced["peak_rss_mb"]}
        units = dict(END_TO_END)
        print(f"machine speed: reference chunk {untraced['reference_s']:.4f} s"
              f" against {speed.NOMINAL_S} s nominal; campaign wall "
              f"{untraced['wall_s']:.3f} s and CPU {untraced['cpu_s']:.3f} s "
              f"as measured")
        print(f"set-up samples: {len(setup)}, "
              + " ".join(f"{value:.3f}" for value in sorted(setup)))
        print(f"failed_share {failed}/{attempted}")
        for name, unit in END_TO_END:
            print(f"{name:16s} {metrics[name]:12.4f} {unit}")
    return {"correct": correct, "attempted": max(attempted, 1),
            "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}


def _unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith(("_share", "_ratio", "_yield")):
        return "ratio"
    return "count"


def _print_layers(metrics: dict, traced_wall: float) -> None:
    """Self time per layer, largest first, as a share of traced wall."""
    print(f"traced wall {traced_wall:.3f} s; self time by layer:")
    rows = sorted(((value, name) for name, value in metrics.items()
                   if name.endswith(".self_s")), reverse=True)
    for value, name in rows:
        if value > 0:
            print(f"  {name[:-7]:32s} {value:9.3f} s  "
                  f"{value / traced_wall:6.1%}")


if __name__ == "__main__":
    sys.exit(main())
