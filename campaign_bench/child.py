"""One fresh benchmark process.

``child.py setup WORKLOAD RNG_SEED NUM_SEEDS WORKDIR`` imports ``repro``,
builds the workload's campaign and prints ``ready`` (one set-up sample).

``child.py run|trace WORKLOAD RNG_SEED NUM_SEEDS WORKDIR`` also runs the
campaign and prints one JSON line: wall and CPU seconds of the timed
``run()`` without the reference chunks run inside it, the speed factor
that rescales them to nominal speed, peak memory, findings digests,
operation counts and, for ``trace``, the per-layer metrics.  ``trace`` also
writes the spans to ``WORKDIR``.
"""

import json
import os
import resource
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import speed  # noqa: E402
import workloads  # noqa: E402


def main(argv) -> int:
    mode, workload, workdir = argv[1], argv[2], argv[5]
    rng_seed, num_seeds = int(argv[3]), int(argv[4])
    if mode == "setup":
        workloads.build(workload, rng_seed, num_seeds, workdir)
        print("ready", flush=True)
        return 0

    import layers
    meter = speed.Meter()
    recorder = layers.Recorder(spans=(mode == "trace"), meter=meter)
    layers.install(recorder)
    campaign = workloads.build(workload, rng_seed, num_seeds, workdir)
    speed.chunk()  # warm-up
    meter.sample()
    reference_wall, reference_cpu = meter.wall, meter.cpu
    start, cpu_start = time.perf_counter(), time.process_time()
    result = campaign.run()
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu_start
    # Reference chunks run inside run() are not the campaign's time.
    wall -= meter.wall - reference_wall
    cpu -= meter.cpu - reference_cpu
    meter.sample()
    telemetry = getattr(campaign, "telemetry_summary", None)
    if telemetry is None:
        recorder.absent.append("OrchestratedCampaign.telemetry_summary")
        telemetry = {}
    counts = dict(recorder.counts)
    counts.update(("telemetry." + key, value)
                  for key, value in telemetry.get("totals", {}).items())
    out = {"wall_s": wall, "cpu_s": cpu, "speed_factor": meter.factor(),
           "reference_s": statistics.fmean(meter.samples),
           "peak_rss_mb":
               resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
           "findings": workloads.findings(workload, campaign, result),
           "counts": counts, "absent": recorder.absent}
    if mode == "trace":
        out["layers"] = layers.per_layer(recorder, telemetry, wall, workdir)
        with open(os.path.join(workdir, "spans.json"), "w",
                  encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "seed"],
                       "spans": [span for span in recorder.spans
                                 if span is not None]}, handle)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
