"""One pass of one workload, in a fresh interpreter.

Usage: worker.py WORKLOAD SEED MODE SPAWNED_AT SCRATCH_DIR

MODE is "plain" (timed pass only), "check" (timed pass, then every output
check) or "traced" (timed pass with the layer wrappers installed, then the
workload's layer probes).  SPAWNED_AT is the parent's `time.monotonic()`
just before it started this process, so set-up time covers interpreter
start, imports and input generation up to the first timed call.  Prints
one JSON object.
"""

import json
import os
import resource
import shutil
import statistics as stats
import subprocess
import sys
import time
from pathlib import Path


def import_latency(repeats: int = 5) -> float:
    """Median wall time of a bare `import rsstest.cli` process."""
    times = []
    for _ in range(repeats):
        start = time.monotonic()
        subprocess.run([sys.executable, "-c", "import rsstest.cli"], check=True, timeout=60)
        times.append(time.monotonic() - start)
    return stats.median(times)


def main() -> int:
    name, seed, mode, spawned_at, scratch_root = sys.argv[1:]
    seed, spawned_at = int(seed), float(spawned_at)
    scratch = Path(scratch_root) / f"pass-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        import numpy
        import tracing
        import workloads
        from rsstest import models

        tracer = None
        if mode == "traced":
            tracer = tracing.Tracer()
            tracing.install(tracer)
        workload = workloads.WORKLOADS[name](seed, scratch, traced=tracer is not None)
        workload.setup()
        ties_before = models.tie_regeneration_count

        started = time.monotonic()
        out = workload.run()
        wall = time.monotonic() - started

        usage = resource.RUSAGE_CHILDREN if workload.rss_of_children else resource.RUSAGE_SELF
        peak_rss_mb = resource.getrusage(usage).ru_maxrss / 1024
        ties = models.tie_regeneration_count - ties_before
        report = {
            "numpy": numpy.__version__,
            "threads": workload.threads,
            "wall_s": wall,
            "setup_s": started - spawned_at,
            "peak_rss_mb": peak_rss_mb,
            "latencies": workload.latencies or [wall],
            "units": workload.units,
            "ops": workload.ops,
            "digest": workload.digest(out),
        }
        if hasattr(workload, "route_latencies"):
            report["routes"] = workload.route_latencies(out)

        if mode == "check":
            result = workloads.Result()
            workload.check(out, result)
            report.update(attempted=result.attempted, failures=result.failures, known=result.known)

        if tracer is not None:
            summaries = [tracing.summarize(tracer.spans)]
            report["spans"] = {"worker": tracer.spans}
            for child in sorted(scratch.glob("call*.json")):
                doc = json.loads(child.read_text())
                summaries.append(doc["summary"])
                report["spans"][child.stem] = doc["spans"]
                ties += doc["ties"]
            report["trace"] = tracing.merge(summaries)
            report["probes"] = {"cli.import_s": import_latency()}
            if hasattr(workload, "probe"):
                report["probes"].update(workload.probe())
        report["ties"] = ties
        report["untimed_s"] = time.monotonic() - started - wall  # checks and probes
        print(json.dumps(report))
        return 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
