"""Benchmark of rsstest: four workloads, end-to-end and per-layer metrics.

Usage:
    python3 bench/run.py --workload exact-table|mc-null|power|cli-test|all
                         [--seed N] [--seconds S] [--trace 0|1]

Each pass of a workload runs in a fresh interpreter (bench/worker.py), so
the exact engine's in-process cache is cold every time, as it is for a
user's `rsstest` process.  Passes repeat until --seconds of measuring have
gone by; every metric is the median over the run's passes.  The first pass also checks every output (check and
probe time is not measuring time); later passes must reproduce its output digest.

--trace 0 reports the end-to-end metrics named in BENCHMARK.json.
--trace 1 alternates traced and untraced passes and reports the per-layer
metrics (self times from spans around the layer functions, layer probes,
and the tracing overhead against the untraced passes).

Prints every metric with its unit, then, as the last line, one JSON object
with the keys correct, attempted, failed and metrics.  A run record is also
written to .bench_out/BENCH_<workload>_trace<t>_seed<n>.json, and a traced run
writes its raw spans to .bench_out/SPANS_<workload>_seed<n>.json.  See
bench/README.md for what each workload is for.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("exact-table", "mc-null", "power", "cli-test")
DEFAULT_SEED = 1
START_LIMIT_S = 110  # start no pass after this, so a run ends within 180 s
RUN_LIMIT_S = 170


class BenchError(Exception):
    pass


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def spawn(workload: str, seed: int, mode: str, run_start: float) -> dict:
    """Run one pass in a fresh interpreter and return its report."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    spawned_at = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), workload, str(seed), mode,
         repr(spawned_at), str(OUT / "scratch")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, RUN_LIMIT_S - (spawned_at - run_start)))
    except BaseException as exc:  # timeout, interrupt or SIGTERM: stop the pass first
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise BenchError(f"{workload} {mode} pass did not finish in time") from None
        raise
    if proc.returncode != 0:
        raise BenchError(f"{workload} {mode} pass exited {proc.returncode}:\n{stderr[-2000:]}")
    return json.loads(stdout.strip().splitlines()[-1])


def cache_size(level: int) -> int | None:
    try:
        text = subprocess.run(
            ["getconf", f"LEVEL{level}_CACHE_SIZE"], capture_output=True, text=True, timeout=10
        ).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        return None
    return int(text) if text.isdigit() else None


def end_to_end(untraced: list[dict]) -> dict[str, float]:
    return {
        "wall_s": median(p["wall_s"] for p in untraced),
        "setup_s": median(p["setup_s"] for p in untraced),
        "peak_rss_mb": median(p["peak_rss_mb"] for p in untraced),
        "reps_per_s": median(p["units"] / p["wall_s"] for p in untraced),
        "test_latency_p50_s": median(x for p in untraced for x in p["latencies"]),
    }


def per_layer(names: list[str], traced: list[dict], untraced: list[dict]) -> dict[str, float]:
    """Per-layer metrics but the tracing overhead.

    Span and probe metrics are medians over the traced passes; the route
    latencies of cli-test come from the untraced passes.
    """

    def one_pass(report: dict) -> dict[str, float]:
        layers = report["trace"]["layers"]

        def span(name: str, label: str | None, column: int) -> float:
            return sum(
                row[column]
                for key, row in layers.items()
                if key.split("|")[0] == name and (label is None or key.split("|")[1] == label)
            )

        values = {
            "exact.words": report["trace"]["exact_words"],
            "nulldist.critical_value_s": span("nulldist.critical_value", None, 1),
            "nulldist.run_test_s": span("nulldist.run_test", None, 1),
            "statistics.evaluate_s": span("statistics.evaluate", None, 1),
            "sample.parse_csv_s": span("sample.parse_csv", None, 1),
            "models.tie_regenerations": report["ties"],
            "batch.evaluate_s": span("batch.evaluate", None, 1),
            "mc.null_s": span("mc.null", None, 0),
            "mc.reduce_s": span("mc.null", None, 1),
            "mc.chunks": report["trace"]["mc_chunks"],
            "power.null_s": span("power.null", None, 0),
            "power.estimate_s": span("power.estimate", None, 0),
            "power.threshold_s": span("power.estimate", None, 1),
        }
        for name in names:
            if name.startswith("exact.grid_s."):
                values[name] = span("exact.grid", name.rsplit(".", 1)[1], 1)
            elif name.startswith("models.draw_s."):
                values[name] = span("models.draw", name.rsplit(".", 1)[1], 1)
            elif name.startswith("batch.tensor_bytes_per_rep."):
                k, n = map(int, name.rsplit(".", 1)[1].split("x"))
                values[name] = k * k * n * n  # one bool per (cell, cell) pair
            elif name.startswith(("batch.probe_s.", "cli.import_s")):
                values[name] = report["probes"].get(name, 0.0)
        return values

    passes = [one_pass(report) for report in traced]
    out = {name: median(p[name] for p in passes) for name in names if name in passes[0]}
    for route in ("exact", "mc"):
        out[f"cli.latency_s.{route}"] = median(
            x for p in untraced for x in p.get("routes", {}).get(route, [])
        )
    return out


def tracing_overhead_pct(passes: list[dict]) -> float:
    """Median over traced passes of their wall time against the untraced pass
    just before them, so slow drifts of the machine cancel in each pair."""
    ratios = [
        after["wall_s"] / before["wall_s"]
        for before, after in zip(passes, passes[1:])
        if "trace" in after and "trace" not in before
    ]
    return 100.0 * (median(ratios) - 1.0)


def run_workload(workload: str, seed: int, seconds: int, trace: bool, spec: dict) -> dict:
    run_start = time.monotonic()
    first = spawn(workload, seed, "check", run_start)
    passes = [first]
    modes = itertools.cycle(["traced", "plain"]) if trace else itertools.repeat("plain")
    while True:
        elapsed = time.monotonic() - run_start
        measuring = elapsed - sum(p["untimed_s"] for p in passes)
        need_traced = trace and not any("trace" in p for p in passes)
        if elapsed > START_LIMIT_S or (measuring >= seconds and not need_traced):
            break
        passes.append(spawn(workload, seed, next(modes), run_start))

    untraced = [p for p in passes if "trace" not in p]
    traced = [p for p in passes if "trace" in p]
    mismatched = [p for p in passes[1:] if p["digest"] != first["digest"]]
    attempted = first["attempted"] + sum(p["ops"] for p in passes[1:])
    failures = first["failures"] + [
        f"pass {passes.index(p)}: outputs differ from the checked pass" for p in mismatched
    ]
    failed = len(first["failures"]) + sum(p["ops"] for p in mismatched)

    if trace:
        names = [m["name"] for m in spec["per_layer"]]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = per_layer(names, traced, untraced)
        values["trace.overhead_pct"] = tracing_overhead_pct(passes)
        values["batch.known_defect_probes_failed"] = len(first["known"])
        missing = set(names) - set(values)
        if missing:
            raise BenchError(f"per-layer metrics not computed: {sorted(missing)}")
    else:
        names = [m["name"] for m in spec["end_to_end"]]
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = end_to_end(untraced)
    metrics = {name: {"value": values[name], "unit": units[name]} for name in names}

    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": first["numpy"],
        "l2_cache_bytes": cache_size(2),
        "l3_cache_bytes": cache_size(3),
        "threads": first["threads"],
        "passes": [
            {"mode": "traced" if "trace" in p else "untraced", "wall_s": p["wall_s"], "setup_s": p["setup_s"]}
            for p in passes
        ],
        "operations_per_pass": first["ops"],
        "latency_samples": sum(len(p["latencies"]) for p in untraced),
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "known_defects": first["known"],
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"BENCH_{workload}_trace{int(trace)}_seed{seed}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    if traced:
        # spans as [name, label, start_ns, end_ns, parent index], per process
        spans = [p["spans"] for p in traced]
        (OUT / f"SPANS_{workload}_seed{seed}.json").write_text(json.dumps(spans) + "\n")

    print(f"== {workload} seed={seed} trace={int(trace)}: {len(untraced)} untraced and "
          f"{len(traced)} traced passes, nproc={record['nproc']} threads={record['threads']} "
          f"python={record['python']} numpy={record['numpy']} "
          f"L2={record['l2_cache_bytes']} L3={record['l3_cache_bytes']}")
    for name in names:
        note = ""
        if name == "test_latency_p50_s":
            note = f"  (median of {record['latency_samples']} requests)"
        elif name == "exact.words":
            note = "  (computed from the grids, not counted)"
        elif name.startswith("batch.tensor_bytes_per_rep."):
            note = "  (computed, k^2 n^2)"
        print(f"{name} = {values[name]} {units[name]}{note}")
    for failure in failures[:20]:
        print(f"FAILED {failure}")
    if len(failures) > 20:
        print(f"... and {len(failures) - 20} more failures")
    for known in first["known"]:
        print(f"KNOWN DEFECT (ROADMAP Baseline; not counted as an operation) {known}")
    print(f"record: {path.relative_to(ROOT)}")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "rsstest" / "__init__.py").is_file():
        print(f"error: no rsstest sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        try:
            result = run_workload(workload, args.seed, args.seconds, bool(args.trace), spec)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
