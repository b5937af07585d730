#!/usr/bin/env python3
"""The repo benchmark: replays a generated workload through the real engines.

    python3 perfbench/run.py --workload traffic-serial --seed 1 --seconds 30 --trace 0

Run from the repo root (any directory works; paths are resolved from this
file). The script builds its own optimised perfbench binary under
.bench_build/, generates the workload trace from --seed, computes the serial
reference output for that trace once (cached), replays the trace for about
--seconds seconds, checks every replay's output against the reference, and
prints the metrics. The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 prints the end-to-end metrics; --trace 1 runs the traced mode and
prints the per-layer metrics instead. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
CACHE_DIR = BUILD_DIR / "cache"

# Each workload's definition, event count included (throughput depends on
# trace length). README.md says why each was chosen.
WORKLOADS = {
    "traffic-serial": {"family": "traffic", "events": 300_000, "mode": "batch"},
    "twitter-sharded": {"family": "twitter", "events": 150_000,
                        "mode": "sharded"},
}

END_TO_END = {
    "events_per_s": "1/s",
    "setup_s": "s",
    "rss_peak_mb": "MB",
}

PER_LAYER = {
    "io.load_s": "s",
    "core.engine_start_s": "s",
    "stream.segment_us": "us",
    "stream.segments_per_event": "ratio",
    "core.mine_us": "us",
    "core.mining_ms": "ms",
    "core.maintenance_ms": "ms",
    "core.maintenance_runs": "count",
    "core.maintenance_max_call_ms": "ms",
    "core.candidates_checked": "count",
    "core.fcps_per_candidate": "ratio",
    "core.lcp_rows": "count",
    "core.slcp_probes": "count",
    "core.segments_expired": "count",
    "core.collect_us": "us",
    "core.alerts": "count",
    "index.bytes": "B",
    "index.nodes": "count",
    "index.compression_ratio": "ratio",
    "core.push_s": "s",
    "core.finish_drain_s": "s",
    "stream.deliveries_per_segment": "ratio",
    "stream.backfills": "count",
    "core.shard_mining_ms_max": "ms",
    "core.shard_skew": "ratio",
    "index.bytes_all_shards": "B",
    "stream.shard_queue_hwm_max": "count",
    "stream.event_queue_hwm": "count",
    "core.merge_stalls": "count",
    "stream.pool_slab_allocs": "count",
    "stream.pool_free_slabs": "count",
    "core.serial_events_per_s": "1/s",
    "core.shard_speedup": "ratio",
    "bench.gen_lag_p99_us": "us",
    "bench.trace_overhead_pct": "%",
}

# Traced runs: per-layer self times must add up to the replay's wall time
# within this share (the rest is harness loop time between engine calls).
SPAN_TOLERANCE = 0.01

# Limits per child process: a hung step fails the run (the child is killed)
# instead of hanging it. The first build in a checkout may take minutes.
BUILD_TIMEOUT_S = 840
STEP_TIMEOUT_S = 120


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def run_child(cmd, timeout):
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"timed out after {timeout} s: {' '.join(map(str, cmd))}")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        fail(f"exit {proc.returncode}: {' '.join(map(str, cmd))}")
    return [json.loads(line) for line in proc.stdout.splitlines()
            if line.startswith("{")]


def build():
    """Configures (once) and builds the Release perfbench binary."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    log = BUILD_DIR / "build.log"
    cache = BUILD_DIR / "CMakeCache.txt"
    source = f"CMAKE_HOME_DIRECTORY:INTERNAL={ROOT / 'perfbench'}"
    if cache.is_file() and source not in cache.read_text().splitlines():
        cache.unlink()  # configured for a checkout at another path
    steps = []
    if not cache.is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B",
                      str(BUILD_DIR), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    with open(log, "w") as out:
        for step in steps:
            try:
                code = subprocess.run(step, cwd=ROOT, stdout=out,
                                      stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S).returncode
            except subprocess.TimeoutExpired:
                code = "timeout"
            if code != 0:
                sys.stderr.write(log.read_text()[-4000:])
                fail(f"build step failed ({code}): {' '.join(step)}")
    return BUILD_DIR / "perfbench"


def binary_digest(binary):
    digest = hashlib.sha256()
    with open(binary, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()[:16]


def trace_for(binary, family, events, seed):
    """The workload trace for (family, events, seed), generated once."""
    CACHE_DIR.mkdir(parents=True, exist_ok=True)
    csv = CACHE_DIR / f"{family}-{events}-{seed}.csv"
    if not csv.is_file():
        tmp = csv.with_suffix(".tmp")
        run_child([binary, "gen", f"--family={family}", f"--events={events}",
                   f"--seed={seed}", f"--out={tmp}"], STEP_TIMEOUT_S)
        tmp.replace(csv)
    return csv


def reference_for(binary, family, csv):
    """Serial MiningEngine output on `csv`, computed once per binary."""
    path = csv.with_name(f"{csv.stem}.{binary_digest(binary)}.ref.json")
    for stale in csv.parent.glob(f"{csv.stem}.*.ref.json"):
        if stale != path:
            stale.unlink()
    if not path.is_file():
        (ref,) = [line for line in run_child(
            [binary, "reference", f"--family={family}", f"--csv={csv}"],
            STEP_TIMEOUT_S) if line["kind"] == "reference"]
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(ref))
        tmp.replace(path)
    return json.loads(path.read_text())


def emit(correct, attempted, failed, metrics):
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--events", type=int, default=0,
                        help="override the workload's event count "
                             "(self-test toy sizes only)")
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be > 0")

    workload = dict(WORKLOADS[args.workload])
    if args.events > 0:
        workload["events"] = args.events
    family = workload["family"]

    binary = build()
    csv = trace_for(binary, family, workload["events"], args.seed)
    ref = reference_for(binary, family, csv)

    cmd = [binary, "run", f"--family={family}", f"--csv={csv}",
           f"--mode={workload['mode']}", f"--seconds={args.seconds}",
           f"--trace={args.trace}"]
    if args.trace:
        spans = BUILD_DIR / "spans" / f"{args.workload}.csv"
        spans.parent.mkdir(parents=True, exist_ok=True)
        cmd.append(f"--spans_out={spans}")
    lines = run_child(cmd, args.seconds + STEP_TIMEOUT_S)

    context = next(l for l in lines if l["kind"] == "context")
    passes = [l for l in lines if l["kind"] == "pass"]
    summary = next(l for l in lines if l["kind"] == "summary")

    # Output check: every replay, traced or not, sharded or serial, must
    # reproduce the serial reference exactly.
    failed = [p for p in passes if p["signature"] != ref["signature"]]
    timed = [p for p in passes if not p["traced"] and not p["serial_baseline"]]
    achieved = sorted(p["events_per_s"] for p in timed)[len(timed) // 2]
    print(f"context: nproc={context['nproc']} kernel={context['kernel']} "
          f"build={context['build_type']} S={context['shards']} "
          f"W={context['workers']} batch={context['batch']} "
          f"events={passes[0]['events']} seed={args.seed} "
          f"offered_rate=closed-loop achieved_rate={achieved:.0f}/s")
    print(f"output: reference alerts={ref['alerts']} "
          f"signature={ref['signature']}; "
          f"{len(passes) - len(failed)}/{len(passes)} replays match")
    if failed:
        for p in failed:
            print(f"MISMATCH: replay produced alerts={p['alerts']} "
                  f"signature={p['signature']}", file=sys.stderr)
        emit(False, len(passes), len(failed), {})
        return 1

    if args.trace:
        wanted = PER_LAYER
        share = summary["span_unaccounted_share"]
        print(f"span accounting: self times cover the replay wall time to "
              f"{share * 100:.3f}% (tolerance {SPAN_TOLERANCE * 100:.1f}%), "
              f"smallest span self time {summary['span_min_self_us']:.3f} us")
        if share > SPAN_TOLERANCE or summary["span_min_self_us"] < 0:
            print("perfbench: span accounting check failed", file=sys.stderr)
            emit(False, len(passes), 0, {})
            return 1
    else:
        wanted = END_TO_END
    print(f"samples: {summary['passes']} timed replays, "
          f"{summary['traced_passes']} traced, {summary['serial_passes']} "
          f"serial baseline, {summary['setup_samples']} set-ups")
    metrics = {}
    for name, unit in wanted.items():
        value = summary[name]
        metrics[name] = {"value": value, "unit": unit}
        print(f"  {name:32s} {value:16.6g} {unit}")
    emit(True, len(passes), 0, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
