#!/usr/bin/env python3
"""Runs one benchmark workload and prints its metrics (see README.md).

    python3 perfbench/run.py --workload flip_churn --seed 1 --seconds 38 --trace 0

Builds perfbench/ with CMake into .bench_build/perfbench, then runs the
workload binary again and again, each time in a fresh process, until
--seconds have passed (and at least MIN_RUNS times).  Prints provenance and
a table of every metric with its unit and sample count; the last line is
one JSON object with the keys correct, attempted, failed and metrics.
--trace 0 reports the end-to-end metrics, with every wall time scaled to
the reference host speed by calibration runs around each process (README.md,
"Host-speed scaling").  --trace 1 reports the per-layer metrics: traced
processes alternate with untraced ones, and the difference between the two
is reported as the tracing overhead.  --workload all runs
every workload in turn.  Exit status 0 means every operation succeeded and
every output matched its oracle.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "centaur_perfbench")
CALIBRATE = os.path.join(BUILD_DIR, "perfbench_calibrate")
SPANS_DIR = os.path.join(BUILD_DIR, "spans")

# About perfbench_calibrate's median time between workload processes on the
# reference host (4-vCPU Xeon, g++ 12.2, -O3).  End-to-end wall times are
# reported at that host speed.  Never change it: it sets the scale every
# earlier result was reported in.
REFERENCE_CALIBRATION_S = 0.2
# The end-to-end metrics that are wall times; convergence_ms_p50 is
# simulated time and is never scaled.
WALL_TIMES = ("setup_s", "cold_start_s", "total_s", "transition_ms_p50",
              "transition_ms_p95", "query_us_p50", "query_us_p99")

WORKLOADS = ("sparse_cold", "flip_churn", "serve_churn")
# Seed kept out of development; later performance claims must also hold on
# it (README.md, "Seeds").
HELD_OUT_SEED = 20091009
# Fresh processes per run, at the least, whatever --seconds says: untraced
# ones with --trace 0, and of each kind with --trace 1.
MIN_RUNS = 3
MIN_TRACE_RUNS = 2
PROCESS_TIMEOUT_S = 150

# (name, unit, better, samples): the end-to-end metrics, measured untraced.
# Each is the interquartile mean over the run's processes.  A percentile is
# first taken within each process, over the samples of the kind named here.
END_TO_END = [
    ("setup_s", "s", "lower", None),
    ("cold_start_s", "s", "lower", None),
    ("total_s", "s", "lower", None),
    ("peak_rss_mb", "MB", "lower", None),
    ("cold_start_messages", "count", "lower", None),
    ("cold_start_bytes", "B", "lower", None),
    ("transition_ms_p50", "ms", "lower", "transitions"),
    ("transition_ms_p95", "ms", "lower", "transitions"),
    ("messages_per_transition", "count", "lower", None),
    ("bytes_per_transition", "B", "lower", None),
    ("convergence_ms_p50", "ms", "lower", None),
    ("query_us_p50", "us", "lower", "queries"),
    ("query_us_p99", "us", "lower", "queries"),
]

# (name, unit, better): the per-layer metrics of the traced processes.
PER_LAYER = [
    ("topology.generate_s", "s", "lower"),
    ("sim.network_build_s", "s", "lower"),
    ("eval.node_build_s", "s", "lower"),
    ("sim.cold_events", "count", "lower"),
    ("sim.cold_us_per_event", "us", "lower"),
    ("sim.cold_user_s", "s", "lower"),
    ("sim.cold_sys_s", "s", "lower"),
    ("sim.cold_self_s", "s", "lower"),
    ("sim.transition_events_mean", "count", "lower"),
    ("sim.transition_us_per_event", "us", "lower"),
    ("sim.transition_self_ms_mean", "ms", "lower"),
    ("sim.messages_dropped", "count", "lower"),
    ("sim.dispatch_ns_per_event", "ns", "lower"),
    ("centaur.rss_setup_mb", "MB", "lower"),
    ("centaur.rss_per_node_kb", "KB", "lower"),
    ("centaur.teardown_s", "s", "lower"),
    ("centaur.local_links", "count", "lower"),
    ("centaur.plist_links", "count", "lower"),
    ("centaur.rib_entries", "count", "lower"),
    ("centaur.derive_ns", "ns", "lower"),
    ("centaur.derive_hops_mean", "count", "lower"),
    ("centaur.export_view_us", "us", "lower"),
    ("centaur.snapshot_apply_ns_per_link", "ns", "lower"),
    ("wire.snapshot_bytes", "B", "lower"),
    ("wire.size_ns_per_byte", "ns", "lower"),
    ("serve.publishes", "count", "lower"),
    ("serve.full_builds", "count", "lower"),
    ("serve.publish_us_p50", "us", "lower"),
    ("serve.publish_us_p99", "us", "lower"),
    ("serve.publish_s", "s", "lower"),
    ("serve.queries", "count", "higher"),
    ("serve.queries_not_ok", "count", "lower"),
    ("serve.no_snapshot", "count", "lower"),
    ("serve.paths_per_query", "count", "higher"),
    ("bgp.cold_start_s", "s", "lower"),
    ("bgp.cold_us_per_event", "us", "lower"),
    ("bgp.transition_ms_p50", "ms", "lower"),
    ("bgp.messages_per_transition", "count", "lower"),
    ("bgp.event_cost_ratio", "ratio", "lower"),
    ("trace.overhead_total_s", "s", "lower"),
    ("trace.overhead_cold_start_s", "s", "lower"),
]


class BenchError(Exception):
    """A failure that leaves no result to print."""


def build():
    """Configures (once) and builds the benchmark binary; output to stderr."""
    env = dict(os.environ)
    tmp = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"] + generator)
    steps.append(["cmake", "--build", BUILD_DIR, "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              env=env, check=False)
        if proc.returncode != 0:
            raise BenchError("build step failed: " + " ".join(cmd))


def run_once(workload, seed, trace):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--trace", "1" if trace else "0"]
    if trace:
        os.makedirs(SPANS_DIR, exist_ok=True)
        cmd += ["--spans", os.path.join(SPANS_DIR, "%s-%d.jsonl" % (workload, seed))]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=PROCESS_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired as exc:
        raise BenchError("%s timed out after %d s" % (workload, PROCESS_TIMEOUT_S)) from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("%s exited %d without a result" % (workload, proc.returncode))
    result = json.loads(lines[-1])
    if proc.returncode != 0 and result.get("correct", False):
        raise BenchError("%s exited %d" % (workload, proc.returncode))
    return result


def calibrate():
    """Seconds the calibration kernel takes now."""
    try:
        proc = subprocess.run([CALIBRATE], capture_output=True, text=True,
                              timeout=PROCESS_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired as exc:
        raise BenchError("calibration timed out") from exc
    if proc.returncode != 0 or not proc.stdout.split():
        raise BenchError("calibration exited %d" % proc.returncode)
    return float(proc.stdout.split()[0])


def median_of(runs, key):
    return statistics.median(r["e2e"][key] for r in runs)


def interquartile_mean(values):
    """Mean of the middle half of `values`: a quarter of them, rounded down,
    is dropped from each end."""
    values = sorted(values)
    cut = len(values) // 4
    return statistics.mean(values[cut:len(values) - cut])


def end_to_end(runs):
    """{name: (value, samples, unscaled)} over the untraced processes of one
    run: the interquartile mean of the processes' values, each process's wall
    times first scaled by reference / its calibration.

    A percentile's samples read "processes x fewest samples in a process"."""
    out = {}
    for name, _, _, kind in END_TO_END:
        samples = str(len(runs))
        if kind:
            samples += " x %d" % min(r["samples"][kind] for r in runs)
        unscaled = interquartile_mean(r["e2e"][name] for r in runs)
        if name in WALL_TIMES:
            value = interquartile_mean(
                r["e2e"][name] * REFERENCE_CALIBRATION_S / r["calibration_s"]
                for r in runs)
            out[name] = (value, samples, unscaled)
        else:
            out[name] = (unscaled, samples, None)
    return out


def per_layer(traced, untraced):
    out = {}
    for name, _, _ in PER_LAYER:
        values = [r["layers"][name] for r in traced if name in r["layers"]]
        if values:
            out[name] = (statistics.median(values), str(len(values)), None)
    if traced and untraced:
        samples = "%d vs %d" % (len(traced), len(untraced))
        for name, key in (("trace.overhead_total_s", "total_s"),
                          ("trace.overhead_cold_start_s", "cold_start_s")):
            out[name] = (median_of(traced, key) - median_of(untraced, key),
                         samples, None)
    return out


def measure(workload, seed, seconds, trace):
    """Runs fresh processes for about `seconds`; returns a summary.

    Another process starts only while it is expected to end less than half
    a process past the deadline."""
    start = time.monotonic()
    traced, untraced, durations = [], [], []
    calibration_before = None if trace else calibrate()
    while True:
        use_trace = trace and len(traced) <= len(untraced)
        began = time.monotonic()
        result = run_once(workload, seed, use_trace)
        if not trace:
            # The host speed during the process: the mean of the calibrations
            # right before and right after it.
            calibration_after = calibrate()
            result["calibration_s"] = (calibration_before + calibration_after) / 2
            calibration_before = calibration_after
        durations.append(time.monotonic() - began)
        (traced if use_trace else untraced).append(result)
        if not result["correct"]:
            break
        if trace:
            enough = min(len(traced), len(untraced)) >= MIN_TRACE_RUNS
        else:
            enough = len(untraced) >= MIN_RUNS
        elapsed = time.monotonic() - start
        if enough and elapsed + statistics.median(durations) / 2 >= seconds:
            break
    runs = traced + untraced
    return {
        "workload": workload,
        "first": runs[0],
        "correct": all(r["correct"] for r in runs),
        "errors": sorted({e for r in runs for e in r["errors"]}),
        "attempted": sum(r["ops_attempted"] + r["queries_attempted"] for r in runs),
        "failed": sum(r["ops_failed"] + r["queries_failed"] for r in runs),
        "processes": (len(traced), len(untraced)),
        "calibration": [r.get("calibration_s") for r in untraced],
        "metrics": per_layer(traced, untraced) if trace else end_to_end(untraced),
    }


def print_summary(summary, trace):
    first = summary["first"]
    build_info = first["build"]
    traced, untraced = summary["processes"]
    print("workload  %s  seed %d (held-out seed %d)" % (
        summary["workload"], first["seed"], HELD_OUT_SEED))
    print("host      nproc %d" % (os.cpu_count() or 0))
    print("build     %s, %s, flags '%s'" % (
        build_info["type"], build_info["compiler"], build_info["flags"].strip()))
    print("params    " + json.dumps(first["params"], sort_keys=True))
    print("processes %d traced, %d untraced" % (traced, untraced))
    if not trace:
        print("speed     calibration median %.4f s (reference %.4f s); timings "
              "scaled by reference / each process's calibration" % (
                  statistics.median(summary["calibration"]), REFERENCE_CALIBRATION_S))
    attempted, failed = summary["attempted"], summary["failed"]
    print("ops       attempted %d, failed %d, failed_share %.6g" % (
        attempted, failed, failed / attempted if attempted else 0))
    for error in summary["errors"]:
        print("ERROR     " + error)
    print("%-36s %16s  %-6s %-10s %s" % ("metric", "value", "unit", "samples",
                                         "" if trace else "unscaled"))
    for name, unit, *_ in PER_LAYER if trace else END_TO_END:
        if name in summary["metrics"]:
            value, samples, unscaled = summary["metrics"][name]
            print("%-36s %16.6g  %-6s %-10s %s" % (
                name, value, unit, samples,
                "" if unscaled is None else "%.6g" % unscaled))
        else:
            print("%-36s %16s  %-6s" % (name, "missing", unit))


def result_line(summaries, trace, prefix):
    units = {m[0]: m[1] for m in (PER_LAYER if trace else END_TO_END)}
    metrics = {}
    for s in summaries:
        for name, (value, *_) in s["metrics"].items():
            key = s["workload"] + "." + name if prefix else name
            metrics[key] = {"value": value, "unit": units[name]}
    return {
        "correct": all(s["correct"] for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": metrics,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    try:
        build()
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        summaries = []
        for workload in workloads:
            summary = measure(workload, args.seed, args.seconds, bool(args.trace))
            print_summary(summary, bool(args.trace))
            print()
            summaries.append(summary)
    except BenchError as exc:
        print("run.py: " + str(exc), file=sys.stderr)
        return 1
    line = result_line(summaries, bool(args.trace), args.workload == "all")
    print(json.dumps(line))
    return 0 if line["correct"] and line["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
