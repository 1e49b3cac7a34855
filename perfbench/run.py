#!/usr/bin/env python3
"""End-to-end benchmark of the SCTP-vs-TCP MPI simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the simulator and the repetition runner from source (into
.bench_build/perfbench), then runs repetitions of one workload, each in a
fresh runner process, until S seconds have passed (at least MIN_REPS).
--workload all runs every workload in turn, S seconds each.
Every repetition generates its inputs from the seed, checks its outputs,
and reports virtual time and an output digest; repetitions of one seed
that disagree count all their operations as failed.

Each untraced repetition is preceded by a run of a fixed reference
computation (reference.hpp) on as many threads as the workload runs. Wall
times are scaled by the run's median reference time to a host on which the
reference takes REF_S seconds, so that slower and faster phases of a shared
host cancel out; the simulator's own speed does not move the reference.

--trace 0 reports the end-to-end metrics (median over repetitions):
  ops_per_s    operations completed per second, set-up excluded, at
               reference host speed
  setup_s      seconds from building the simulated system until the
               measured work begins, at reference host speed
  peak_rss_mb  peak resident memory of one repetition's process
--trace 1 alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones, the unscaled wall metrics
(trace.untraced_ops_per_s, wall.setup_s), the reference times, and the
tracing overhead. The traced repetition's spans
are written to .bench_build/traces/.

The last line of standard output is one JSON object:
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

import argparse
import collections
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
TRACES = ROOT / ".bench_build" / "traces"
RUNNER = BUILD / "perfbench_rep"

WORKLOADS = (
    "farm_sctp_loss2",
    "pingpong_tcp_1mib",
    "service_tcp_fleet",
    "manyflow_sctp_sharded",
)
MIN_REPS = 3           # per kind of repetition (untraced, traced)
REP_TIMEOUT_S = 120
# Threads each workload runs on, and so the reference's threads (default 1).
THREADS = {"manyflow_sctp_sharded": 2}
# Reference time of the host the scaled metrics are expressed for: about
# what the reference takes on one thread of a 4-vCPU x86-64 VM.
REF_S = 0.15

# Per-layer metrics that are wall-clock measurements. Every other per-layer
# metric is a count (or a ratio of counts) and must repeat exactly.
TIMED = ("shard.parks", "shard.cpu_per_wall", "sim.events_per_s")


def is_timed(name):
    if name in TIMED or name.endswith("_ns"):
        return True
    return name.endswith("_s") and name != "app.sim_s"


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds the runner; False on any failure."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", str(HERE), "-B", str(BUILD),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(BUILD), "--target",
              "perfbench_rep", "perfbench_span_test", "-j", jobs]]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("perfbench: build failed: " + " ".join(cmd))
            return False
    return True


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def summarize(values):
    q1, med, q3 = quartiles(values)
    return {"median": med, "q1": q1, "q3": q3, "min": min(values),
            "max": max(values), "n": len(values)}


def run_rep(workload, seed, traced):
    """One repetition in a fresh process; its JSON record, or None."""
    cmd = [str(RUNNER), "--workload", workload, "--seed", str(seed)]
    if traced:
        TRACES.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace", "--spans-out",
                str(TRACES / f"{workload}-seed{seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: repetition timed out after {REP_TIMEOUT_S} s")
        return None
    if proc.stderr:
        log(proc.stderr.rstrip())
    if proc.returncode != 0:
        log(f"perfbench: runner exited with {proc.returncode}")
        return None
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        log("perfbench: unreadable runner output")
        return None


def run_reference(threads):
    """Wall seconds of one reference run in a fresh process, or None."""
    try:
        proc = subprocess.run([str(RUNNER), "--reference", str(threads)],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=REP_TIMEOUT_S)
        return float(json.loads(proc.stdout)["reference_s"])
    except (subprocess.TimeoutExpired, ValueError, KeyError, TypeError):
        log("perfbench: reference run failed")
        return None


def check(reps):
    """Counts attempted and failed operations over all repetitions.

    A repetition fails whole when it crashed, or when its outputs (virtual
    time, digest, and for traced repetitions every count) differ from the
    most common outputs of the seed's repetitions. Otherwise its own failed
    checks count. Returns (attempted, failed, notes).
    """
    done = [r for r in reps if r is not None]
    nominal = max((r["attempted"] for r in done), default=1)

    def outputs(r):
        return (r["sim_ns"], r["digest"])

    def counts(r):
        return tuple(sorted((k, v) for k, v in r["layer"].items()
                            if not is_timed(k)))

    ref = collections.Counter(outputs(r) for r in done).most_common(1)
    ref_counts = collections.Counter(
        counts(r) for r in done if r["traced"]).most_common(1)
    attempted = failed = 0
    notes = []
    for i, r in enumerate(reps):
        if r is None:
            attempted += nominal
            failed += nominal
            notes.append(f"rep {i}: crashed")
            continue
        attempted += r["attempted"]
        if outputs(r) != ref[0][0]:
            failed += r["attempted"]
            notes.append(f"rep {i}: outputs {outputs(r)} differ from "
                         f"{ref[0][0]}")
        elif r["traced"] and counts(r) != ref_counts[0][0]:
            failed += r["attempted"]
            notes.append(f"rep {i}: per-layer counts differ between "
                         "repetitions")
        else:
            failed += r["attempted"] - r["ops"]
            notes += [f"rep {i}: {f}" for f in r["failures"]]
    return attempted, failed, notes


def ops_per_s(r):
    return r["ops"] / r["body_s"] if r["body_s"] > 0 else 0.0


def host_scale(refs):
    """Median reference time over REF_S: how much slower than the
    reference host this run's host was."""
    return statistics.median(refs) / REF_S


def end_to_end(reps, refs):
    scale = host_scale(refs)
    return {
        "ops_per_s": [ops_per_s(r) * scale for r in reps],
        "setup_s": [r["setup_s"] / scale for r in reps],
        "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
    }


def per_layer(untraced, traced, refs):
    series = {name: [r["layer"][name] for r in traced]
              for name in traced[0]["layer"]}
    series["wall.setup_s"] = [r["setup_s"] for r in untraced]
    series["host.ref_s"] = list(refs)
    plain = statistics.median(ops_per_s(r) for r in untraced)
    with_trace = statistics.median(ops_per_s(r) for r in traced)
    series["trace.untraced_ops_per_s"] = [plain]
    series["trace.traced_ops_per_s"] = [with_trace]
    series["trace.overhead_frac"] = [
        plain / with_trace - 1 if with_trace > 0 else 0.0]
    return series


def declared_units(trace):
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(workload, seed, seconds, trace, units):
    """Runs and prints one workload: (attempted, failed, notes, metrics),
    or None when no repetition completed."""
    deadline = time.monotonic() + seconds
    reps = []
    refs = []
    kinds = (False, True) if trace else (False,)
    while len(reps) < MIN_REPS * len(kinds) or time.monotonic() < deadline:
        traced = kinds[len(reps) % len(kinds)]
        if not traced:
            refs.append(run_reference(THREADS.get(workload, 1)))
        reps.append(run_rep(workload, seed, traced))

    done = [r for r in reps if r is not None]
    untraced = [r for r in done if not r["traced"]]
    traced = [r for r in done if r["traced"]]
    refs = [t for t in refs if t is not None]
    if not untraced or (trace and not traced) or not refs:
        log(f"perfbench: no repetition of {workload} completed")
        return None
    attempted, failed, notes = check(reps)
    series = (per_layer(untraced, traced, refs) if trace
              else end_to_end(untraced, refs))
    if set(series) != set(units):
        log("perfbench: metrics differ from BENCHMARK.json: "
            f"{sorted(set(series) ^ set(units))}")
        return None

    print(f"workload {workload}  seed {seed}  "
          f"repetitions {len(untraced)} untraced, {len(traced)} traced")
    print(f"{'metric':34} {'median':>14} {'q1':>14} {'q3':>14} {'min':>14}")
    metrics = {}
    for name, values in series.items():
        s = summarize(values)
        print(f"{name:34} {s['median']:14.6g} {s['q1']:14.6g} "
              f"{s['q3']:14.6g} {s['min']:14.6g}")
        metrics[name] = {"value": s["median"], "unit": units[name]}
    if trace:
        print(f"spans: {TRACES / f'{workload}-seed{seed}.json'}")
    return attempted, failed, notes, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                    help="one workload, or all of them in turn")
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float,
                    help="measuring time per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # A termination request unwinds through subprocess.run, which kills and
    # waits for the running repetition.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    if not build():
        return 1
    units = declared_units(args.trace)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    notes = []
    metrics = {}
    for name in names:
        result = run_workload(name, args.seed, args.seconds, args.trace, units)
        if result is None:
            return 1
        attempted += result[0]
        failed += result[1]
        notes += [f"{name} {note}" for note in result[2]]
        # With all workloads, metric names carry their workload.
        prefix = f"{name}/" if len(names) > 1 else ""
        metrics.update({prefix + k: v for k, v in result[3].items()})
    for note in notes:
        print("check: " + note)
    print(json.dumps({"correct": failed == 0 and not notes,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
