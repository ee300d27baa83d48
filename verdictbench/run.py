#!/usr/bin/env python3
"""Builds and runs the cdse verdict benchmark.

Usage, from the repository root:

    python3 verdictbench/run.py --workload W --seed N --seconds S --trace 0|1

Workloads: mac_seq, ledger_seq, fork_exact, soak (see record.json for
their inputs, exact answers and the reason each is in the set).

The first call configures and builds verdict_bench and the cdse libraries
from ../src in Release under .bench_build/verdictbench at the repository
root; later calls only rebuild what changed. The benchmark's own output
is relayed, and the last stdout line is its result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end_to_end ones of BENCHMARK.json,
with --trace 1 the per_layer ones; a traced run also writes its spans as
Chrome trace-event JSON next to the build. The result is checked against
BENCHMARK.json before it is printed. Any failure to build, to run or to
produce a well-formed result exits non-zero without printing a result.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "verdictbench")
WORKLOADS = ("mac_seq", "ledger_seq", "fork_exact", "soak")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    sys.stderr.write("verdictbench: %s\n" % msg)
    sys.exit(1)


def run_group(cmd, timeout, **kwargs):
    """Runs cmd in its own process group; on timeout kills the whole group
    (compilers under cmake included), waits for it, and returns None."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None
    return proc.returncode, out


def build():
    """Configures (once) and builds verdict_bench; returns its path."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "verdict_bench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    with open(log_path, "w") as log:
        for cmd in steps:
            done = run_group(cmd, max(1, deadline - time.monotonic()),
                             stdout=log, stderr=subprocess.STDOUT)
            if done is None:
                fail("build timed out")
            if done[0] != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(cmd))
    return os.path.join(BUILD, "verdict_bench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    """Parses the benchmark's last line and checks it against the spec."""
    try:
        result = json.loads(line)
    except ValueError:
        fail("last line is not JSON: %r" % line[:200])
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        fail("result keys are not correct/attempted/failed/metrics")
    if not isinstance(result["correct"], bool):
        fail("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            fail("%s is not a whole number" % key)
    if result["attempted"] < 1:
        fail("no operation attempted")
    want = expected_metrics(trace)
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != want:
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s, "
             "units %s" % (sorted(set(want) - set(got)),
                           sorted(set(got) - set(want)),
                           sorted(k for k in want if k in got
                                  and got[k] != want[k])))
    for name, m in result["metrics"].items():
        if not isinstance(m.get("value"), (int, float)):
            fail("metric %s has no numeric value" % name)
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = os.path.join(BUILD, "spans_%s_%d.json" % (args.workload,
                                                          args.seed))
        cmd += ["--span-file", spans]
    done = run_group(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    if done is None:
        fail("benchmark run exceeded %d s" % RUN_TIMEOUT_S)
    code, stdout = done
    lines = stdout.rstrip("\n").split("\n")
    if code != 0:
        sys.stderr.write(stdout)
        fail("verdict_bench exited with code %d" % code)
    result = check_result(lines[-1], args.trace == 1)
    for line in lines[:-1]:
        print(line)
    if args.trace:
        print("spans written to %s" % os.path.relpath(spans, ROOT))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
