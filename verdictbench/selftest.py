#!/usr/bin/env python3
"""The verdict benchmark's own test.

Usage, from the repository root:

    python3 verdictbench/selftest.py [--seed N] [--workload W ...]

For each workload it checks, through run.py:

  work identity   two untraced runs at one seed print identical record
                  lines (trials, draws, looks, stages, frames, distinct
                  executions, soak digests at each pool size), and the
                  traced run agrees with them on every field they share;
  correctness     every run reports correct, at least one attempt and no
                  failed operation;
  metrics         the untraced run emits every end_to_end metric of
                  BENCHMARK.json, each above 0, and prints host.calib_s;
                  the traced run emits every per_layer metric with its
                  unit, nonzero on each workload record.json lists as
                  exercising it, prints its tracing overhead and writes a
                  span file that parses as Chrome trace-event JSON;
  bare directory  in a directory holding only BENCHMARK.json and the
                  benchmark's files, run.py exits non-zero without
                  printing a result.

Runs use --seconds 1, so the whole test takes a few minutes. Exits 0
when every check passes.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

failures = []


def check(ok, what):
    print("%s %s" % ("ok  " if ok else "FAIL", what), flush=True)
    if not ok:
        failures.append(what)


def run(workload, seed, trace, cwd=ROOT, script=RUN):
    done = subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900)
    lines = done.stdout.rstrip("\n").split("\n")
    record = {}
    spans = None
    for line in lines:
        if line.startswith("record "):
            record = dict(f.split("=", 1) for f in line.split()[1:])
        if line.startswith("spans written to "):
            spans = os.path.join(cwd, line[len("spans written to "):])
    result = None
    if done.returncode == 0:
        result = json.loads(lines[-1])
    return done.returncode, result, record, spans, done.stdout


def result_ok(workload, label, result):
    check(result is not None and result["correct"] and
          result["attempted"] >= 1 and result["failed"] == 0,
          "%s %s: correct, attempted >= 1, failed == 0" % (workload, label))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=97)
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "record.json")) as f:
        record_doc = json.load(f)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    check(set(layer_units) == set(record_doc["per_layer"]),
          "record.json documents exactly the per_layer metrics")
    check(set(w["name"] for w in spec["workloads"]) ==
          set(record_doc["workloads"]),
          "record.json documents exactly the workloads")

    for w in workloads:
        code_a, res_a, rec_a, _, out_a = run(w, args.seed, 0)
        code_b, res_b, rec_b, _, _ = run(w, args.seed, 0)
        check(code_a == 0 and code_b == 0, "%s untraced runs exit 0" % w)
        check("\nhost.calib_s " in out_a,
              "%s untraced run prints host.calib_s" % w)
        result_ok(w, "untraced", res_a)
        result_ok(w, "untraced (second run)", res_b)
        check(bool(rec_a) and rec_a == rec_b,
              "%s work identity across two runs at seed %d" % (w, args.seed))
        if rec_a != rec_b:
            for k in sorted(set(rec_a) | set(rec_b)):
                if rec_a.get(k) != rec_b.get(k):
                    print("     %s: %s vs %s" % (k, rec_a.get(k), rec_b.get(k)))
        if res_a is not None:
            for m in spec["end_to_end"]:
                got = res_a["metrics"].get(m["name"], {})
                check(got.get("unit") == m["unit"] and
                      got.get("value", 0) > 0,
                      "%s %s emitted with unit %s and above 0" %
                      (w, m["name"], m["unit"]))

        code_t, res_t, rec_t, spans, out_t = run(w, args.seed, 1)
        check(code_t == 0, "%s traced run exits 0" % w)
        check("\ntrace overhead: " in out_t,
              "%s traced run prints its tracing overhead" % w)
        result_ok(w, "traced", res_t)
        shared = set(rec_a) & set(rec_t)
        check(bool(shared) and all(rec_a[k] == rec_t[k] for k in shared),
              "%s traced run does the same work as the untraced one" % w)
        if res_t is not None:
            for name, unit in layer_units.items():
                got = res_t["metrics"].get(name, {})
                check(got.get("unit") == unit,
                      "%s %s emitted with unit %s" % (w, name, unit))
                if w in record_doc["per_layer"][name]["exercised_by"]:
                    check(got.get("value", 0) != 0,
                          "%s %s nonzero where exercised" % (w, name))
        try:
            with open(spans) as f:
                events = json.load(f)["traceEvents"]
            check(any(e["cat"] == "verdict" for e in events) and
                  all(e["ph"] == "X" and e["dur"] >= 0 for e in events),
                  "%s span file holds complete verdict spans" % w)
        except (TypeError, OSError, ValueError, KeyError) as e:
            check(False, "%s span file readable (%s)" % (w, e))

    bare_parent = os.path.join(ROOT, ".bench_build")
    os.makedirs(bare_parent, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare_", dir=bare_parent)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for rel in spec["paths"]:
            shutil.copytree(os.path.join(ROOT, rel), os.path.join(bare, rel),
                            ignore=shutil.ignore_patterns("__pycache__"))
        code, result, _, _, _ = run(workloads[0], args.seed, 0, cwd=bare,
                                 script=os.path.join(bare, "verdictbench",
                                                     "run.py"))
        check(code != 0 and result is None,
              "bare directory: run.py exits non-zero without a result")
    finally:
        shutil.rmtree(bare)

    print("%d check(s) failed" % len(failures) if failures
          else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
