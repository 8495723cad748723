#!/usr/bin/env python3
"""Veil-Bench: host-clock benchmark of the Veil simulator.

    python3 veilbench/run.py --workload W [--seed N] [--seconds S] [--trace 0|1]
    python3 veilbench/run.py --selfcheck

Run from anywhere; paths are taken relative to this file.  The script
builds veilbench.exe with dune, times the workload's cold set-up in
fresh processes, runs the timed phase in one more process, prints one
line per metric with its unit and, as the last line of stdout, one JSON
object {"correct", "attempted", "failed", "metrics"}.

--trace 0 prints the end-to-end metrics (host clock, no spans).
--trace 1 prints the per-layer metrics and writes the run's spans to
veilbench/out/ as a Chrome trace.  --selfcheck runs every workload at a
tiny size and fails unless each metric named in BENCHMARK.json is
printed with its unit.

The default seed is 7.  Seed 4242 is held out: do not tune a change
against it, and use it to confirm a claimed gain.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "veilbench", "veilbench.exe")
OUT = os.path.join(HERE, "out")

DEFAULT_SEED = 7

WORKLOADS = {
    "fleet-http": "one http request",
    "enclave-unqlite": "one KV insert",
    "explore-rmp": "one branch execution",
}

# Fresh processes per run; setup_s is their median.
SETUP_RUNS = 5
# A run must end within 180 s once built.
RUN_LIMIT_S = 170
BUILD_LIMIT_S = 850


class BenchError(Exception):
    pass


def build():
    cmd = ["dune", "build", "--root", ROOT, "--cache=disabled", "./veilbench/veilbench.exe"]
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True, timeout=BUILD_LIMIT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError(f"build failed: {e}")
    if r.returncode != 0:
        sys.stderr.write(r.stdout)
        raise BenchError("build failed")


def child(args, deadline):
    """Run veilbench.exe to completion and parse its last stdout line."""
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("out of time")
    try:
        r = subprocess.run([EXE] + args, cwd=ROOT, stdout=subprocess.PIPE,
                           stderr=subprocess.PIPE, text=True, timeout=left)
    except subprocess.TimeoutExpired:
        raise BenchError(f"timed out: {' '.join(args)}")
    if r.returncode != 0:
        sys.stderr.write(r.stderr)
        raise BenchError(f"exit {r.returncode}: {' '.join(args)}")
    lines = r.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"no output: {' '.join(args)}")
    return json.loads(lines[-1])


class Spans:
    """Spans of every process of one run, written once as a Chrome trace."""

    def __init__(self):
        self.events = []

    def add(self, pid, name, start_ns, end_ns, parent=0, span=0, op=0):
        self.events.append({
            "name": name, "ph": "X", "pid": pid, "tid": pid,
            "ts": start_ns / 1e3, "dur": (end_ns - start_ns) / 1e3,
            "args": {"span": span, "parent": parent, "op": op},
        })

    def add_child(self, pid, spans, parent):
        # span ids are per process; prefix them with the process id
        for sid, par, op, start, end, name in spans:
            self.add(pid, name, start, end, span=pid * 10**7 + sid,
                     parent=pid * 10**7 + par if par else parent, op=op)

    def write(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump({"traceEvents": self.events, "displayTimeUnit": "ns"}, f)


def measure(workload, seed, seconds, trace, tiny=False):
    """One benchmark run; returns (result object, human-readable lines)."""
    start = time.monotonic_ns()
    deadline = time.monotonic() + RUN_LIMIT_S
    common = ["--workload", workload, "--seed", str(seed)] + (["--tiny"] if tiny else [])
    spans = Spans()
    setups = []
    for i in range(1 if tiny else SETUP_RUNS):
        t0 = time.monotonic_ns()
        r = child(["setup"] + common, deadline)
        t1 = time.monotonic_ns()
        spans.add(0, "setup process", t0, t1, span=i + 1, op=i)
        spans.add_child(i + 1, r["spans"], parent=i + 1)
        setups.append(r)
    t0 = time.monotonic_ns()
    main = child(["run"] + common + ["--seconds", str(seconds), "--trace", str(trace)], deadline)
    t1 = time.monotonic_ns()
    pid = len(setups) + 1
    spans.add(0, "timed process", t0, t1, span=pid)
    spans.add_child(pid, main["spans"], parent=pid)

    metrics, notes = {}, {}
    for name, value, unit, note in main["metrics"]:
        metrics[name] = {"value": value, "unit": unit}
        notes[name] = note
    setup_key = "setup_s" if trace == 0 else "crypto.group_init_s"
    samples = [next(m[1] for m in r["metrics"] if m[0] == setup_key) for r in setups]
    metrics[setup_key] = {"value": statistics.median(samples), "unit": "s"}
    notes[setup_key] = f"median of {len(samples)} fresh processes"

    attempted = main["attempted"] + sum(r["attempted"] for r in setups)
    failed = main["failed"] + sum(r["failed"] for r in setups)
    finite = all(math.isfinite(m["value"]) for m in metrics.values())
    correct = bool(main["correct"] and all(r["correct"] for r in setups) and failed == 0
                   and finite)

    lines = [f"veil-bench {workload}: seed {seed}, {seconds} s timed, "
             f"tracing {'on' if trace else 'off'}{', tiny' if tiny else ''}"]
    for name in sorted(metrics):
        m = metrics[name]
        note = f"  ({notes[name]})" if notes[name] else ""
        lines.append(f"  {name:40s} {m['value']:.6g} {m['unit']}{note}")
    if trace == 0:
        lines.append(f"  {'ops_per_s op':40s} {WORKLOADS[workload]}")
        lines.append(f"  {'error_rate':40s} {failed / attempted:.6g} failed/attempted"
                     f"  ({failed} of {attempted} ops failed)")
    else:
        spans.add(0, "run.py", start, time.monotonic_ns())
        suffix = "-tiny" if tiny else ""
        path = os.path.join(OUT, f"spans-{workload}-seed{seed}{suffix}.json")
        spans.write(path)
        lines.append(f"  spans: {len(spans.events)} written to {os.path.relpath(path, ROOT)}")
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, lines


def selfcheck():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, lines = measure(w["name"], DEFAULT_SEED, 1, trace, tiny=True)
            print("\n".join(lines))
            got = result["metrics"]
            for m in spec[key]:
                name, unit = m["name"], m["unit"]
                if name not in got:
                    problems.append(f"{w['name']} trace {trace}: {name} not printed")
                elif got[name]["unit"] != unit:
                    problems.append(f"{w['name']} trace {trace}: {name} in "
                                    f"{got[name]['unit']}, expected {unit}")
            for name in sorted(set(got) - {m["name"] for m in spec[key]}):
                problems.append(f"{w['name']} trace {trace}: {name} not in BENCHMARK.json")
            if not result["correct"]:
                problems.append(f"{w['name']} trace {trace}: output checks failed")
    for p in problems:
        print("selfcheck: " + p)
    print("selfcheck: " + ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selfcheck", action="store_true")
    a = ap.parse_args()
    if not a.selfcheck and a.workload is None:
        ap.error("--workload is required")
    try:
        build()
        if a.selfcheck:
            return selfcheck()
        # the simulator takes a non-negative OCaml int
        result, lines = measure(a.workload, a.seed % (1 << 62), max(1, a.seconds), a.trace)
    except (BenchError, OSError, ValueError, KeyError) as e:
        print(f"veil-bench: {e}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
