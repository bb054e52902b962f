#!/usr/bin/env python3
"""Benchmark runner for sanperf.

Builds the library and the workload binary in Release under .bench_build/
at the repository root, then runs one workload:

    python3 perfbench/run.py --workload san_transient --seed 20020612 \
        --seconds 20 --trace 0

The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; the line before it carries
the simulated fingerprint and the output-check results. An untraced run
sets the workload up cold in SETUP_REPEATS fresh processes (the timed run's
own included) and reports the median as setup_s.

Further commands:

    python3 perfbench/run.py build
    python3 perfbench/run.py steady --k 5 [--seconds 20] [--seed 20020612]
        [--workloads a,b] [--trace 0|1] [--out results.jsonl]
    python3 perfbench/run.py compare base.jsonl change.jsonl

`steady` runs every workload k times in alternating order (forward, then
backward), seeds seed, seed+1, ..., and prints each metric's median and
interquartile spread; `compare` pairs two such result sets by workload and
seed.
"""

import argparse
import fcntl
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "perfbench"

WORKLOADS = ["san_transient", "table1_measure", "stream_n129", "stream_faults_2rack"]
DEFAULT_SEED = 20020612  # used while the benchmark was written and tuned
HELD_OUT_SEED = 7        # reserved for confirming a claimed gain
SETUP_REPEATS = 5        # cold set-ups per untraced run, one per process


def build():
    """Configures once and builds incrementally; serialised by a lock file."""
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    with open(BUILD_DIR / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD_DIR / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "perfbench", "-j", "4"])
        for cmd in steps:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(cmd))
                return False
    return BINARY.exists()


def trace_path(workload):
    return str(ROOT / ".bench_build" / ("trace-%s.json" % workload))


def last_json(stdout):
    lines = [l for l in stdout.splitlines() if l.strip()]
    return lines, json.loads(lines[-1])


def run_one(workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, output lines, record).

    The record merges the fingerprint/check line with the result object.
    Untraced runs report the median of SETUP_REPEATS cold set-ups as
    setup_s, each in its own process."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--trace-out", trace_path(workload)]
    setups = []
    for _ in range(0 if trace else SETUP_REPEATS - 1):
        done = subprocess.run(cmd + ["--setup-only", "1"], stdout=subprocess.PIPE, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            return done.returncode, [], None
        setups.append(last_json(done.stdout)[1]["metrics"]["setup_s"]["value"])
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        return done.returncode, [], None
    lines, result = last_json(done.stdout)
    record = json.loads(lines[-2])
    if not trace:
        setups.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
        lines[-2:] = ["# cold set-ups (s): " + " ".join("%.6g" % x for x in setups),
                      lines[-2], json.dumps(result)]
    record.update(result)
    return 0, lines, record


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def load_spec():
    """Each metric's bound (end-to-end only) and better direction, from
    BENCHMARK.json; empty when the file is missing."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError):
        return {}, {}
    metrics = spec.get("end_to_end", []) + spec.get("per_layer", [])
    return ({m["name"]: m.get("bound") for m in metrics},
            {m["name"]: m["better"] for m in metrics})


def cmd_steady(args):
    workloads = args.workloads.split(",") if args.workloads else WORKLOADS
    records = []
    for j in range(args.k):
        order = workloads if j % 2 == 0 else list(reversed(workloads))
        for w in order:
            code, _, rec = run_one(w, args.seed + j, args.seconds, args.trace)
            if code != 0:
                sys.stderr.write("perfbench: %s seed %d failed\n" % (w, args.seed + j))
                return code
            records.append(rec)
            sys.stderr.write("  %s seed %d: correct=%s failed=%d/%d\n" % (
                w, args.seed + j, rec["correct"], rec["failed"], rec["attempted"]))
    if args.out:
        with open(args.out, "w") as f:
            for rec in records:
                f.write(json.dumps(rec) + "\n")
    bounds, _ = load_spec()
    print("%-20s %-30s %14s %14s %14s %8s %7s" % (
        "workload", "metric", "q1", "median", "q3", "iqr/med", "bound"))
    for w in workloads:
        rows = [r for r in records if r["workload"] == w]
        for name in rows[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in rows]
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            print("%-20s %-30s %14.6g %14.6g %14.6g %8.4f %7s" % (
                w, name, q1, med, q3, spread, "-" if bound is None else bound))
        fails = {r["failed"] / r["attempted"] for r in rows}
        print("%-20s %-30s %s" % (w, "failed share", sorted(fails)))
        print("%-20s %-30s %s" % (w, "all correct", all(r["correct"] for r in rows)))
    return 0


def cmd_compare(args):
    def load(path):
        with open(path) as f:
            return [json.loads(l) for l in f if l.strip()]

    base, change = load(args.base), load(args.change)
    _, better = load_spec()
    print("%-20s %-24s %12s %12s %12s %12s %9s %6s" % (
        "workload", "metric", "base_med", "base_iqr", "change_med", "change_iqr",
        "wins", "pairs"))
    for w in sorted({r["workload"] for r in base} & {r["workload"] for r in change}):
        b = {r["seed"]: r for r in base if r["workload"] == w}
        c = {r["seed"]: r for r in change if r["workload"] == w}
        seeds = sorted(set(b) & set(c))
        names = [n for n in next(iter(b.values()))["metrics"]
                 if n in next(iter(c.values()))["metrics"]]
        for name in names:
            bv = [r["metrics"][name]["value"] for r in b.values()]
            cv = [r["metrics"][name]["value"] for r in c.values()]
            bq1, bmed, bq3 = quartiles(bv)
            cq1, cmed, cq3 = quartiles(cv)
            lower = better[name] == "lower"
            wins = 0
            for s in seeds:
                x, y = b[s]["metrics"][name]["value"], c[s]["metrics"][name]["value"]
                if (y < x) if lower else (y > x):
                    wins += 1
            print("%-20s %-24s %12.6g %12.6g %12.6g %12.6g %8.0f%% %6d" % (
                w, name, bmed, bq3 - bq1, cmed, cq3 - cq1,
                100.0 * wins / len(seeds) if seeds else 0.0, len(seeds)))
        same = sum(1 for s in seeds if b[s]["fingerprint"] == c[s]["fingerprint"])
        print("%-20s %-24s %d of %d paired seeds" % (w, "fingerprints match", same, len(seeds)))
    return 0


def main(argv):
    if argv and argv[0] in ("build", "steady", "compare"):
        command, rest = argv[0], argv[1:]
    else:
        command, rest = "run", argv
    parser = argparse.ArgumentParser(prog="perfbench/run.py " + command)
    if command == "run":
        parser.add_argument("--workload", required=True, choices=WORKLOADS)
        parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                            help="workload seed (held-out seed: %d)" % HELD_OUT_SEED)
        parser.add_argument("--seconds", type=float, default=20)
        parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    elif command == "steady":
        parser.add_argument("--k", type=int, default=5)
        parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
        parser.add_argument("--seconds", type=float, default=20)
        parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
        parser.add_argument("--workloads", default="")
        parser.add_argument("--out", default="")
    elif command == "compare":
        parser.add_argument("base")
        parser.add_argument("change")
    args = parser.parse_args(rest)

    if command == "compare":
        return cmd_compare(args)
    if not build():
        return 3
    if command == "build":
        return 0
    if command == "steady":
        return cmd_steady(args)
    code, lines, _ = run_one(args.workload, args.seed, args.seconds, args.trace)
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
