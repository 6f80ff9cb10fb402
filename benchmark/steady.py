#!/usr/bin/env python3
"""Steadiness self-check: are two sets of runs of the same build alike?

    python3 benchmark/steady.py [--workloads gm-rpc,apps-live] [--runs 10]
                                [--seconds 10] [--out FILE]

For each workload it makes two sets of end-to-end runs (`--trace 0`), each
run with its own seed, and reports per metric: each set's median and
quartiles (Python's statistics.quantiles, n=4), the spread (interquartile
distance / median), and whether the two sets agree — every spread except
setup_s's within the metric's bound, and the second set's median no worse
than the first's by more than the bound. Set A uses seeds 1..runs, set B
seeds 101..100+runs; the held-out seed (see README.md) is never used here.
Runs go through run.py one at a time. A run that fails a correctness check
or exits non-zero is reported and left out of the statistics. Exit status 1
if any run failed or any check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HELD_OUT_SEED = 20261017


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds):
    """The run's metrics, or None (after printing why) when it failed."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    if p.returncode != 0 or result is None or not result["correct"]:
        print(f"{workload} seed {seed} FAILED (exit {p.returncode}):\n{p.stdout}{p.stderr}",
              flush=True)
        return None
    return {k: v["value"] for k, v in result["metrics"].items()}


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "values": values}


def worse_by(a, b, better):
    """How much worse b is than a, as a share of a (negative = better)."""
    return (b - a) / a if better == "lower" else (a - b) / a


def main():
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--out", help="write the full report here as JSON")
    opts = ap.parse_args()

    report = {"cpu": cpu_model(), "nproc": os.cpu_count(),
              "run_seconds": opts.seconds, "runs_per_set": opts.runs, "workloads": {}}
    ok = True
    for workload in opts.workloads.split(","):
        sets = []
        failed = []
        for base in (1, 101):
            seeds = [base + i for i in range(opts.runs)]
            assert HELD_OUT_SEED not in seeds
            runs = [(s, run_once(workload, s, opts.seconds)) for s in seeds]
            failed += [s for s, r in runs if r is None]
            sets.append([r for _, r in runs if r is not None])
        ok &= not failed
        rows = {"failed_seeds": failed}
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            a = summarize([r[name] for r in sets[0]])
            b = summarize([r[name] for r in sets[1]])
            drift = worse_by(a["median"], b["median"], m["better"])
            steady = name == "setup_s" or (a["spread"] <= bound and b["spread"] <= bound)
            agree = steady and drift <= bound
            ok &= agree
            rows[name] = {"bound": bound, "a": a, "b": b, "drift": drift, "agree": agree}
            print(f"{workload:10} {name:13} A {a['median']:.6g} [{a['q1']:.6g}, {a['q3']:.6g}] "
                  f"spread {a['spread']:.3f} | B {b['median']:.6g} spread {b['spread']:.3f} | "
                  f"drift {drift:+.3f} bound {bound} {'ok' if agree else 'FAIL'}", flush=True)
        report["workloads"][workload] = rows
        if opts.out:
            with open(opts.out, "w") as f:
                json.dump(report, f, indent=1)
                f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
