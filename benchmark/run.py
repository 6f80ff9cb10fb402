#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 benchmark/run.py --workload gm-rpc --seed 1 --seconds 10 --trace 0

Run from the repository root. The benchmark is a Cargo package of its own
(benchmark/Cargo.toml) that depends on the repository's crates by path; it
is built (offline, release) into $CARGO_TARGET_DIR, default `.bench_build`.
Its output passes through unchanged: one line per metric, then one JSON
object as the last line. The traced pass (`--trace 1`) also writes its
spans to benchmark/out/<workload>.spans.jsonl. The `sim-paper` workload
runs on one CPU with one malloc arena (see `pin_to_one_cpu`).

Exit status: the benchmark's own (0 = every check passed, 1 = a check
failed, 2 = bad arguments), 3 when the build fails, 4 when the run exceeds
its time limit (it is killed and prints no result).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run (after an up-to-date build check of about a second) that is still
# going after this long is killed and reported as failed.
RUN_LIMIT_S = 170
BUILD_LIMIT_S = 850


def workload_of(args):
    return args[args.index("--workload") + 1] if "--workload" in args[:-1] else "run"


def pin_to_one_cpu():
    """Run the child on one CPU of those it may use (the highest-numbered).

    The simulator runs one simulated process at a time and hands control
    between their threads over channels. Unpinned, each hand-off is a wake-up
    on the other CPU, whose latency on a shared host swings pass times by up
    to 2x between runs; on one CPU it is a plain context switch.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main(argv):
    if "--help" in argv or "-h" in argv:
        print(__doc__)
        return 0
    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env["CARGO_TARGET_DIR"] = target
    manifest = os.path.join(HERE, "Cargo.toml")
    build = [
        "cargo", "build", "--release", "--offline", "--locked", "--quiet",
        "--manifest-path", manifest,
    ]
    try:
        built = subprocess.run(build, cwd=ROOT, env=env, stdout=sys.stderr,
                               timeout=BUILD_LIMIT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 3
    if built.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 3

    args = list(argv)
    if "--trace" in args and args[args.index("--trace") + 1:][:1] == ["1"]:
        workload = workload_of(args)
        if not workload.replace("-", "").isalnum():
            workload = "run"
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        args += ["--spans-out", os.path.join(out_dir, f"{workload}.spans.jsonl")]
    binary = os.path.join(target, "release", "dse-benchmark")
    pin = None
    if workload_of(args) == "sim-paper":
        pin = pin_to_one_cpu
        # One malloc arena: the simulator's threads run one at a time, and
        # with an arena per thread the peak resident set depends on which
        # thread got which arena (it swung between 118 and 147 MB per pass).
        env["MALLOC_ARENA_MAX"] = "1"
    proc = subprocess.Popen([binary] + args, cwd=ROOT, env=env, preexec_fn=pin)
    try:
        return proc.wait(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"run.py: run exceeded {RUN_LIMIT_S} s and was killed", file=sys.stderr)
        return 4
    except KeyboardInterrupt:
        proc.kill()
        proc.wait()
        raise


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
