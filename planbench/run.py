#!/usr/bin/env python3
"""Builds and runs the planning benchmark.

    python3 planbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the `xhybrid` daemon and the
`planbench` harness in release mode (into $CARGO_TARGET_DIR, default
.bench_build), runs one workload, checks that the metrics it printed
are exactly the ones BENCHMARK.json declares (end-to-end with --trace 0,
per-layer with --trace 1) with the declared units, and prints the result
as the last line of standard output. Exits non-zero, without a result,
when the build fails, and non-zero after printing the result when an
output check failed. See planbench/README.md.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The harness must finish well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170
# Runnable by hand but not in BENCHMARK.json (see planbench/README.md).
EXTRA_WORKLOADS = ("serve_cold",)


def fail(msg):
    print(f"planbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(env):
    for manifest, extra in (
        ("Cargo.toml", ["-p", "xhybrid", "--bin", "xhybrid"]),
        (os.path.join("planbench", "Cargo.toml"), []),
    ):
        cmd = ["cargo", "build", "--release", "--offline", "--quiet",
               "--manifest-path", os.path.join(ROOT, manifest)] + extra
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")


def expected_metrics(spec, trace):
    section = spec["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    known = {w["name"] for w in spec["workloads"]} | set(EXTRA_WORKLOADS)
    if args.workload not in known:
        fail(f"unknown workload {args.workload!r}")

    target = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build")))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build(env)

    work_dir = os.path.join(target, f"planbench-work-{os.getpid()}")
    cmd = [
        os.path.join(target, "release", "planbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--daemon", os.path.join(target, "release", "xhybrid"),
        "--work-dir", work_dir,
    ]
    # Own process group, so a timeout also stops the daemon it started.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"timed out after {RUN_TIMEOUT_S}s")
    lines = out.strip().splitlines()
    if not lines:
        fail(f"harness printed no result (exit {proc.returncode})")
    sys.stderr.write("\n".join(lines[:-1]) + ("\n" if len(lines) > 1 else ""))
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail(f"last line is not JSON (exit {proc.returncode}): {lines[-1]}")

    want = expected_metrics(spec, args.trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, "
             f"undeclared {extra}, wrong unit {wrong}")
    print(json.dumps(result), flush=True)
    if proc.returncode != 0 or not result["correct"]:
        sys.exit(1)


if __name__ == "__main__":
    main()
