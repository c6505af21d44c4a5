#!/usr/bin/env python3
"""Builds and runs the ConsentDB session benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke

Run from the repository root. The first run configures and builds the
libraries from src/ together with the benchmark driver (CMake, Release) under
.bench_build/perfbench/ (or $CARGO_TARGET_DIR/perfbench/); later runs rebuild
only what changed. The driver's standard output is passed through; its last
line is the run's JSON result. `--workload all` runs every workload untraced
and then traced and ends with one combined JSON line. `--smoke` is a
few-second self-check of the benchmark itself (see README.md).
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["warm_qvalue", "cold_join_writes", "served_tcp"]
RUN_TIMEOUT_S = 170


def pin_to_one_cpu():
    """Runs the driver on one CPU (the highest one allowed). On a virtual
    machine, waking a thread on another, idle vCPU costs tens of
    microseconds that vary with the host's load; measured unpinned,
    warm_qvalue sessions were ~45% slower and their p50 moved ~20% between
    runs. Pinned, every hand-off between the client, the engine worker and
    the server reactor is a context switch on one CPU."""
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[-1]})


def build_root():
    base = os.environ.get("CARGO_TARGET_DIR")
    base = Path(base) if base else Path(".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out):
    """Configures (once) and builds the driver; returns its path or None."""
    build_dir = out / "build"
    tmp = out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    log_path = out / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "Makefile").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                env=env).returncode
            if rc != 0:
                log.flush()
                tail = Path(log_path).read_text().splitlines()[-30:]
                sys.stderr.write("perfbench: build failed (%s):\n%s\n" %
                                 (" ".join(cmd[:2]), "\n".join(tail)))
                return None
    return build_dir / "session_bench"


def run_driver(binary, out, args, capture=False):
    """Runs the driver; returns (exit code, stdout text or None)."""
    cmd = [str(binary), "--out", str(out)] + args
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S, text=True,
                              stdout=subprocess.PIPE if capture else None,
                              preexec_fn=pin_to_one_cpu)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run timed out: %s\n" % " ".join(args))
        return 124, None
    return proc.returncode, proc.stdout


def last_json(text):
    lines = [l for l in (text or "").splitlines() if l.strip()]
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def run_all(binary, out, seed, seconds):
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            rc, text = run_driver(binary, out, [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", trace], capture=True)
            sys.stdout.write((text or "").rsplit("\n{", 1)[0].rstrip() + "\n")
            result = last_json(text)
            if result is None:
                return 1
            combined["correct"] &= bool(result["correct"]) and rc == 0
            if trace == "0":
                combined["attempted"] += result["attempted"]
                combined["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                combined["metrics"]["%s/%s" % (workload, name)] = metric
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def smoke(binary, out):
    """Asserts that every named metric prints with its unit, that a corrupted
    reference digest fails the run, and that warm_qvalue and served_tcp
    sessions all use Q-value."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {"0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "1": {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in WORKLOADS:
        base = ["--workload", workload, "--seed", "1", "--seconds", "1"]
        for trace in ("0", "1"):
            rc, text = run_driver(binary, out, base + [
                "--trace", trace, "--require-qvalue"], capture=True)
            result = last_json(text)
            if rc != 0 or result is None or not result["correct"]:
                problems.append("%s trace %s: run failed (exit %d)" %
                                (workload, trace, rc))
                continue
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            if got != want[trace]:
                problems.append("%s trace %s: metrics/units differ from "
                                "BENCHMARK.json: missing %s, extra %s" % (
                                    workload, trace,
                                    sorted(set(want[trace].items()) -
                                           set(got.items())),
                                    sorted(set(got.items()) -
                                           set(want[trace].items()))))
        rc, text = run_driver(binary, out, base + [
            "--trace", "0", "--corrupt-reference"], capture=True)
        result = last_json(text)
        if rc == 0 or result is None or result["correct"]:
            problems.append("%s: a corrupted reference digest did not fail "
                            "the run" % workload)
        print("smoke %s: %s" % (workload, "checked"))
    for p in problems:
        print("smoke FAIL: " + p)
    print("smoke: %s" % ("PASS" if not problems else "FAIL"))
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required (or --smoke)")

    out = build_root()
    binary = build(out)
    if binary is None:
        return 2
    run_dir = out / "out"
    run_dir.mkdir(parents=True, exist_ok=True)
    if args.smoke:
        return smoke(binary, run_dir)
    if args.workload == "all":
        return run_all(binary, run_dir, args.seed, args.seconds)
    rc, _ = run_driver(binary, run_dir, [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", args.trace])
    return rc


if __name__ == "__main__":
    sys.exit(main())
