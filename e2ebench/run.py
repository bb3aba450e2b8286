#!/usr/bin/env python3
"""End-to-end benchmark of pdceval.

Run from the root of a source checkout:

    python3 e2ebench/run.py --workload tpl_sweep --seed 1 --seconds 15 --trace 0

Builds the benchmark package in this directory (which compiles the
program's libraries from ../src) into .bench_build/, runs one workload for
--seconds seconds, checks its outputs, and prints the metrics as a table.
The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, measured
untraced; set-up runs in several fresh processes and setup_s is their
median. With --trace 1 they are its per_layer list, from a run that
alternates untraced and traced blocks; a layer the workload does not
exercise reports 0. Everything measured, with the run
header, is also written to .bench_out/result-<workload>-seed<n>-trace<t>.json.
"""
import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2e")
OUT_DIR = ".bench_out"  # relative to ROOT: keeps the daemon's socket path short
BINARY = os.path.join(BUILD_DIR, "pdc_e2e")
WORKLOADS = ("tpl_sweep", "apl_figure", "scale_4096", "evald_mix")
SETUP_PROCESSES = 24  # fresh processes timing set-up, besides the main run
RUN_TIMEOUT_S = 170


def fail(message, code):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configures and builds pdc_e2e; build output goes to standard error."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no program sources at src/: run from a full source checkout", 2)
    jobs = str(max(1, os.cpu_count() or 1))
    configure = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    for attempt in range(2):
        ok = subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode == 0
        if ok:
            break
        shutil.rmtree(BUILD_DIR, ignore_errors=True)  # a cache from another checkout
    else:
        fail("cmake configure failed", 3)
    built = subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", "pdc_e2e"],
                           stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        fail("build failed", 3)


def source_fingerprint():
    """Commit if this is a git checkout, and a hash of the sources either way."""
    commit = "unknown (not a git checkout)"
    try:
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if got.returncode == 0 and got.stdout.strip():
            commit = got.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", os.path.basename(HERE)):
        for base, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return commit, digest.hexdigest()[:16]


def cpu_times():
    """(steal, total) jiffies of all CPUs from /proc/stat, or None off Linux."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return fields[7], sum(fields)


def run_binary(args, deadline):
    """Runs pdc_e2e and returns (table lines, parsed JSON line)."""
    left = deadline - time.monotonic()
    if left <= 0:
        fail("out of time before the run", 5)
    try:
        got = subprocess.run([BINARY] + args, cwd=ROOT, capture_output=True, text=True,
                             timeout=left)
    except subprocess.TimeoutExpired:
        fail("pdc_e2e timed out", 5)
    sys.stderr.write(got.stderr)
    lines = got.stdout.strip().splitlines()
    if got.returncode != 0 or not lines:
        fail(f"pdc_e2e exited with {got.returncode}", 5)
    try:
        return lines[:-1], json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("pdc_e2e printed no result line", 5)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    deadline = time.monotonic() + RUN_TIMEOUT_S

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    build()
    deadline = max(deadline, time.monotonic() + RUN_TIMEOUT_S)  # the build has its own budget
    commit, fingerprint = source_fingerprint()
    common = ["--workload", args.workload, "--seed", str(args.seed), "--out-dir", OUT_DIR,
              "--commit", commit]

    # Set-up is timed in fresh processes, half before the measured run and
    # half after it, so the samples see the host over the same span as the
    # run does.
    setup_samples = []

    def time_setups(count):
        for _ in range(count):
            _, got = run_binary(common + ["--mode", "setup", "--seconds", "1", "--trace", "0"],
                                deadline)
            setup_samples.append(got["e2e"]["setup_s"]["value"])

    if not args.trace:
        time_setups(SETUP_PROCESSES // 2)
    before = cpu_times()
    table, got = run_binary(common + ["--mode", "run", "--seconds", str(args.seconds),
                                      "--trace", str(args.trace)], deadline)
    after = cpu_times()
    # Time the hypervisor ran something else while this VM's CPUs wanted to
    # run: a run with a high share measured a loaded host, not the program.
    steal = None
    if before and after and after[1] > before[1]:
        steal = (after[0] - before[0]) / (after[1] - before[1])
    setup_samples.append(got["e2e"]["setup_s"]["value"])
    if not args.trace:
        time_setups(SETUP_PROCESSES - SETUP_PROCESSES // 2)
        got["e2e"]["setup_s"]["value"] = statistics.median(setup_samples)

    measured = got["layer"] if args.trace else got["e2e"]
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in declared:
        if args.trace and m["name"] not in measured:
            measured[m["name"]] = {"value": 0, "unit": m["unit"]}  # layer not exercised
        if m["name"] not in measured or measured[m["name"]]["unit"] != m["unit"]:
            fail(f"pdc_e2e did not report {m['name']} in {m['unit']}", 4)
        metrics[m["name"]] = {"value": measured[m["name"]]["value"], "unit": m["unit"]}
    result = {"correct": bool(got["correct"]) and got["failed"] == 0,
              "attempted": int(got["attempted"]), "failed": int(got["failed"]),
              "metrics": metrics}

    header = dict(got["info"])
    header["commit"] = commit
    header["source_sha256"] = fingerprint
    header["host_steal_frac"] = steal
    os.makedirs(os.path.join(ROOT, OUT_DIR), exist_ok=True)
    record = os.path.join(ROOT, OUT_DIR, f"result-{args.workload}-seed{args.seed}"
                                         f"-trace{args.trace}.json")
    with open(record, "w") as f:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "header": header, "notes": got["info"],
                   "setup_s_samples": setup_samples, "e2e": got["e2e"], "layer": got["layer"],
                   "result": result}, f, indent=1)

    for line in table:
        print(line)
    if steal is not None:
        print(f"# host CPU steal during the measured run: {100 * steal:.1f}%")
    print(f"# source_sha256 {fingerprint}; setup_s is the median of {len(setup_samples)} "
          f"set-ups; all numbers in {os.path.relpath(record, ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
