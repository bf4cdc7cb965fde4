#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload sweep|mssp|serve --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout.  The first run configures and builds the
benchmark package under .bench_build/perfbench; later runs rebuild only what
changed.  The last line of standard output is one JSON object with the keys
correct, attempted, failed, and metrics: the end-to-end metrics listed in
BENCHMARK.json for --trace 0, its per-layer metrics for --trace 1.  The
lines before it list every metric the run measured, with its unit.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
RUN_TIMEOUT_S = 170

# BENCHMARK.json names one metric for what each workload measures under
# its own name.
ALIASES = {
    "throughput_per_s": ("events_per_s", "sim_tasks_per_s", "ingest_events_per_s"),
    "op_p50_us": ("cell_p50_us", "batch_p50_us"),
}


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--scale", default="full", choices=("full", "tiny"))
    args = parser.parse_args(argv)
    if not args.seed.isdigit():
        parser.error("--seed must be a non-negative integer")
    return args


def build():
    """Configures (once) and builds the benchmark; build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "engine", "ExperimentRunner.h")):
        fail("no specctrl sources next to perfbench/; run from a full checkout", 2)
    jobs = str(os.cpu_count() or 1)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    if subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")


def source_id():
    """The git commit, or a digest of the sources when not in a git checkout."""
    try:
        if not os.path.exists(os.path.join(ROOT, ".git")):
            raise OSError("not a git checkout")
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "bench", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def main(argv):
    args = parse_args(argv)
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e, 2)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload '%s'" % args.workload, 2)
    build()

    command = [BINARY, "--workload", args.workload, "--seed", args.seed,
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--scale", args.scale,
               "--pins", os.path.join(BENCH_DIR, "pins.tsv"),
               "--commit", source_id()]
    if args.trace == "1":
        traces = os.path.join(BUILD_DIR, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(
            traces, args.workload + ".json")]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail("benchmark exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("benchmark exited with code %d" % proc.returncode)
    result = json.loads(lines[-1])

    measured = result["metrics"]
    for name in sorted(measured):
        print("%-36s %22.10g %s" % (name, measured[name]["value"],
                                      measured[name]["unit"]))
    print("context " + json.dumps(result["context"], sort_keys=True))
    for error in result["errors"]:
        print("error " + error)

    wanted = spec["end_to_end"] if args.trace == "0" else spec["per_layer"]
    metrics = {}
    for m in wanted:
        sources = (m["name"],) + ALIASES.get(m["name"], ())
        found = [s for s in sources if s in measured]
        if not found:
            fail("the run did not measure '%s'" % m["name"])
        if measured[found[0]]["unit"] != m["unit"]:
            fail("'%s' was measured in %s, BENCHMARK.json says %s"
                 % (found[0], measured[found[0]]["unit"], m["unit"]))
        metrics[m["name"]] = {"value": measured[found[0]]["value"],
                              "unit": m["unit"]}
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main(sys.argv[1:])
