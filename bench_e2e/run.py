#!/usr/bin/env python3
"""Builds and runs the end-to-end CDB benchmark (bench_e2e.cc) and checks it.

    python3 bench_e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The benchmark is compiled from source into
.bench_build/bench_e2e on first use. The binary's outputs (per-session answer
digests, tasks, rounds, and the workload totals) must equal the ones recorded
in bench_e2e/expected.json when that file has an entry for the workload and
seed; a mismatch, a failed internal check or a build failure exits non-zero
without printing a result. Otherwise the last line of stdout is

    {"correct": C, "attempted": A, "failed": F, "metrics": {...}}

with the end_to_end metrics of BENCHMARK.json (--trace 0) or its per_layer
metrics (--trace 1, which also writes a Chrome trace under
.bench_build/traces/). A session that ended in an error is counted in F, not
raised, and any F > 0 makes C false.

--record stores this run's outputs as the expected ones for the workload and
seed.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "bench_e2e")
EXPECTED = os.path.join(HERE, "expected.json")
WORKLOADS = ("paper_full", "award_qc_hostile", "service_restart")


def fail(message):
    print("bench_e2e: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(BUILD, "Makefile")):
        configure += ["-G", "Ninja"]
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Compiler temporaries stay inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for cmd in (configure, ["cmake", "--build", BUILD, "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(BUILD, "bench_e2e")


def compare(workload, seed, outputs):
    """Returns a list of differences against the recorded outputs."""
    if not os.path.exists(EXPECTED):
        return []
    with open(EXPECTED) as f:
        want = json.load(f).get(workload, {}).get(str(seed))
    if want is None:
        return []
    diffs = []
    for key in sorted(set(want) | set(outputs)):
        if key == "sessions":
            continue
        if want.get(key) != outputs.get(key):
            diffs.append("%s: recorded %r, got %r" %
                         (key, want.get(key), outputs.get(key)))
    recorded = {s[0]: s[1:] for s in want["sessions"]}
    got = {s[0]: s[1:] for s in outputs["sessions"]}
    for name in sorted(set(recorded) | set(got)):
        if recorded.get(name) != got.get(name):
            diffs.append("session %s: recorded %r, got %r" %
                         (name, recorded.get(name), got.get(name)))
    return diffs


def record(workload, seed, outputs):
    data = {}
    if os.path.exists(EXPECTED):
        with open(EXPECTED) as f:
            data = json.load(f)
    data.setdefault(workload, {})[str(seed)] = outputs
    text = json.dumps(data, indent=2, sort_keys=True)
    # One session per line keeps the file reviewable.
    text = re.sub(r"\[\s+([^\[\]{}]*?)\s+\]",
                  lambda m: "[" + " ".join(m.group(1).split()) + "]", text)
    with open(EXPECTED, "w") as f:
        f.write(text + "\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          universal_newlines=True)
    if proc.returncode != 0:
        fail("benchmark exited with code %d" % proc.returncode)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("benchmark printed no result")
    result = json.loads(lines[-1])

    if sorted(result["metrics"]) != sorted(names):
        fail("metric names differ from BENCHMARK.json: got %s" %
             sorted(result["metrics"]))
    outputs = result["outputs"]
    if args.record:
        record(args.workload, args.seed, outputs)
    diffs = compare(args.workload, args.seed, outputs)
    if diffs:
        for d in diffs[:20]:
            print("  " + d, file=sys.stderr)
        fail("%d outputs differ from bench_e2e/expected.json" % len(diffs))

    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: result["metrics"][n] for n in names},
    }))


if __name__ == "__main__":
    main()
