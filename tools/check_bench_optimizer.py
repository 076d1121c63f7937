#!/usr/bin/env python3
"""Compares a freshly generated BENCH_optimizer.json against the checked-in one.

The graphs and sampler orderings are deterministic in the workload seeds, so
the edge counts, ordering lengths, and ordering checksums must match the
golden file exactly — any drift means the sampler or the known-color
selection changed behavior. Wall-clock numbers are a machine-dependent
trajectory and are not gated.

Usage:
  tools/check_bench_optimizer.py --golden BENCH_optimizer.json --fresh fresh.json
"""

import argparse
import json
import sys

COUNTERS = ("edges", "order_len", "checksum_flat")


def load(path):
    with open(path) as f:
        data = json.load(f)
    if data.get("schema") != "cdb-bench-optimizer-v2":
        raise SystemExit(f"{path}: unexpected schema {data.get('schema')!r}")
    return {w["name"]: w for w in data["workloads"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--golden", required=True)
    parser.add_argument("--fresh", required=True)
    args = parser.parse_args()

    golden = load(args.golden)
    fresh = load(args.fresh)
    errors = []

    if set(golden) != set(fresh):
        errors.append(f"workload sets differ: golden={sorted(golden)} "
                      f"fresh={sorted(fresh)}")

    for name in sorted(set(golden) & set(fresh)):
        g, f = golden[name], fresh[name]
        for counter in COUNTERS:
            if g[counter] != f[counter]:
                errors.append(f"{name}/{counter}: golden {g[counter]!r} != "
                              f"fresh {f[counter]!r} (deterministic value "
                              f"drifted — the sampler or the selection "
                              f"changed behavior)")

    if errors:
        for error in errors:
            print(f"check_bench_optimizer: {error}", file=sys.stderr)
        return 1
    print(f"check_bench_optimizer: OK ({len(fresh)} workloads)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
