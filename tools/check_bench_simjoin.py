#!/usr/bin/env python3
"""Compares a freshly generated BENCH_simjoin.json against the checked-in one.

The funnel counters (candidates / position_rejects / signature_rejects /
verified / pairs) are deterministic in the corpus seed, so they must match the
golden file exactly — any drift means the join changed its candidate
generation or filtering behavior — and the fresh funnel must balance.
Wall-clock numbers are a machine-dependent trajectory and are not gated.

Usage:
  tools/check_bench_simjoin.py --golden BENCH_simjoin.json --fresh fresh.json
"""

import argparse
import json
import sys

COUNTERS = ("candidates", "position_rejects", "signature_rejects",
            "verified", "pairs")


def load(path):
    with open(path) as f:
        data = json.load(f)
    if data.get("schema") != "cdb-bench-simjoin-v2":
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
        g, f = golden[name]["flat"], fresh[name]["flat"]
        for counter in COUNTERS:
            if g[counter] != f[counter]:
                errors.append(f"{name}/{counter}: golden {g[counter]} "
                              f"!= fresh {f[counter]} (deterministic counter "
                              f"drifted — join behavior changed)")
        if f["candidates"] != (f["position_rejects"] +
                               f["signature_rejects"] + f["verified"]):
            errors.append(f"{name}: funnel does not balance: candidates "
                          f"{f['candidates']} != position rejects "
                          f"{f['position_rejects']} + signature rejects "
                          f"{f['signature_rejects']} + verified "
                          f"{f['verified']}")

    if errors:
        for error in errors:
            print(f"check_bench_simjoin: {error}", file=sys.stderr)
        return 1
    print(f"check_bench_simjoin: OK ({len(fresh)} workloads)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
