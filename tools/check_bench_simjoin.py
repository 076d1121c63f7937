#!/usr/bin/env python3
"""Compares a freshly generated BENCH_simjoin.json against the checked-in one.

The funnel counters (candidates / position_rejects / signature_rejects /
verified / pairs) are deterministic in the corpus seed, so they must match the
golden file exactly — any drift means a kernel changed its candidate
generation or filtering behavior. Wall-clock numbers are machine-dependent,
so only the flat-vs-legacy *ratio* is compared: the fresh speedup may not
regress more than --tolerance below the golden speedup, and the headline 10^5
token-join workload must keep a floor speedup regardless of the golden value.

Usage:
  tools/check_bench_simjoin.py --golden BENCH_simjoin.json --fresh fresh.json
"""

import argparse
import json
import sys

COUNTERS = ("candidates", "position_rejects", "signature_rejects",
            "verified", "pairs")
HEADLINE = "word_jaccard_1e5"


def load(path):
    with open(path) as f:
        data = json.load(f)
    if data.get("schema") != "cdb-bench-simjoin-v1":
        raise SystemExit(f"{path}: unexpected schema {data.get('schema')!r}")
    return {w["name"]: w for w in data["workloads"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--golden", required=True)
    parser.add_argument("--fresh", required=True)
    parser.add_argument("--tolerance", type=float, default=0.2,
                        help="allowed fractional speedup regression")
    parser.add_argument("--min-headline-speedup", type=float, default=5.0,
                        help="hard floor for the 10^5 token-join speedup")
    args = parser.parse_args()

    golden = load(args.golden)
    fresh = load(args.fresh)
    errors = []

    if set(golden) != set(fresh):
        errors.append(f"workload sets differ: golden={sorted(golden)} "
                      f"fresh={sorted(fresh)}")

    for name in sorted(set(golden) & set(fresh)):
        g, f = golden[name], fresh[name]
        for kernel in ("legacy", "flat"):
            for counter in COUNTERS:
                gv, fv = g[kernel][counter], f[kernel][counter]
                if gv != fv:
                    errors.append(f"{name}/{kernel}/{counter}: golden {gv} "
                                  f"!= fresh {fv} (deterministic counter "
                                  f"drifted — kernel behavior changed)")
        # Cross-kernel invariants on the fresh run.
        if f["legacy"]["candidates"] != f["flat"]["candidates"]:
            errors.append(f"{name}: candidate counts differ between kernels "
                          f"({f['legacy']['candidates']} vs "
                          f"{f['flat']['candidates']})")
        if f["legacy"]["pairs"] != f["flat"]["pairs"]:
            errors.append(f"{name}: emitted pair counts differ between "
                          f"kernels ({f['legacy']['pairs']} vs "
                          f"{f['flat']['pairs']})")
        for kernel in ("legacy", "flat"):
            fk = f[kernel]
            if fk["candidates"] != (fk["position_rejects"] +
                                    fk["signature_rejects"] + fk["verified"]):
                errors.append(f"{name}/{kernel}: funnel does not balance: "
                              f"candidates {fk['candidates']} != position "
                              f"rejects {fk['position_rejects']} + signature "
                              f"rejects {fk['signature_rejects']} + verified "
                              f"{fk['verified']}")
        # Perf ratio: tolerate noise, fail real regressions. Near-parity
        # workloads (the shared exact verifier dominates, e.g. edit distance)
        # carry no ratio signal — they are gated by the counters above only.
        if g["speedup_flat_over_legacy"] < 1.5:
            continue
        floor = g["speedup_flat_over_legacy"] * (1.0 - args.tolerance)
        got = f["speedup_flat_over_legacy"]
        if got < floor:
            errors.append(f"{name}: speedup regressed: fresh {got:.2f}x < "
                          f"{floor:.2f}x (golden {g['speedup_flat_over_legacy']:.2f}x "
                          f"- {args.tolerance:.0%})")

    if HEADLINE in fresh:
        got = fresh[HEADLINE]["speedup_flat_over_legacy"]
        if got < args.min_headline_speedup:
            errors.append(f"{HEADLINE}: headline speedup {got:.2f}x below the "
                          f"{args.min_headline_speedup:.1f}x floor")

    if errors:
        for error in errors:
            print(f"check_bench_simjoin: {error}", file=sys.stderr)
        return 1
    print(f"check_bench_simjoin: OK ({len(fresh)} workloads)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
