#!/usr/bin/env python3
"""Checks a freshly generated BENCH_*.json artifact against its golden.

The golden's `schema` names the artifact; an unknown schema is refused. Each
field is a pure function of the bench seed, so every field of the fresh file
must equal the golden's, except the wall-clock TRAJECTORY fields. The fresh
run must also clear its artifact's acceptance bar (BARS).

Usage:
  tools/check_bench.py --golden BENCH_service.json --fresh fresh.json
  tools/check_bench.py --self-test   mutation table over the checked-in goldens
"""

import argparse
import copy
import glob
import json
import os
import sys

TRAJECTORY = ("wall_ms", "records_per_sec", "sessions_per_sec",
              "p99_step_micros")
MIN_COMPLETED = 1000
MIN_PEAK_LIVE = 1000
MIN_SESSIONS_PER_SEC = 50.0
MAX_P99_STEP_MICROS = 50000
MIN_TASKS_SAVED = 100


def each(what, holds):
    """A bar every workload must clear."""
    return lambda ws: [f"{w['name']}: {what}" for w in ws if not holds(w)]


def total(what, holds):
    """A bar the workloads must clear together."""
    return lambda ws: [] if holds(ws) else [what]


BARS = {
    "cdb-bench-simjoin-v2": [
        each("funnel does not balance: candidates != position rejects + "
             "signature rejects + verified",
             lambda w: w["flat"]["candidates"] == w["flat"]["verified"] +
             w["flat"]["position_rejects"] + w["flat"]["signature_rejects"]),
    ],
    "cdb-bench-optimizer-v2": [],
    "cdb-bench-service-v1": [
        each(f"completed < {MIN_COMPLETED}",
             lambda w: w["completed"] >= MIN_COMPLETED),
        each(f"peak_live_sessions < {MIN_PEAK_LIVE}",
             lambda w: w["peak_live_sessions"] >= MIN_PEAK_LIVE),
        each("the queue never refused a query",
             lambda w: w["rejected_queue"] > 0),
        each("the budget never refused a query",
             lambda w: w["rejected_budget"] > 0),
        each("a session failed", lambda w: w["failed"] == 0),
        each("no checkpoint was taken",
             lambda w: w["checkpoints"] > 0 and w["checkpoint_bytes"] > 0),
        each(f"sessions_per_sec < {MIN_SESSIONS_PER_SEC}",
             lambda w: w["sessions_per_sec"] >= MIN_SESSIONS_PER_SEC),
        each(f"p99_step_micros > {MAX_P99_STEP_MICROS}",
             lambda w: w["p99_step_micros"] <= MAX_P99_STEP_MICROS),
    ],
    # The oracle crowd makes deduction sound, so F1 must not move.
    "cdb-bench-propagation-v1": [
        each("propagation asked more tasks",
             lambda w: w["tasks_on"] <= w["tasks_off"]),
        each("F1 diverged", lambda w: abs(w["f1_on"] - w["f1_off"]) <= 1e-9),
        total(f"fewer than {MIN_TASKS_SAVED} tasks saved",
              lambda ws: sum(w["tasks_off"] - w["tasks_on"] for w in ws)
              >= MIN_TASKS_SAVED),
        total("no edge was deduced",
              lambda ws: sum(w["deduced_edges"] for w in ws) >= 1),
    ],
}


def fields(node, path=""):
    """Yields (path, value) for every compared leaf; list items are keyed by
    their name, so a renamed, missing or extra workload shows as a field."""
    items = (node.items() if isinstance(node, dict) else
             ((item.get("name", i) if isinstance(item, dict) else i, item)
              for i, item in enumerate(node)))
    for key, value in items:
        if key in TRAJECTORY or (key == "schema" and not path):
            continue
        if isinstance(value, (dict, list)):
            yield from fields(value, f"{path}{key}/")
        else:
            yield f"{path}{key}", value


def check(golden, fresh):
    """Returns the list of problems with `fresh`; empty means it passes."""
    schema = golden.get("schema")
    if schema not in BARS:
        return [f"unknown schema {schema!r}"]
    if fresh.get("schema") != schema:
        return [f"schema: golden {schema!r} != fresh {fresh.get('schema')!r}"]
    want, got = dict(fields(golden)), dict(fields(fresh))
    errors = [f"{path}: golden {want.get(path)!r} != fresh {got.get(path)!r}"
              for path in sorted(want.keys() | got.keys())
              if want.get(path) != got.get(path)]
    try:
        return errors + [e for bar in BARS[schema]
                         for e in bar(fresh["workloads"])]
    except (KeyError, TypeError) as e:
        return errors + [f"malformed artifact: {e!r}"]


def load(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def leaves(node):
    """Yields (container, key) for every leaf below the top-level schema."""
    for key in node if isinstance(node, dict) else range(len(node)):
        if isinstance(node[key], (dict, list)):
            yield from leaves(node[key])
        elif key != "schema":
            yield node, key


# (golden, text the failing bar prints, edit of its workload list); the edit
# goes to both sides of the pair, so only the bar can fail.
VIOLATIONS = [
    ("simjoin", "funnel", lambda ws: ws[0]["flat"].update(verified=0)),
    ("service", "completed", lambda ws: ws[0].update(completed=999)),
    ("service", "peak_live", lambda ws: ws[0].update(peak_live_sessions=999)),
    ("service", "queue never", lambda ws: ws[0].update(rejected_queue=0)),
    ("service", "budget never", lambda ws: ws[0].update(rejected_budget=0)),
    ("service", "failed", lambda ws: ws[0].update(failed=1)),
    ("service", "checkpoint", lambda ws: ws[0].update(checkpoints=0)),
    ("service", "checkpoint", lambda ws: ws[0].update(checkpoint_bytes=0)),
    ("service", "sessions_per_sec",
     lambda ws: ws[0].update(sessions_per_sec=49.9)),
    ("service", "p99_step", lambda ws: ws[0].update(p99_step_micros=50001)),
    ("propagation", "more tasks",
     lambda ws: ws[0].update(tasks_on=ws[0]["tasks_off"] + 1)),
    ("propagation", "F1", lambda ws: ws[0].update(f1_on=ws[0]["f1_off"] / 2)),
    ("propagation", "tasks saved",
     lambda ws: [w.update(tasks_on=w["tasks_off"]) for w in ws]),
    ("propagation", "deduced",
     lambda ws: [w.update(deduced_edges=0) for w in ws]),
]


# Wall-clock leaves across the checked-in goldens; pinned so that widening
# TRAJECTORY cannot exempt a deterministic field unnoticed.
TRAJECTORY_LEAVES = 19


def self_test():
    """Bumps each leaf of every checked-in golden alone: an exact field must
    fail the check and a trajectory field pass it. Then breaks each bar."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    problems, exact, trajectory = [], 0, 0
    for path in sorted(glob.glob(os.path.join(root, "BENCH_*.json"))):
        name, golden = os.path.basename(path), load(path)
        fresh = copy.deepcopy(golden)
        problems += [f"{name}: clean pair: {e}" for e in check(golden, fresh)]
        for node, key in leaves(fresh):
            value = node[key]
            node[key] = value + ("~" if isinstance(value, str) else 1)
            failed = bool(check(golden, fresh))
            node[key] = value
            exact += key not in TRAJECTORY
            trajectory += key in TRAJECTORY
            if failed != (key not in TRAJECTORY):
                problems.append(f"{name}: bumping {key} {value!r} "
                                f"{'fails' if failed else 'passes'}")
        if not check(golden, dict(fresh, schema="cdb-bench-other")):
            problems.append(f"{name}: a fresh file of another schema passes")
        if not check(dict(golden, schema="other"), fresh)[0].startswith(
                "unknown schema"):
            problems.append(f"{name}: an unknown schema is not refused")
    if trajectory != TRAJECTORY_LEAVES:
        problems.append(f"{trajectory} trajectory leaves, expected "
                        f"{TRAJECTORY_LEAVES}")
    for artifact, expect, edit in VIOLATIONS:
        doc = load(os.path.join(root, f"BENCH_{artifact}.json"))
        edit(doc["workloads"])
        if not any(expect in e for e in check(doc, copy.deepcopy(doc))):
            problems.append(f"{artifact}: the '{expect}' bar did not fire")
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    print(f"check_bench self-test: {exact} exact fields fail when bumped, "
          f"{trajectory} trajectory fields pass, {len(VIOLATIONS)} bar "
          f"violations fail; {len(problems)} problem(s)")
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--golden")
    parser.add_argument("--fresh")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not (args.golden and args.fresh):
        parser.error("--golden and --fresh are required")
    errors = check(load(args.golden), load(args.fresh))
    for error in errors:
        print(f"check_bench: {error}", file=sys.stderr)
    if not errors:
        print(f"check_bench: {args.fresh} matches {args.golden}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
