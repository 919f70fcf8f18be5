#!/usr/bin/env python3
"""Compare the two newest perfbench trajectory files.

Run from anywhere:

    python3 tools/bench_compare.py

A trajectory file is BENCH_<n>.json at the repository root: the
`meta:` lines and the final JSON object of one
`python3 perfbench/run.py --workload all` run. "Newest" means the two
largest <n>. For every workload and end-to-end metric of
BENCHMARK.json the report prints the older value, the newer value and
the relative change, and flags a metric that got worse by more than
its bound. Per-layer metrics are printed too when both runs traced
them, but never flagged: they have no bound.

It is a report, not a gate: one run per side cannot separate a
regression from host noise. Exit status: 0 when nothing is flagged,
1 when something is, 2 when fewer than two files exist or one cannot
be read.
"""
import json
import os
import re
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME = re.compile(r"^BENCH_(\d+)\.json$")


def trajectory_files():
    found = []
    for name in os.listdir(REPO):
        m = NAME.match(name)
        if m:
            found.append((int(m.group(1)), os.path.join(REPO, name)))
    return [path for _, path in sorted(found)]


def read_run(path):
    """(meta dicts, final JSON object) of one saved perfbench stdout."""
    meta, result = [], None
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line.startswith("meta: "):
                meta.append(json.loads(line[len("meta: "):]))
            elif line.startswith("{"):
                result = json.loads(line)
    if result is None or "metrics" not in result:
        raise ValueError(f"{path}: no final perfbench JSON object")
    return meta, result


def describe(path, meta, result):
    head = next((m for m in meta if "git_commit" in m), {})
    return (f"{os.path.basename(path)}: commit {head.get('git_commit')}, "
            f"src {head.get('source_sha256')}, nproc {head.get('nproc')}, "
            f"correct {result['correct']}, "
            f"failed {result['failed']}/{result['attempted']}")


def split_key(key, workloads):
    for w in workloads:
        if key.startswith(w + "."):
            return w, key[len(w) + 1:]
    return None, key


def main():
    files = trajectory_files()
    if len(files) < 2:
        print(f"bench_compare: need two BENCH_<n>.json files in {REPO}, "
              f"found {len(files)}", file=sys.stderr)
        return 2
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        bench = json.load(f)
    try:
        (old_meta, old), (new_meta, new) = (read_run(p) for p in files[-2:])
    except (OSError, ValueError) as e:
        print(f"bench_compare: {e}", file=sys.stderr)
        return 2

    workloads = [w["name"] for w in bench["workloads"]]
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    direction = {m["name"]: m["better"]
                 for m in bench["end_to_end"] + bench["per_layer"]}
    print("old " + describe(files[-2], old_meta, old))
    print("new " + describe(files[-1], new_meta, new))

    flagged = []
    if old["failed"] * new["attempted"] < new["failed"] * old["attempted"]:
        flagged.append("failed-operation share grew")
    if old["correct"] and not new["correct"]:
        flagged.append("correctness checks failed in the newer run")
    rows = {}
    for key in sorted(set(old["metrics"]) & set(new["metrics"])):
        workload, metric = split_key(key, workloads)
        rows.setdefault(workload, []).append(metric)
    for workload in workloads + [None]:
        if workload not in rows:
            continue
        print(f"\n== {workload or 'all'}")
        prefix = f"{workload}." if workload else ""
        ordered = sorted(rows[workload], key=lambda m: (m not in e2e, m))
        for metric in ordered:
            a = old["metrics"][prefix + metric]["value"]
            b = new["metrics"][prefix + metric]["value"]
            unit = new["metrics"][prefix + metric]["unit"]
            rel = (b - a) / abs(a) if a else (0.0 if b == a else float("inf"))
            worse = rel if direction.get(metric) == "lower" else -rel
            mark = ""
            if metric in e2e and worse > e2e[metric]["bound"]:
                mark = f"  WORSE beyond bound {e2e[metric]['bound']:.0%}"
                flagged.append(f"{workload}.{metric}: {rel:+.1%}")
            print(f"  {metric:34s} {a:>12.6g} -> {b:>12.6g} {unit:9s}"
                  f" {rel:+8.1%}{mark}")

    if flagged:
        print("\nflagged:")
        for f in flagged:
            print(f"  {f}")
        return 1
    print("\nno end-to-end metric worsened beyond its bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
