#!/usr/bin/env python3
"""perfbench: the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload rander_r4t1 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all

Builds perfbench/ (which compiles ../src) into $CARGO_TARGET_DIR or
.bench_build, then runs the named workload in its own process via the
perfbench_e2e runner. With --trace 0 it reports the end-to-end metrics
of BENCHMARK.json; with --trace 1 the per-layer metrics, computed from
the spans the runner writes to <build>/traces/. Human-readable lines go
first; the last stdout line is one JSON object with the keys correct,
attempted, failed and metrics. A workload that is refused, crashes,
times out or aborts counts as failed, the others still run, and the
exit code is then non-zero. Failed correctness checks show in
`correct` and `failed`.
"""
import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
SRC = os.path.join(REPO, "src")
RUN_TIMEOUT_S = 170


def fail(code, msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def expand(name, templates):
    for key, values in templates.items():
        if key in name:
            return [name.replace(key, v) for v in values]
    return [name]


def check_spec(bench, spec):
    """BENCHMARK.json and spec.json must name the same workloads and metrics."""
    declared = {m["name"] for m in bench["end_to_end"] + bench["per_layer"]}
    described = {n for key in spec["metrics"] for n in expand(key, spec["templates"])}
    if declared != described:
        fail(5, f"BENCHMARK.json and spec.json disagree on metrics: "
                f"{sorted(declared ^ described)}")
    if {w["name"] for w in bench["workloads"]} != set(spec["workloads"]):
        fail(5, "BENCHMARK.json and spec.json disagree on workloads")


def source_digest():
    h = hashlib.sha256()
    for base, dirs, files in os.walk(SRC):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            h.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    try:
        out = subprocess.run(["git", "-C", REPO, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def build(build_dir):
    """Configure once, then incremental builds; compiler output to stderr."""
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", str(nproc())])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail(4, "build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench_e2e")


def nproc():
    return len(os.sched_getaffinity(0))


def percentile_tail(values):
    """(q, value) of the highest of p90/p99 with at least ten samples
    beyond it, or None when there are too few samples."""
    n = len(values)
    best = None
    for q in (90, 99):
        if n * (100 - q) / 100 >= 10:
            best = (q, statistics.quantiles(values, n=100)[q - 1])
    return best


def by_instance(values, instances):
    groups = defaultdict(list)
    for v, i in zip(values, instances):
        groups[i].append(v)
    return groups


def timing(values, instances):
    """Median over the instances of each instance's median, so every
    instance weighs the same whatever the number of repetitions."""
    medians = [statistics.median(vs) for vs in by_instance(values, instances).values()]
    tail = percentile_tail(values)
    note = f"median of {len(medians)} per-instance medians, n={len(values)}"
    if tail:
        note += f", p{tail[0]}={tail[1]:.6g}"
    return statistics.median(medians), note


# --- per-layer metrics from the spans --------------------------------------

class Spans:
    def __init__(self, path):
        with open(path) as f:
            self.all = [json.loads(line) for line in f if line.strip()]

    def named(self, name):
        return [s for s in self.all if s["name"] == name]

    @staticmethod
    def dur(s):
        return s["end"] - s["start"]

    def per_rank(self, name, field=None):
        """Per-rank sum of a span's duration (field None) or counter."""
        acc = defaultdict(float)
        for s in self.named(name):
            acc[s["rank"]] += self.dur(s) if field is None else s["counters"].get(field, 0.0)
        return acc

    def slowest(self, name, field=None):
        acc = self.per_rank(name, field)
        return max(acc.values()) if acc else 0.0

    def total(self, name, field):
        return sum(self.per_rank(name, field).values())

    def self_times(self):
        """Per span name: slowest-rank total and self time (minus children)."""
        lanes = defaultdict(list)
        for s in self.all:
            lanes[s["rank"]].append(s)
        tot = defaultdict(lambda: defaultdict(float))
        own = defaultdict(lambda: defaultdict(float))
        for rank, lane in lanes.items():
            child = defaultdict(float)
            for s in lane:
                if s["parent"] >= 0:
                    child[s["parent"]] += self.dur(s)
            for i, s in enumerate(lane):
                tot[s["name"]][rank] += self.dur(s)
                own[s["name"]][rank] += self.dur(s) - child[i]
        return {n: (max(tot[n].values()), max(own[n].values())) for n in tot}


def per_layer_metrics(spans, result, threads, templates):
    builds = spans.named("graph.build")
    edges = builds[0]["counters"]["m_global"]
    m = {}
    m["gen.s"] = spans.slowest("gen")
    m["graph.build_s"] = spans.slowest("graph.build")
    m["graph.adj_bytes_per_edge"] = spans.total("graph.build", "adj_bytes") / edges
    m["graph.ghosts_per_owned"] = (spans.total("graph.build", "n_ghost")
                                   / spans.total("graph.build", "n_local"))
    for key in ("init_s", "vert_stage_s", "edge_stage_s"):
        m[f"core.{key}"] = spans.slowest("core.partition", key)
    for p in templates["<phase>"]:
        name = f"core.{p}"
        m[f"{name}.s"] = spans.slowest(name)
        m[f"{name}.moves"] = spans.total(name, "moves")
        m[f"{name}.wire_bytes"] = spans.total(name, "wire_bytes")
        m[f"{name}.collectives"] = spans.slowest(name, "collectives")
        m[f"{name}.wait_s"] = spans.slowest(name, "wait_s")
    part_s = spans.slowest("core.partition")
    m["mpisim.collectives"] = spans.slowest("core.partition", "collectives")
    m["mpisim.messages"] = spans.total("core.partition", "messages")
    m["mpisim.wire_bytes_per_edge"] = spans.total("core.partition", "wire_bytes") / edges
    m["mpisim.wait_s"] = spans.slowest("core.partition", "wait_s")
    m["mpisim.wait_frac"] = m["mpisim.wait_s"] / part_s
    # The twin and the replay run right after core::partition in the
    # same repetition, on the same input.
    m["util.parallel.speedup"] = (spans.slowest("core.partition_t1") / part_s
                                  if threads > 1 else 1.0)
    for k in templates["<kernel>"]:
        name = f"engine.{k}"
        m[f"{name}.s"] = spans.slowest(name)
        m[f"{name}.supersteps"] = spans.slowest(name, "supersteps")
        m[f"{name}.wire_bytes"] = spans.total(name, "wire_bytes")
        m[f"{name}.exchange_s"] = spans.slowest(name, "exchange_s")
        m[f"{name}.wait_s"] = spans.slowest(name, "wait_s")
    m["graph.redistribute_s"] = spans.slowest("graph.redistribute")
    # The traced repetition runs on instance 0; its untraced twin is the
    # median of that instance's timed repetitions.
    untraced_s = statistics.median(
        by_instance(result["partition_s"], result["instance"])[0])
    replay_s = spans.slowest("core.replay")
    m["trace.partition_medges_per_s"] = edges / replay_s / 1e6
    m["trace.overhead_frac"] = replay_s / untraced_s - 1.0
    return m


# --- one workload ----------------------------------------------------------

def summarize(result, args, trace_path, wargs, bench, spec):
    """Metric values (and sample notes) of one runner result."""
    if args.trace:
        values = per_layer_metrics(Spans(trace_path), result, wargs["threads"],
                                   spec["templates"])
        return values, {}, [m["name"] for m in bench["per_layer"]]
    inst = result["instance"]
    setup = [g + b for g, b in zip(result["gen_s"], result["build_s"])]
    rates = [e / s / 1e6 for e, s in zip(result["edges"], result["partition_s"])]
    values, notes = {}, {}
    values["setup_s"], notes["setup_s"] = timing(setup, inst)
    values["partition_medges_per_s"], notes["partition_medges_per_s"] = timing(rates, inst)
    values["analytics_s"], notes["analytics_s"] = timing(result["analytics_s"], inst)
    for key in ("edge_cut_ratio", "scaled_max_cut", "vert_imbalance",
                "edge_imbalance"):
        values[key] = statistics.median(result[key])
        notes[key] = f"median of {len(result[key])} instances"
    values["peak_rss_mb"] = result["peak_rss_mb"]
    notes["peak_rss_mb"] = "set-up and partition of the first repetition"
    return values, notes, [m["name"] for m in bench["end_to_end"]]


def no_metrics(name, why, result=None):
    """A workload that left no metrics: refused, crashed, timed out or
    aborted. It counts as failed, and the other workloads still run."""
    result = result or {}
    print(f"== {name}: no metrics, {why}")
    for f in result.get("failures", []):
        print(f"  FAILED: {f}")
    print(f"perfbench: {name}: {why}", file=sys.stderr)
    return {"correct": False, "attempted": max(result.get("attempted", 1), 1),
            "failed": max(result.get("failed", 0), 1)}, None


def run_workload(name, wl, args, binary, build_dir, bench, spec):
    """(runner result, metrics); metrics is None when the run left none."""
    wargs = wl["args"]
    width = wargs["ranks"] * wargs["threads"]
    if width > nproc():
        return no_metrics(name, f"refused: ranks x threads = {width} exceeds "
                                f"nproc = {nproc()}")
    trace_path = os.path.join(build_dir, "traces", f"{name}_seed{args.seed}.jsonl")
    os.makedirs(os.path.dirname(trace_path), exist_ok=True)
    cmd = [binary]
    for key, value in wargs.items():
        cmd += [f"--{key}", str(value)]
    cmd += ["--instance-seed", str(args.instance_seed),
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--trace-out", trace_path]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return no_metrics(name, f"runner exceeded {RUN_TIMEOUT_S}s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return no_metrics(name, f"runner exited with {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return no_metrics(name, "runner printed no result")
    try:
        print("meta: " + json.dumps({"workload": name,
                                     "build_type": result["build_type"],
                                     "compiler": result["compiler"]}))
        values, notes, wanted = summarize(result, args, trace_path, wargs, bench, spec)
    except (KeyError, ValueError, ZeroDivisionError) as e:
        # A run that aborted leaves too little behind to summarize.
        return no_metrics(name, f"too little to summarize ({e!r})", result)

    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    print(f"== {name} (seed {args.seed}, {wargs['ranks']} ranks x "
          f"{wargs['threads']} threads, {args.seconds}s, trace {args.trace})")
    for key in wanted:
        extra = f"  ({notes[key]})" if key in notes else ""
        print(f"  {key:34s} {values[key]:>16.6g} {units[key]}{extra}")
    print(f"  {'failed_ops':34s} {result['failed'] / result['attempted']:>16.6g} "
          f"share  ({result['failed']} of {result['attempted']} repetitions)")
    for f in result["failures"]:
        print(f"  FAILED: {f}")
    if args.trace:
        print(f"  spans: {trace_path}")
        print(f"  {'span':24s} {'total_s':>10s} {'self_s':>10s}  (slowest rank)")
        for span, (tot, own) in sorted(Spans(trace_path).self_times().items(),
                                       key=lambda kv: -kv[1][0]):
            print(f"  {span:24s} {tot:>10.4f} {own:>10.4f}")
    return result, {k: {"value": values[k], "unit": units[k]} for k in wanted}


def main():
    bench = load_json(os.path.join(REPO, "BENCHMARK.json"))
    spec = load_json(os.path.join(HERE, "spec.json"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(spec["workloads"]) + ["all"])
    ap.add_argument("--seed", type=int, default=spec["seeds"]["default"])
    ap.add_argument("--instance-seed", type=int, default=spec["seeds"]["instance_seed"],
                    help="seed of the pinned graphs and init seeds")
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    check_spec(bench, spec)
    if not os.path.exists(os.path.join(SRC, "core", "xtrapulp.hpp")):
        fail(2, f"library sources not found under {SRC}")

    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    build_dir = os.path.abspath(build_dir)
    binary = build(build_dir)
    print("meta: " + json.dumps({
        "nproc": nproc(), "git_commit": git_commit(),
        "source_sha256": source_digest(), "seed": args.seed,
        "instance_seed": args.instance_seed,
        "unseen_seed": spec["seeds"]["unseen"]}))

    names = sorted(spec["workloads"]) if args.workload == "all" else [args.workload]
    correct, attempted, failed, metrics, empty = True, 0, 0, {}, []
    for name in names:
        result, wm = run_workload(name, spec["workloads"][name], args, binary,
                                  build_dir, bench, spec)
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        if wm is None:
            empty.append(name)
            continue
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: v for k, v in wm.items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    if empty:
        fail(6, "no metrics from " + ", ".join(empty))


if __name__ == "__main__":
    main()
