#!/usr/bin/env python3
"""Comm-volume regression gate.

Runs bench_micro_exchange, parses its COMM_STATS_JSON block, and diffs
it against the checked-in baseline (bench/baselines/comm_stats.json).
A row regresses when bytes_per_iter or collectives_per_iter grows
more than --tolerance (default 10%) over the baseline; a baseline row missing from the current run is also
a failure (a silently dropped sweep is how regressions hide). Timing
fields are informational and never compared. New rows are reported and
otherwise ignored — add them to the baseline with --update (rows are
written sorted by (bench, nranks, max_send_bytes) so refreshes diff
cleanly).

The dense analytics rows (pagerank_dense, kcore_dense, commlp_dense)
run their programs through engine::run, so their frozen numbers pin
the dense engine's wire cost per superstep.

The MPI+X rows carry an absolute contract: every *_tN row
(N > 1 intra-rank threads) must match its *_t1 twin EXACTLY on every
wire metric — bytes and collectives. The thread
width is a pure throughput knob by design (DESIGN.md §6); any drift
means a worker thread raced the wire accounting, and no baseline
tolerance excuses it.

With --compare-bench, a second bench binary (in CI: the same tree
built with -DXTRA_VERIFY_COMM=ON) is swept and every gated wire metric
must match the primary run's rows EXACTLY, key by key. The verifier is
observability-only: its extra barriers are unbilled and its checksums
never touch payloads, so any drift in bytes/messages/collectives
between the two builds means a verifier hook leaked into the wire
accounting. Timing metrics are exempt (the verifier legitimately costs
wall clock).

With --serving-bench, the serving bench's SERVE_STATS_JSON block rides
the same machinery (same scraper, same tolerance compare) against
bench/baselines/serve_stats.json, keyed by (bench, nranks,
slot_budget), plus two absolute contracts. Packing: every serve_mix
row must spend strictly fewer collectives per query than its
serve_mix_perquery twin (slot budget 1) at the same rank count — one
shared ledger allreduce per packed superstep is why the batched
frontier exists — and may not move more payload per query than the
twin beyond a small slack (the ledger vector itself is budget-sized,
so its allreduce bytes grow slightly with packing). Packed slots share
one {gid, mask} record per touched ghost, so packing may move fewer
bytes. Determinism: the serve_mix_t8 twin must
reproduce serve_mix's whole latency ledger (p50/p95/p99, qps,
supersteps/query, occupancy, virtual seconds) EXACTLY — the thread
width is a pure throughput knob under the virtual clock.
--serving-only skips the comm sweep for a serving-gate-only CI job.

Usage:
  python3 bench/check_comm_baseline.py --bench build/bench_micro_exchange
  python3 bench/check_comm_baseline.py --bench ... --update   # refresh
  python3 bench/check_comm_baseline.py --bench ... \\
      --compare-bench build-verify/bench_micro_exchange
  python3 bench/check_comm_baseline.py --serving-only \\
      --serving-bench build/bench_serving
"""
import argparse
import json
import pathlib
import re
import subprocess
import sys

BASELINE = pathlib.Path(__file__).parent / "baselines" / "comm_stats.json"
COMPARED = ("bytes_per_iter", "collectives_per_iter")
# MPI+X rows: "<workload>_threads_tN". N > 1 rows must equal the _t1
# twin exactly on every wire metric (threads change timing only).
THREAD_ROW = re.compile(r"^(.+_threads)_t(\d+)$")
THREAD_METRICS = ("bytes_per_iter", "collectives_per_iter")
# Deterministic wire counters that --compare-bench pins to exact
# equality between the verifier-on and verifier-off builds. Timing
# fields are excluded: the verifier may cost wall clock, never wire
# traffic.
PARITY_METRICS = ("bytes_per_iter", "collectives_per_iter")
# --- Serving gates (SERVE_STATS_JSON from bench_serving) ------------
SERVE_BASELINE = pathlib.Path(__file__).parent / "baselines" \
    / "serve_stats.json"
SERVE_COMPARED = ("p99_ms", "collectives_per_query", "bytes_per_query")
# The per-source twin of the batched serve_mix row (slot budget 1).
SERVE_PAIRS = ("serve_mix", "serve_mix_perquery")
# Upper bound on the batched row's payload against its per-source twin:
# shared {gid, mask} records can only save bytes, but the ledger vector
# itself scales with the slot budget, so its allreduce may add a little.
SERVE_BYTES_SLACK = 1.05
# serve_mix twins that must reproduce the exact same latency ledger:
# thread width is a throughput knob under the virtual clock
# (DESIGN.md §9).
SERVE_DETERMINISM_TWINS = ("serve_mix_t8",)
SERVE_DETERMINISM_METRICS = ("p50_ms", "p95_ms", "p99_ms",
                             "queries_per_sec", "slot_occupancy",
                             "supersteps_per_query", "virtual_seconds")


def run_bench(bench, min_time):
    # Newer google-benchmark releases require a unit suffix on
    # --benchmark_min_time ("0.01s"); older ones reject it. Try the
    # given spelling first, then the other form. Every failed attempt
    # is kept and replayed to stderr on exit — the first attempt's
    # output usually carries the real diagnostic, and the retry must
    # not swallow it.
    variants = [min_time]
    variants.append(min_time[:-1] if min_time.endswith("s")
                    else min_time + "s")
    attempts = []
    for i, mt in enumerate(variants):
        cmd = [bench, f"--benchmark_min_time={mt}"]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode == 0:
            return proc.stdout
        attempts.append((cmd, proc.returncode,
                         proc.stdout + proc.stderr))
        # Only retry the other spelling for a flag-parse rejection; a
        # real bench failure should surface immediately, not after a
        # second full sweep.
        if i + 1 < len(variants) and "min_time" in attempts[-1][2]:
            continue
        break
    for cmd, code, blob in attempts:
        sys.stderr.write(f"--- {' '.join(cmd)} (exit {code}) ---\n")
        sys.stderr.write(blob if blob.endswith("\n") or not blob
                         else blob + "\n")
    first_cmd, first_code, _ = attempts[0]
    sys.exit(f"bench failed on all {len(attempts)} attempt(s); first: "
             f"'{' '.join(first_cmd)}' exited with {first_code} "
             f"(full output of every attempt above)")


def run_serving(bench):
    # bench_serving is a plain binary (no google-benchmark harness):
    # everything it reports is virtual-clock, so there is no min-time
    # to sweep.
    proc = subprocess.run([bench], capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        sys.exit(f"serving bench '{bench}' exited with {proc.returncode}")
    return proc.stdout


def parse_rows(stdout, marker="COMM_STATS_JSON"):
    """The one stats scraper: find `marker`, JSON-decode the list that
    follows it. Both COMM_STATS_JSON and SERVE_STATS_JSON ride it."""
    at = stdout.find(marker)
    if at < 0:
        sys.exit(f"no {marker} block in bench output")
    return json.loads(stdout[at + len(marker):])


def key_of(row):
    return (row["bench"], row["nranks"], row["max_send_bytes"])


def serve_key_of(row):
    return (row["bench"], row["nranks"], row["slot_budget"])


def check_thread_contract(current):
    """*_tN rows (N > 1) must match their *_t1 twin exactly on every
    wire metric: intra-rank threads may change timing, nothing else."""
    failures = []
    pairs = 0
    for key, row in current.items():
        m = THREAD_ROW.match(key[0])
        if m is None or m.group(2) == "1":
            continue
        twin = current.get((m.group(1) + "_t1", key[1], key[2]))
        if twin is None:
            failures.append(f"{key}: no _t1 twin row to compare against")
            continue
        pairs += 1
        for metric in THREAD_METRICS:
            a = row.get(metric, 0.0)
            b = twin.get(metric, 0.0)
            # Exact modulo the %.1f/%.2f formatting of the JSON block.
            if abs(a - b) > 1e-6 * max(1.0, abs(b)):
                failures.append(
                    f"{key}: {metric} {a} drifted from _t1 twin's {b} "
                    f"(thread count must not touch the wire)")
    if pairs == 0:
        failures.append("no *_tN thread-twin pairs in the current run")
    return failures


def check_verifier_parity(current, other):
    """Every gated wire metric must be identical, row by row, between
    the primary (verifier-off) and comparison (verifier-on) sweeps."""
    failures = []
    for key in sorted(set(current) | set(other)):
        a, b = current.get(key), other.get(key)
        if a is None or b is None:
            failures.append(
                f"{key}: present only in the "
                f"{'comparison' if a is None else 'primary'} run — the two "
                f"builds must sweep identical rows")
            continue
        for metric in PARITY_METRICS:
            x = a.get(metric, 0.0)
            y = b.get(metric, 0.0)
            # Exact modulo the %.1f/%.2f formatting of the JSON block.
            if abs(x - y) > 1e-6 * max(1.0, abs(x)):
                failures.append(
                    f"{key}: {metric} {y} (verifier build) != {x} — the "
                    f"verifier must be observability-only on the wire")
    if not failures and not current:
        failures.append("verifier parity: no rows to compare")
    return failures


def check_multisource_contract(current):
    """Batched serve_mix rows must spend strictly fewer collectives
    per query than their per-source twins at every swept rank count,
    and no more payload bytes beyond the ledger slack — packing
    amortizes the superstep collectives and shares records, it must
    not smuggle extra payload."""
    failures = []
    batched_name, perquery_name = SERVE_PAIRS
    pairs = 0
    for key, batched in current.items():
        if key[0] != batched_name:
            continue
        twin = next((r for k, r in current.items()
                     if k[0] == perquery_name and k[1] == key[1]), None)
        if twin is None:
            failures.append(f"{key}: no {perquery_name} twin row to "
                            f"compare against")
            continue
        pairs += 1
        b, p = (r.get("collectives_per_query", 0.0)
                for r in (batched, twin))
        if not b < p:
            failures.append(
                f"{key}: collectives_per_query {b:.3f} not strictly "
                f"below per-source twin's {p:.3f}")
        bb, pb = (r.get("bytes_per_query", 0.0) for r in (batched, twin))
        if bb > pb * SERVE_BYTES_SLACK:
            failures.append(
                f"{key}: bytes_per_query {bb:.1f} above per-source "
                f"twin's {pb:.1f} — packing must not add payload "
                f"(slack {SERVE_BYTES_SLACK})")
    if pairs == 0:
        failures.append(
            f"no ({batched_name}, {perquery_name}) pairs in the current "
            f"serving run")
    return failures


def check_serve_determinism(current):
    """The 8-thread twin must reproduce serve_mix's latency ledger
    exactly: same seed + same trace => byte-identical per-query
    latencies at any thread width."""
    failures = []
    pairs = 0
    for key, row in current.items():
        if key[0] not in SERVE_DETERMINISM_TWINS:
            continue
        base = next((r for k, r in current.items()
                     if k[0] == SERVE_PAIRS[0] and k[1] == key[1]), None)
        if base is None:
            failures.append(f"{key}: no serve_mix row to compare against")
            continue
        pairs += 1
        for metric in SERVE_DETERMINISM_METRICS:
            a = row.get(metric, 0.0)
            b = base.get(metric, 0.0)
            # Exact modulo the fixed-point formatting of the block.
            if abs(a - b) > 1e-9 * max(1.0, abs(b)):
                failures.append(
                    f"{key}: {metric} {a} drifted from serve_mix's {b} "
                    f"(threads must not touch the virtual clock)")
    if pairs == 0:
        failures.append("no serve determinism twins in the current "
                        "serving run")
    return failures


def serving_section(args):
    """Sweep bench_serving, gate its SERVE_STATS_JSON block. Returns
    the failure list, or None when --update rewrote the baseline."""
    rows = sorted(parse_rows(run_serving(args.serving_bench),
                             marker="SERVE_STATS_JSON"),
                  key=serve_key_of)
    current = {serve_key_of(r): r for r in rows}

    if args.dump:
        dump = pathlib.Path(args.dump + ".serving")
        dump.parent.mkdir(parents=True, exist_ok=True)
        dump.write_text(json.dumps(rows, indent=2) + "\n")
        print(f"dumped {len(rows)} serving rows to {dump}")

    if args.update:
        SERVE_BASELINE.parent.mkdir(parents=True, exist_ok=True)
        SERVE_BASELINE.write_text(json.dumps(rows, indent=2) + "\n")
        print(f"wrote {len(rows)} rows to {SERVE_BASELINE}")
        return None

    failures = []
    baseline = {serve_key_of(r): r
                for r in json.loads(SERVE_BASELINE.read_text())}
    for key, base in sorted(baseline.items()):
        got = current.get(key)
        if got is None:
            failures.append(f"{key}: serving row missing from current run")
            continue
        for metric in SERVE_COMPARED:
            allowed = base[metric] * (1.0 + args.tolerance)
            if got.get(metric, 0.0) > allowed:
                failures.append(
                    f"{key}: {metric} {got[metric]:.3f} > baseline "
                    f"{base[metric]:.3f} (+{args.tolerance:.0%} allowed)")
    for key in sorted(set(current) - set(baseline)):
        print(f"note: new serving row not in baseline: {key}")

    failures += check_multisource_contract(current)
    failures += check_serve_determinism(current)
    return failures


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--bench", default="build/bench_micro_exchange",
                    help="path to the bench_micro_exchange binary")
    ap.add_argument("--tolerance", type=float, default=0.10,
                    help="allowed fractional growth per compared metric")
    ap.add_argument("--min-time", default="0.01s",
                    help="--benchmark_min_time passed to the bench "
                         "(unit-suffixed; the suffixless spelling is "
                         "retried automatically for older releases)")
    ap.add_argument("--update", action="store_true",
                    help="rewrite the baseline from the current run")
    ap.add_argument("--compare-bench", metavar="PATH",
                    help="second bench binary (verifier-enabled build); "
                         "its gated wire metrics must equal the primary "
                         "run's exactly")
    ap.add_argument("--dump", metavar="PATH",
                    help="write the run's COMM_STATS_JSON rows to PATH "
                         "(CI uploads this as an artifact on gate "
                         "failure); a serving sweep dumps to "
                         "PATH.serving")
    ap.add_argument("--serving-bench", metavar="PATH",
                    help="bench_serving binary; gates its "
                         "SERVE_STATS_JSON block against "
                         "baselines/serve_stats.json plus the "
                         "multi-source and determinism contracts")
    ap.add_argument("--serving-only", action="store_true",
                    help="skip the comm sweep; requires --serving-bench")
    args = ap.parse_args()

    if args.serving_only:
        if not args.serving_bench:
            ap.error("--serving-only requires --serving-bench")
        failures = serving_section(args)
        if failures is None:  # --update rewrote the baseline
            return
        if failures:
            print(f"\nserving gate FAILED ({len(failures)} regressions):")
            for f in failures:
                print(f"  {f}")
            sys.exit(1)
        print("serving gate passed: baseline within tolerance; "
              "multi-source packing and latency-determinism contracts "
              "held")
        return

    rows = sorted(parse_rows(run_bench(args.bench, args.min_time)),
                  key=key_of)
    current = {key_of(r): r for r in rows}

    if args.dump:
        dump = pathlib.Path(args.dump)
        dump.parent.mkdir(parents=True, exist_ok=True)
        dump.write_text(json.dumps(rows, indent=2) + "\n")
        print(f"dumped {len(rows)} rows to {dump}")

    if args.update:
        BASELINE.parent.mkdir(parents=True, exist_ok=True)
        BASELINE.write_text(json.dumps(rows, indent=2) + "\n")
        print(f"wrote {len(rows)} rows to {BASELINE}")
        if args.serving_bench:
            serving_section(args)
        return

    baseline = {key_of(r): r for r in json.loads(BASELINE.read_text())}
    failures = []
    for key, base in sorted(baseline.items()):
        got = current.get(key)
        if got is None:
            failures.append(f"{key}: row missing from current run")
            continue
        for metric in COMPARED:
            if metric not in base:
                continue  # pre-ledger baseline row: nothing to compare
            allowed = base[metric] * (1.0 + args.tolerance)
            if got.get(metric, 0.0) > allowed:
                failures.append(
                    f"{key}: {metric} {got[metric]:.1f} > baseline "
                    f"{base[metric]:.1f} (+{args.tolerance:.0%} allowed)")
    for key in sorted(set(current) - set(baseline)):
        print(f"note: new row not in baseline: {key}")

    failures += check_thread_contract(current)

    serving = ""
    if args.serving_bench:
        failures += serving_section(args) or []
        serving = ", and the serving gates held"

    parity = ""
    if args.compare_bench:
        other_rows = parse_rows(run_bench(args.compare_bench,
                                          args.min_time))
        other = {key_of(r): r for r in other_rows}
        failures += check_verifier_parity(current, other)
        parity = (f", and the verifier build matched all {len(current)} "
                  f"rows exactly on the wire")

    if failures:
        print(f"\ncomm baseline check FAILED ({len(failures)} regressions):")
        for f in failures:
            print(f"  {f}")
        sys.exit(1)
    print(f"comm baseline check passed: {len(baseline)} rows within "
          f"{args.tolerance:.0%}; thread-twin contract held" + serving
          + parity)


if __name__ == "__main__":
    main()
