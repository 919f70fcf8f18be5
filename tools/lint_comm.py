#!/usr/bin/env python3
"""Repo lint for communication correctness and determinism (CI gate).

Rules, matched against comment- and string-stripped source:

  A  substrate-calls  Raw substrate calls (alltoall*, alltoallv*) may appear
                      only in the comm layer (src/comm/, src/mpisim/),
                      the verifier that sits under it (src/verify/), and
                      tests/. Everything else must route through
                      comm::Exchanger so phasing, billing, and channel
                      attribution stay in one place.
  B  randomness       std::rand/srand/random_device are banned
                      everywhere: all randomness flows from the seeded
                      SplitMix/hash generators so runs are reproducible.
  C  wall-clock       system_clock/gettimeofday/std::time/localtime are
                      banned in src/: deterministic paths must not read
                      calendar time (util::Timer's steady_clock is the
                      one sanctioned clock).
  D  thread-observables  par::current_slot()/this_thread::get_id/
                      pthread_self in src/ need a `lint-ok:` annotation
                      on the same line stating why the use cannot leak
                      into results (per-slot scratch, diagnostics); the
                      MPI+X contract says observables never key on the
                      executing worker.
  E  file-io          Direct file I/O (fopen/fread/fwrite, std::ifstream
                      and friends, mmap/mkstemp) in src/ may appear only
                      in src/graph/io: file I/O only in the edge-list
                      loader, so every byte read from outside the
                      program passes its format checks.
  F  serve-purity     src/serve/ may read NO clock of any kind (chrono,
                      steady/system/high_resolution_clock,
                      clock_gettime, even util::Timer) and no thread
                      identity: the serving latency model is the
                      virtual clock (serve/clock.hpp), advanced only
                      from allreduced counters, and the determinism
                      contract (same seed + config => byte-identical
                      per-query latencies at any thread width) dies the
                      moment host time or a worker id leaks in.

A violation line can be waived with a trailing `// lint-ok: <reason>`
comment; rules A and F are deliberately not waivable.

Usage:  tools/lint_comm.py [--root DIR] [--self-test]
Exit status: 0 clean, 1 violations, 2 internal error.
"""

import argparse
import os
import re
import sys

SOURCE_DIRS = ("src", "tests", "bench", "examples")
SOURCE_EXTS = (".cpp", ".hpp", ".cc", ".h")

# Rule A: token -> allowed path prefixes (POSIX-style, repo-relative).
SUBSTRATE_CALL = re.compile(
    r"\b(alltoallv(?:_bytes)?(?:_start|_finish)?|alltoall|"
    r"find_free_channel)\s*(?:<[^<>]*>\s*)?\("
)
SUBSTRATE_ALLOWED = (
    "src/comm/",
    "src/mpisim/",
    "src/verify/",
    "tests/",
    # The substrate micro-bench times the raw collectives themselves —
    # that baseline is the point; it cannot route through the Exchanger.
    "bench/bench_micro_exchange.cpp",
)

RANDOMNESS = re.compile(r"\bstd::rand\b|\bsrand\s*\(|\brandom_device\b")

WALL_CLOCK = re.compile(
    r"\bsystem_clock\b|\bgettimeofday\s*\(|\bstd::time\s*\(|\blocaltime\s*\("
)

THREAD_OBSERVABLE = re.compile(
    r"\bcurrent_slot\s*\(|\bthis_thread::get_id\s*\(|\bpthread_self\s*\("
)
# The par:: layer defines/owns these; it is exempt from rule D.
THREAD_OBSERVABLE_EXEMPT = ("src/util/parallel.hpp", "src/util/parallel.cpp")

FILE_IO = re.compile(
    r"\bfopen\s*\(|\bfread\s*\(|\bfwrite\s*\(|"
    r"\b[io]?fstream\b|"
    r"\bmmap\s*\(|\bmunmap\s*\(|\bmkstemp\s*\("
)
# Rule E applies to src/ only; the edge-list loader owns file I/O.
FILE_IO_ALLOWED = ("src/graph/io",)

# Rule F: the serving subsystem's total clock/thread-identity ban.
# Strictly wider than rules C and D (even the sanctioned steady_clock
# Timer is out), scoped to src/serve/, and not waivable.
SERVE_PURITY = re.compile(
    r"\bsteady_clock\b|\bsystem_clock\b|\bhigh_resolution_clock\b|"
    r"\bchrono\b|\bclock_gettime\s*\(|\bTimer\b|"
    r"\bcurrent_slot\s*\(|\bthis_thread::get_id\s*\(|\bpthread_self\s*\("
)
SERVE_DIR = "src/serve/"

LINT_OK = re.compile(r"lint-ok:")


def strip_comments_and_strings(text):
    """Blank out comments and string/char literals, preserving line
    structure, so rules never fire on prose or error messages. The
    waiver token is matched against the ORIGINAL line, not this."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line | block | str | chr
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "str"
                out.append(" ")
                i += 1
                continue
            if c == "'":
                state = "chr"
                out.append(" ")
                i += 1
                continue
            out.append(c)
        elif state == "line":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
        elif state == "block":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append(c if c == "\n" else " ")
        elif state in ("str", "chr"):
            quote = '"' if state == "str" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
            out.append(" " if c != "\n" else c)
        i += 1
    return "".join(out)


def lint_file(relpath, text):
    """Yield (rule, lineno, line, message) violations for one file."""
    stripped = strip_comments_and_strings(text)
    raw_lines = text.splitlines()
    for lineno, line in enumerate(stripped.splitlines(), start=1):
        raw = raw_lines[lineno - 1] if lineno <= len(raw_lines) else ""
        waived = bool(LINT_OK.search(raw))

        if SUBSTRATE_CALL.search(line) and not relpath.startswith(
            SUBSTRATE_ALLOWED
        ):
            yield (
                "A",
                lineno,
                raw,
                "raw substrate call outside src/comm|src/mpisim|src/verify|"
                "tests — route through comm::Exchanger (not waivable)",
            )
        if RANDOMNESS.search(line) and not waived:
            yield (
                "B",
                lineno,
                raw,
                "unseeded randomness — use the seeded hash generators",
            )
        if relpath.startswith("src/"):
            if WALL_CLOCK.search(line) and not waived:
                yield (
                    "C",
                    lineno,
                    raw,
                    "wall-clock read in a deterministic path — use "
                    "util::Timer (steady_clock)",
                )
            if (
                THREAD_OBSERVABLE.search(line)
                and relpath not in THREAD_OBSERVABLE_EXEMPT
                and not waived
            ):
                yield (
                    "D",
                    lineno,
                    raw,
                    "worker-identity read without a `lint-ok:` annotation — "
                    "observables must not key on the executing thread",
                )
            if (
                FILE_IO.search(line)
                and not relpath.startswith(FILE_IO_ALLOWED)
                and not waived
            ):
                yield (
                    "E",
                    lineno,
                    raw,
                    "direct file I/O outside src/graph/io — file I/O "
                    "belongs in the edge-list loader",
                )
        if relpath.startswith(SERVE_DIR) and SERVE_PURITY.search(line):
            yield (
                "F",
                lineno,
                raw,
                "clock or thread-identity read in src/serve/ — serving "
                "latency is the virtual clock, advanced from allreduced "
                "counters only (not waivable)",
            )


def iter_sources(root):
    for top in SOURCE_DIRS:
        base = os.path.join(root, top)
        for dirpath, _dirnames, filenames in os.walk(base):
            for name in sorted(filenames):
                if name.endswith(SOURCE_EXTS):
                    path = os.path.join(dirpath, name)
                    yield os.path.relpath(path, root).replace(os.sep, "/")


def run_lint(root):
    violations = []
    for relpath in iter_sources(root):
        with open(os.path.join(root, relpath), encoding="utf-8") as f:
            text = f.read()
        violations.extend(
            (relpath, rule, lineno, line, msg)
            for rule, lineno, line, msg in lint_file(relpath, text)
        )
    return violations


# --- Self-test ---------------------------------------------------------

SELF_TEST_CASES = [
    # (relpath, source, expected rule letters)
    ("src/core/foo.cpp", "comm.alltoallv_bytes_start(p, 8, c);\n", ["A"]),
    ("src/core/foo.cpp", "int c = x.find_free_channel();\n", ["A"]),
    ("src/comm/foo.cpp", "comm.alltoallv_bytes_start(p, 8, c);\n", []),
    ("src/mpisim/foo.hpp", "alltoallv_bytes_finish(r, nullptr, c);\n", []),
    ("src/verify/foo.cpp", "comm.alltoall(counts);\n", []),
    ("tests/test_x.cpp", "comm.alltoallv(send, counts);\n", []),
    # Rule A fires even with a waiver.
    ("src/core/foo.cpp", "comm.alltoall(c);  // lint-ok: nope\n", ["A"]),
    # Comments and strings never fire.
    ("src/core/foo.cpp", "// calls alltoall(c) and std::rand()\n", []),
    ("src/core/foo.cpp", 'err = "alltoall(c) failed: std::rand()";\n', []),
    ("src/core/foo.cpp", "/* system_clock in prose\n spanning */ int x;\n", []),
    ("src/core/foo.cpp", "int n = std::rand();\n", ["B"]),
    ("tests/test_x.cpp", "std::random_device rd;\n", ["B"]),
    ("bench/bench_x.cpp", "srand(42);\n", ["B"]),
    ("src/util/timer.hpp", "auto t = std::chrono::steady_clock::now();\n", []),
    ("src/util/foo.cpp", "auto t = system_clock::now();\n", ["C"]),
    # Wall clock is src-only (tools/tests may timestamp reports).
    ("tests/test_x.cpp", "auto t = system_clock::now();\n", []),
    ("src/engine/foo.hpp", "int s = par::current_slot();\n", ["D"]),
    (
        "src/engine/foo.hpp",
        "int s = par::current_slot();  // lint-ok: per-slot scratch\n",
        [],
    ),
    ("src/util/parallel.cpp", "int current_slot() { return tl_slot; }\n", []),
    ("src/core/foo.cpp", "auto id = std::this_thread::get_id();\n", ["D"]),
    # A declaration is not a call: no parenthesis-following-token, no fire.
    ("src/core/foo.cpp", "count_t alltoall_bytes_total;\n", []),
    ("src/core/foo.cpp", 'FILE* f = std::fopen(p, "rb");\n', ["E"]),
    ("src/engine/foo.cpp", "std::ifstream in(path);\n", ["E"]),
    ("src/comm/foo.cpp", "void* m = ::mmap(nullptr, n, p, f, fd, 0);\n", ["E"]),
    ("src/core/foo.cpp", "int fd = mkstemp(buf.data());\n", ["E"]),
    # The edge-list loader owns direct I/O; the rest of src/graph does not.
    ("src/graph/io.cpp", 'FILE* f = std::fopen(p, "rb");\n', []),
    ("src/graph/dist_graph.cpp", "void* m = ::mmap(0, n, p, f, fd, 0);\n",
     ["E"]),
    # Rule E is src-only (tools/tests/bench may read fixtures) + waivable.
    ("tests/test_x.cpp", "std::ifstream in(path);\n", []),
    ("bench/bench_x.cpp", 'FILE* f = std::fopen(p, "r");\n', []),
    (
        "src/metrics/foo.cpp",
        "std::ofstream out(p);  // lint-ok: report sink\n",
        [],
    ),
    # Prose never fires.
    ("src/core/foo.cpp", "// uses mmap() under the hood\n", []),
    # Rule F: the serve subsystem's total clock/thread ban.
    ("src/serve/foo.cpp", "util::Timer t;\n", ["F"]),
    ("src/serve/foo.cpp",
     "auto t = std::chrono::steady_clock::now();\n", ["F"]),
    # system_clock in serve trips both the src-wide rule C and F.
    ("src/serve/foo.cpp", "auto t = system_clock::now();\n", ["C", "F"]),
    ("src/serve/foo.cpp", "clock_gettime(CLOCK_MONOTONIC, &ts);\n", ["F"]),
    # A waiver silences rule D but never F.
    ("src/serve/foo.cpp",
     "int s = par::current_slot();  // lint-ok: scratch\n", ["F"]),
    ("src/serve/foo.cpp", "int s = par::current_slot();\n", ["D", "F"]),
    # F is scoped to src/serve/ — the engine keeps its Timer.
    ("src/engine/foo.cpp", "util::Timer t;\n", []),
    # The virtual clock itself is fine; prose never fires.
    ("src/serve/clock2.hpp", "double now() { return now_; }\n", []),
    ("src/serve/foo.cpp", "// wall clock and Timer stay out\n", []),
]


def self_test():
    failures = 0
    for relpath, source, expected in SELF_TEST_CASES:
        got = sorted({rule for rule, _, _, _ in lint_file(relpath, source)})
        if got != sorted(expected):
            failures += 1
            print(
                f"self-test FAIL: {relpath!r} {source!r}: "
                f"expected {expected}, got {got}",
                file=sys.stderr,
            )
    if failures:
        print(f"self-test: {failures} case(s) failed", file=sys.stderr)
        return 1
    print(f"self-test: all {len(SELF_TEST_CASES)} cases passed")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--root",
        default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        help="repository root (default: parent of this script)",
    )
    parser.add_argument(
        "--self-test",
        action="store_true",
        help="run the rule-engine self-test and exit",
    )
    args = parser.parse_args()

    if args.self_test:
        return self_test()

    violations = run_lint(args.root)
    for relpath, rule, lineno, line, msg in violations:
        print(f"{relpath}:{lineno}: [rule {rule}] {msg}")
        print(f"    {line.strip()}")
    if violations:
        print(f"lint_comm: {len(violations)} violation(s)", file=sys.stderr)
        return 1
    print("lint_comm: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
