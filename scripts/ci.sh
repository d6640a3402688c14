#!/usr/bin/env bash
# CI entry point: the plain Release build and test suite (the tier-1
# command, warnings as errors), the admission benchmark's self-test,
# sanitizer builds, and smokes of the benches that keep a gate of
# their own. Admission soundness under sharding and faults (committed
# history replays on one full checker) is the test suite's job:
# sharded_differential_test runs it in all three builds below.
# Fails on any build warning or test failure, a benchmark self-test
# failure, any sanitizer report, a failed bench gate (such as a
# decision mismatch between the optimized and baseline checkers), or
# a malformed BENCH_*.json.
set -euo pipefail

cd "$(dirname "$0")/.."

# The run must leave every tracked file as it found it; the closing
# check compares against this diff (empty on a clean checkout).
if git rev-parse --is-inside-work-tree > /dev/null 2>&1; then
  tracked_diff_at_start=$(git diff)
fi

# Tier-1: a fresh default configure (Release, RELSER_WERROR=ON) exactly
# as a contributor runs it — not a preset — so toolchain-specific
# warnings in any target fail CI.
cmake -B build -S .
cmake --build build -j
(cd build && ctest --output-on-failure -j)

# Benchmark self-test: builds perfbench/ from the library sources and
# runs every workload briefly, untraced and traced. A src/ change that
# breaks the benchmark's build, its metric names or units, or the audit
# round trip of its exported trace fails here.
python3 perfbench/selftest.py

cmake --preset asan
cmake --build --preset asan -j"$(nproc)"
ctest --preset asan

# Perf smoke: small sizes, but the same harness as the full trajectory
# run — it exercises the allocation counters, the JSON emitter and the
# optimized-vs-baseline decision cross-check, and exits non-zero if the
# decisions differ.
(cd build-asan && ./bench/bench_online_hotpath --smoke)

# The emitted JSON must parse.
python3 -c "import json; json.load(open('build-asan/BENCH_online.json'))"

# MVCC smoke: the snapshot-read fast path over a shrunken ratio grid.
# Exits non-zero unless every cell's committed history replays
# relatively serializably and the ratio-1 cell admits every
# transaction arc-free. (Bit-identity at ratio 0 is gated by
# mvcc_test above.)
(cd build-asan && ./bench/bench_mvcc --smoke)
python3 -c "import json; json.load(open('build-asan/BENCH_mvcc.json'))"

# Long-lived-transaction smoke: the spec-aware schedulers must keep
# every short-transaction-latency guarantee at each long-txn length,
# AND the admission GC phase must hold its exit-coded flat-memory /
# flat-RSS / stable-p99 gates at the smoke op count (the full 10^7-op
# run is the offline gate; same binary, same gates). It runs from the
# Release build: ASan's allocation quarantine holds freed memory back,
# so under ASan the RSS gate measures the sanitizer, not the checker.
(cd build && ./bench/bench_longlived --smoke)
python3 -c "import json; json.load(open('build/BENCH_longlived.json'))"

# Audit smoke: the offline auditor's scale + minimization gates (a
# 100k-op committed-epoch ingest/check and a planted cycle reduced to a
# <=10-op witness whose exported trace passes the shared validator).
(cd build-asan && ./bench/bench_audit --smoke)
python3 -c "import json; json.load(open('build-asan/BENCH_audit.json'))"

# Docs gate: every relative markdown link and every repo path mentioned
# in README.md / docs/*.md must exist on disk; every file under docs/
# must be reachable from README.md's documentation index; and every
# event kind the validator accepts (src/obs/inspect.cc) must be
# documented in the normative schema, docs/trace-format.md.
python3 - <<'EOF'
import os, re, sys

bad = []
docs = ["README.md"] + sorted(
    os.path.join("docs", f) for f in os.listdir("docs") if f.endswith(".md"))
for doc in docs:
    text = open(doc, encoding="utf-8").read()
    base = os.path.dirname(doc)
    for target in re.findall(r"\]\(([^)#]+?)(?:#[^)]*)?\)", text):
        if re.match(r"[a-z]+:", target):  # http(s), mailto, ...
            continue
        if not os.path.exists(os.path.join(base, target)):
            bad.append(f"{doc}: broken link -> {target}")
    for path in re.findall(
            r"\b(?:src|docs|tests|bench|tools|scripts|examples)/"
            r"[\w./-]+\.(?:h|cc|cpp|md|sh|json|txt)\b", text):
        if not os.path.exists(path):
            bad.append(f"{doc}: dangling path -> {path}")

# Reachability: README.md must link every docs/*.md.
readme = open("README.md", encoding="utf-8").read()
linked = set(re.findall(r"\]\((docs/[^)#]+?\.md)(?:#[^)]*)?\)", readme))
for f in sorted(os.listdir("docs")):
    if f.endswith(".md") and f"docs/{f}" not in linked:
        bad.append(f"README.md: docs/{f} not linked from the docs index")

# Event-kind coverage: the kinds the validator knows are the kinds the
# normative schema documents.
inspect = open("src/obs/inspect.cc", encoding="utf-8").read()
body = re.search(
    r"bool IsKnownTraceEventKind\(std::string_view kind\) \{(.*?)\}",
    inspect, re.S)
if body is None:
    bad.append("src/obs/inspect.cc: IsKnownTraceEventKind not found")
else:
    kinds = set(re.findall(r'kind == "(\w+)"', body.group(1)))
    if not kinds:
        bad.append("src/obs/inspect.cc: no event kinds extracted")
    schema = open("docs/trace-format.md", encoding="utf-8").read()
    for kind in sorted(kinds | {"header"}):
        if f"`{kind}`" not in schema:
            bad.append(f"docs/trace-format.md: event kind `{kind}` "
                       "undocumented")

for line in bad:
    print("docs-gate:", line)
sys.exit(1 if bad else 0)
EOF

# ThreadSanitizer job: the execution substrate and the admission
# front-end (ShardedAdmitter, at one shard and at several) are the
# components with real cross-thread traffic, so the TSan build compiles
# just their test binaries and runs them under the race detector (pool
# churn, MPSC producer storms, the 8-client one-shard admitter stress,
# the fault-injection suite with its concurrent backpressure clients
# and cross-shard shedding, multi-core admission with cross-shard kill
# cascades, a reduced-round sharded differential sweep whose fault
# rounds add stalls, drops, self-aborts, deadlines and shedding, the
# MVCC snapshot-read fleets whose settledness counters and commit CAS
# are the fast path's entire synchronization story, and the epoch-GC
# machinery: the settled-flag publication, the end-of-drain collectors
# racing admission, live router swaps racing traffic, and a
# reduced-round GC'd-vs-unbounded differential). Admission is
# caller-runs, so every one of these races is between client threads
# handing a shard's drain token to each other.
# -fno-sanitize-recover turns any report into a non-zero exit.
cmake --preset tsan
cmake --build --preset tsan -j"$(nproc)" \
  --target exec_test admitter_test fault_test shard_test \
           sharded_differential_test mvcc_test \
           epoch_test epoch_gc_differential_test reshard_test
(cd build-tsan &&
 RELSER_SHARD_DIFF_ROUNDS=120 \
 RELSER_EPOCH_DIFF_ROUNDS=40 \
 ctest -R '^(exec_test|admitter_test|fault_test|shard_test|sharded_differential_test|mvcc_test|epoch_test|epoch_gc_differential_test|reshard_test)$' \
   --output-on-failure)

# Trace smoke: export a paper-figure trace, validate it against the
# documented schema, and summarize it.
(cd build-asan &&
 ./tools/trace_inspect --demo ra ci_trace.jsonl ci_trace.chrome.json &&
 ./tools/trace_inspect --check ci_trace.jsonl &&
 ./tools/trace_inspect ci_trace.jsonl > /dev/null &&
 python3 -c "import json; json.load(open('ci_trace.chrome.json'))")

# Audit round-trip smoke: the demo exports Figure 3, audits it back to
# ACCEPT, then flips one bit to VIOLATION and minimizes the witness
# (exit 0 only if every expectation held). On top of the demo's own
# checks: the exported trace must audit to exit 0, the witness trace
# must pass the shared validator and audit to exactly exit 1 — the
# documented exit-code contract. The exit code is captured in an &&/||
# list, so the expected 1 does not trip `set -e`.
(cd build-asan &&
 rm -rf ci_audit && mkdir ci_audit &&
 ./tools/audit --demo ci_audit &&
 ./tools/audit ci_audit/fig3_s2.jsonl > /dev/null &&
 ./tools/trace_inspect --check ci_audit/fig3_witness.jsonl &&
 python3 -c "import json; json.load(open('ci_audit/fig3_witness.chrome.json'))")
(cd build-asan &&
 ./tools/audit --no-witness ci_audit/fig3_witness.jsonl > /dev/null &&
   rc=0 || rc=$?
 [ "$rc" -eq 1 ])

# Streaming-audit smoke: the constant-memory segmented replay must
# reproduce the batch auditor's exit codes from a pipe — 0 on the
# accepted Figure 3 export, exactly 1 on the minimized witness.
(cd build-asan && ./tools/audit --stream - < ci_audit/fig3_s2.jsonl > /dev/null)
(cd build-asan &&
 ./tools/audit --stream --no-witness - \
     < ci_audit/fig3_witness.jsonl > /dev/null && rc=0 || rc=$?
 [ "$rc" -eq 1 ])

# Tracked files: a bench or tool that rewrites a committed file (a root
# BENCH_*.json, say) fails CI here instead of passing silently. Outside
# a git checkout there is nothing to compare.
if [ -n "${tracked_diff_at_start+set}" ] &&
   [ "$(git diff)" != "$tracked_diff_at_start" ]; then
  echo "ci: the run modified tracked files:" >&2
  git diff --stat >&2
  exit 1
fi

echo "ci: all checks passed"
