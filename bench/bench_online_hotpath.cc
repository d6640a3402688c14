// ONLINE-HOTPATH — admission-path throughput of the streaming certifier.
//
// Streams random workloads of 10^2..10^5 operations through the
// frontier-pruned OnlineRsrChecker and through the pre-optimization
// OnlineRsrCheckerBaseline (the baseline's per-op cost grows with the
// transitive ancestor count, so it is only run up to 10^4). Records, per
// size: ops/sec, arcs submitted/inserted, steady-state heap allocations
// per operation (global new/delete counters, second half of the feed) and
// p50/p99 admission latency. Results go to BENCH_online.json for the
// perf trajectory; bench/trajectory/ keeps committed snapshots.
//
// Both checkers must agree on every accept/reject decision (the
// optimization's bit-identical contract) — any disagreement, like a JSON
// write failure, exits non-zero. So does a steady state that allocates:
// more than kMaxSteadyAllocsPerOp heap allocations per operation at the
// largest size. `--smoke` runs reduced sizes for CI.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "util/json.h"
#include "core/online.h"
#include "core/online_baseline.h"
#include "util/rng.h"
#include "workload/generator.h"
#include "workload/spec_gen.h"

namespace {

std::atomic<std::uint64_t> g_alloc_count{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};

}  // namespace

// Counting global allocator: every heap allocation in the process bumps
// the counters, so "zero allocations in the steady state" is measured,
// not assumed. Plain (unaligned) overloads cover all containers used.
void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* ptr = std::malloc(size == 0 ? 1 : size)) return ptr;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }

namespace relser {
namespace {

// Allocation gate on the optimized checker's steady state (second half
// of the feed) at the largest size. What remains there is amortized
// growth of workload-sized containers, well under this bound.
constexpr double kMaxSteadyAllocsPerOp = 0.25;

struct Workload {
  TransactionSet txns;
  AtomicitySpec spec;
  Schedule schedule;
  std::size_t txn_count = 0;
  std::size_t txn_length = 0;
  std::size_t object_count = 0;
};

Workload MakeWorkload(std::size_t target_ops, std::uint64_t seed) {
  Workload wl;
  // Bound the transaction count: the spec holds O(T^2) words and each
  // retained ancestor row up to T entries, and realistic certifier
  // deployments recycle transaction slots rather than growing without
  // bound. Longer transactions take over past ~16k ops.
  wl.txn_count = std::min<std::size_t>(std::max<std::size_t>(
                                           target_ops / 16, 2),
                                       1024);
  wl.txn_length = std::max<std::size_t>(target_ops / wl.txn_count, 1);
  // Enough objects that most operations are admitted (a certifier's
  // common case); contention still produces a healthy rejection count.
  wl.object_count = std::max<std::size_t>(16, target_ops / 8);
  Rng rng(seed);
  WorkloadParams wp;
  wp.txn_count = wl.txn_count;
  wp.min_ops_per_txn = wl.txn_length;
  wp.max_ops_per_txn = wl.txn_length;
  wp.object_count = wl.object_count;
  wp.read_ratio = 0.5;
  wl.txns = GenerateTransactions(wp, &rng);
  wl.spec = RandomUniformObserverSpec(wl.txns, 0.5, &rng);
  wl.schedule = RandomSchedule(wl.txns, &rng);
  return wl;
}

struct FeedResult {
  std::vector<std::uint8_t> decisions;  // 1 = accepted, per position
  std::size_t accepted = 0;
  std::size_t rejected_ops = 0;  // ops rejected or skipped via dead txns
  double seconds = 0.0;
  double steady_allocs_per_op = 0.0;
  double steady_alloc_bytes_per_op = 0.0;
};

// Streams the schedule through `checker` with a deterministic rejection
// policy: a rejected transaction is marked dead and its remaining ops are
// skipped (no abort — the baseline has no abort path, and the
// pre-abort decisions are the ones proven bit-identical).
template <typename Checker>
FeedResult Feed(const Workload& wl, Checker& checker) {
  FeedResult result;
  const std::size_t n = wl.schedule.size();
  result.decisions.assign(n, 0);
  std::vector<std::uint8_t> dead(wl.txns.txn_count(), 0);
  const std::size_t half = n / 2;
  std::uint64_t half_allocs = 0;
  std::uint64_t half_bytes = 0;

  const auto start = std::chrono::steady_clock::now();
  for (std::size_t pos = 0; pos < n; ++pos) {
    if (pos == half) {
      half_allocs = g_alloc_count.load(std::memory_order_relaxed);
      half_bytes = g_alloc_bytes.load(std::memory_order_relaxed);
    }
    const Operation& op = wl.schedule.op(pos);
    if (dead[op.txn] != 0) {
      ++result.rejected_ops;
      continue;
    }
    if (checker.TryAppend(op)) {
      result.decisions[pos] = 1;
      ++result.accepted;
    } else {
      dead[op.txn] = 1;
      ++result.rejected_ops;
    }
  }
  const auto stop = std::chrono::steady_clock::now();
  result.seconds = std::chrono::duration<double>(stop - start).count();
  const double steady_ops = static_cast<double>(n - half);
  result.steady_allocs_per_op =
      static_cast<double>(g_alloc_count.load(std::memory_order_relaxed) -
                          half_allocs) /
      steady_ops;
  result.steady_alloc_bytes_per_op =
      static_cast<double>(g_alloc_bytes.load(std::memory_order_relaxed) -
                          half_bytes) /
      steady_ops;
  return result;
}

struct LatencyResult {
  double p50_ns = 0.0;
  double p99_ns = 0.0;
};

// Separate pass for latency percentiles so per-op clock reads do not
// pollute the throughput numbers.
template <typename Checker>
LatencyResult MeasureLatency(const Workload& wl, Checker& checker) {
  std::vector<std::uint64_t> samples;
  samples.reserve(wl.schedule.size());
  std::vector<std::uint8_t> dead(wl.txns.txn_count(), 0);
  for (std::size_t pos = 0; pos < wl.schedule.size(); ++pos) {
    const Operation& op = wl.schedule.op(pos);
    if (dead[op.txn] != 0) continue;
    const auto start = std::chrono::steady_clock::now();
    const bool accepted = static_cast<bool>(checker.TryAppend(op));
    const auto stop = std::chrono::steady_clock::now();
    samples.push_back(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(stop - start)
            .count()));
    if (!accepted) dead[op.txn] = 1;
  }
  LatencyResult result;
  if (samples.empty()) return result;
  const auto p50_at = samples.begin() +
                      static_cast<std::ptrdiff_t>(samples.size() / 2);
  std::nth_element(samples.begin(), p50_at, samples.end());
  result.p50_ns = static_cast<double>(*p50_at);
  const auto p99_at =
      samples.begin() +
      static_cast<std::ptrdiff_t>((samples.size() * 99) / 100);
  std::nth_element(samples.begin(),
                   p99_at == samples.end() ? samples.end() - 1 : p99_at,
                   samples.end());
  result.p99_ns = static_cast<double>(
      p99_at == samples.end() ? samples.back() : *p99_at);
  return result;
}

void EmitImpl(JsonWriter& json, const FeedResult& feed,
              const LatencyResult& latency, std::size_t ops,
              std::size_t arcs_submitted, std::size_t arcs_inserted) {
  json.BeginObject();
  json.Key("seconds");
  json.Double(feed.seconds);
  json.Key("ops_per_sec");
  json.Double(feed.seconds > 0.0 ? static_cast<double>(ops) / feed.seconds
                                 : 0.0);
  json.Key("accepted");
  json.Uint(feed.accepted);
  json.Key("rejected_ops");
  json.Uint(feed.rejected_ops);
  json.Key("arcs_submitted");
  json.Uint(arcs_submitted);
  json.Key("arcs_inserted");
  json.Uint(arcs_inserted);
  json.Key("steady_allocs_per_op");
  json.Double(feed.steady_allocs_per_op);
  json.Key("steady_alloc_bytes_per_op");
  json.Double(feed.steady_alloc_bytes_per_op);
  json.Key("p50_ns");
  json.Double(latency.p50_ns);
  json.Key("p99_ns");
  json.Double(latency.p99_ns);
  json.EndObject();
}

int Run(bool smoke) {
  std::setvbuf(stdout, nullptr, _IOLBF, 0);  // stream progress when piped
  const std::vector<std::size_t> sizes =
      smoke ? std::vector<std::size_t>{100, 1000}
            : std::vector<std::size_t>{100, 1000, 10000, 100000};
  // The baseline's ancestor fan-out is quadratic in schedule length; keep
  // it off the largest size so the bench finishes in reasonable time, and
  // skip its separate latency pass beyond 10^3 ops (it would double an
  // already minutes-long run; the throughput pass carries the speedup
  // comparison the trajectory tracks).
  const std::size_t baseline_cap = smoke ? 1000 : 10000;
  const std::size_t baseline_latency_cap = 1000;

  JsonWriter json;
  json.BeginObject();
  json.Key("bench");
  json.String("online_hotpath");
  json.Key("mode");
  json.String(smoke ? "smoke" : "full");
  json.Key("sizes");
  json.BeginArray();

  bool ok = true;
  double speedup_at_cap = 0.0;
  for (const std::size_t target : sizes) {
    const Workload wl = MakeWorkload(target, 0xB0B0 + target);
    const std::size_t ops = wl.schedule.size();
    std::printf("size %zu: %zu txns x %zu ops, %zu objects\n", target,
                wl.txn_count, wl.txn_length, wl.object_count);

    OnlineRsrChecker optimized(wl.txns, wl.spec);
    const FeedResult opt_feed = Feed(wl, optimized);
    OnlineRsrChecker optimized_lat(wl.txns, wl.spec);
    const LatencyResult opt_lat = MeasureLatency(wl, optimized_lat);
    std::printf("  optimized: %.3fs (%.0f ops/s), %zu accepted, "
                "%.3f allocs/op steady, p50 %.0fns p99 %.0fns\n",
                opt_feed.seconds,
                static_cast<double>(ops) / opt_feed.seconds,
                opt_feed.accepted, opt_feed.steady_allocs_per_op,
                opt_lat.p50_ns, opt_lat.p99_ns);

    json.BeginObject();
    json.Key("target_ops");
    json.Uint(target);
    json.Key("ops");
    json.Uint(ops);
    json.Key("txns");
    json.Uint(wl.txn_count);
    json.Key("txn_length");
    json.Uint(wl.txn_length);
    json.Key("objects");
    json.Uint(wl.object_count);
    json.Key("optimized");
    EmitImpl(json, opt_feed, opt_lat, ops, optimized.arcs_submitted(),
             optimized.arcs_inserted_total());

    json.Key("baseline");
    if (target <= baseline_cap) {
      OnlineRsrCheckerBaseline baseline(wl.txns, wl.spec);
      const FeedResult base_feed = Feed(wl, baseline);
      LatencyResult base_lat;
      if (target <= baseline_latency_cap) {
        OnlineRsrCheckerBaseline baseline_lat(wl.txns, wl.spec);
        base_lat = MeasureLatency(wl, baseline_lat);
      }
      EmitImpl(json, base_feed, base_lat, ops,
               baseline.topology().edge_count(),
               baseline.topology().edge_count());
      std::printf("  baseline:  %.3fs (%.0f ops/s), %zu accepted\n",
                  base_feed.seconds,
                  static_cast<double>(ops) / base_feed.seconds,
                  base_feed.accepted);
      if (base_feed.decisions != opt_feed.decisions) {
        std::fprintf(stderr,
                     "FAIL: decision mismatch between optimized and "
                     "baseline at size %zu\n",
                     target);
        ok = false;
      }
      const double speedup = opt_feed.seconds > 0.0
                                 ? base_feed.seconds / opt_feed.seconds
                                 : 0.0;
      std::printf("  speedup: %.2fx\n", speedup);
      if (target == baseline_cap) speedup_at_cap = speedup;
    } else {
      json.Null();
    }
    json.EndObject();
    if (target == sizes.back() &&
        opt_feed.steady_allocs_per_op > kMaxSteadyAllocsPerOp) {
      std::fprintf(stderr,
                   "FAIL: %.3f steady allocs/op at size %zu (gate %.2f)\n",
                   opt_feed.steady_allocs_per_op, target,
                   kMaxSteadyAllocsPerOp);
      ok = false;
    }
  }
  json.EndArray();
  json.Key("speedup_at_largest_common_size");
  json.Double(speedup_at_cap);
  json.Key("largest_common_size");
  json.Uint(baseline_cap);
  json.EndObject();

  if (!WriteBenchJsonFile("BENCH_online.json", json.str())) {
    std::fprintf(stderr, "FAIL: could not write BENCH_online.json\n");
    ok = false;
  } else {
    std::printf("wrote BENCH_online.json\n");
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace relser

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") {
      smoke = true;
    } else {
      std::fprintf(stderr, "unknown argument: %s\nusage: %s [--smoke]\n",
                   argv[i], argv[0]);
      return 2;
    }
  }
  return relser::Run(smoke);
}
