// Differential soundness sweep for the sharded admission subsystem
// (src/shard/): randomized multi-shard workloads driven by one client
// thread per transaction, at shard counts {1, 2, 4, 8}, with random
// specs, both router strategies and client aborts. A quarter of the
// rounds add the whole fault mix: a FaultPlan's client stalls, dropped
// submissions, scripted self-aborts and core pauses, deadlines, a tiny
// ring and load shedding. The gate is the subsystem's whole claim:
// every committed merged history must replay relatively serializably
// on ONE full OnlineRsrChecker over the original (unprojected)
// transactions and spec — per-shard acyclicity plus coordinator
// acyclicity must imply global acyclicity, no matter how the cores
// interleave.
//
// RELSER_SHARD_DIFF_ROUNDS overrides the round count (default 504, a
// multiple of the four shard counts); CI's TSan job runs fewer.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <latch>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/online.h"
#include "exec/backoff.h"
#include "exec/faultplan.h"
#include "obs/trace.h"
#include "shard/router.h"
#include "shard/sharded_admitter.h"
#include "util/rng.h"
#include "workload/shard_gen.h"
#include "workload/spec_gen.h"

namespace relser {
namespace {

std::size_t RoundsFromEnv() {
  if (const char* env = std::getenv("RELSER_SHARD_DIFF_ROUNDS")) {
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed > 0) return static_cast<std::size_t>(parsed);
  }
  return 504;
}

TEST(ShardedDifferential, CommittedHistoriesReplayOnTheFullChecker) {
  const std::size_t rounds = RoundsFromEnv();
  constexpr std::size_t kShardCounts[] = {1, 2, 4, 8};
  const Rng base(0x5AD1FF);
  std::size_t committed_txns = 0;
  std::size_t aborted_txns = 0;
  std::uint64_t coordinator_rejects = 0;
  std::uint64_t sheds = 0;
  std::atomic<std::uint64_t> plan_drops{0};
  for (std::size_t round = 0; round < rounds; ++round) {
    Rng rng = base.Split(round);
    const std::size_t shard_count = kShardCounts[round % 4];
    ShardedWorkloadParams wp;
    wp.txn_count = 4 + rng.UniformIndex(8);
    wp.min_ops_per_txn = 1;
    wp.max_ops_per_txn = 5;
    wp.shard_count = shard_count;
    wp.objects_per_shard = 2 + rng.UniformIndex(3);  // dense: real conflicts
    wp.cross_shard_ratio = rng.UniformDouble() * 0.6;
    wp.zipf_theta = rng.UniformDouble();
    wp.read_ratio = 0.3 + 0.4 * rng.UniformDouble();
    const TransactionSet txns = GenerateShardedTransactions(wp, &rng);
    const AtomicitySpec spec = RandomSpec(txns, rng.UniformDouble(), &rng);
    const ShardRouter router(txns.object_count(), shard_count,
                             rng.Bernoulli(0.5) ? ShardStrategy::kRange
                                                : ShardStrategy::kHash);

    // A quarter of the rounds, every fourth block of four so that each
    // shard count gets them, also run the fault mix: deterministic core
    // pauses shake the cross-core control-channel and kill-race paths;
    // client stalls, drops and self-aborts follow the plan; a tiny ring
    // forces backpressure retries and a low high-water mark sheds.
    const bool fault_round = round / 4 % 4 == 3;
    FaultPlanParams fp;
    fp.stall_prob = 0.2;
    fp.drop_prob = 0.05;
    fp.abort_prob = 0.1;
    fp.core_pause_prob = 0.3;
    fp.max_stall_us = 40;
    fp.max_core_pause_us = 40;
    const FaultPlan faults(rng.Next(), fp);
    Tracer tracer(TraceLevel::kCounters);
    ShardedAdmitterOptions options;
    options.queue_capacity = 16;  // small rings: exercise backpressure
    if (fault_round) {
      options.tracer = &tracer;
      options.faults = &faults;
      options.queue_capacity = 2;
      options.shed_high_water = 2;
    }
    ShardedAdmitter admitter(txns, spec, router, options);

    // One client thread per transaction, program order, blocking
    // submissions — the admitter's feeding contract. Some transactions
    // give up voluntarily mid-stream (client abort): by a coin flip, or
    // in fault rounds where the plan scripts it or drops a submission.
    // Fault rounds also stall clients and give every third transaction
    // a deadline.
    const double abort_prob = rng.UniformDouble() * 0.2;
    std::vector<std::uint64_t> seeds(txns.txn_count());
    for (auto& seed : seeds) seed = rng.Next();
    // Fault-round clients start together, so that enough transactions
    // are live at once for shedding to fire even where thread start-up
    // is slow (sanitizer builds).
    std::latch start(static_cast<std::ptrdiff_t>(txns.txn_count()));
    std::vector<std::thread> clients;
    clients.reserve(txns.txn_count());
    for (TxnId t = 0; t < txns.txn_count(); ++t) {
      clients.emplace_back([&, t] {
        if (fault_round) start.arrive_and_wait();
        Rng local(seeds[t]);
        Backoff backoff(seeds[t] ^ 0xB0FF);
        const auto size = static_cast<std::uint32_t>(txns.txn(t).size());
        const std::optional<std::uint32_t> abort_after =
            faults.AbortAfter(t, size);
        const std::chrono::microseconds deadline =
            fault_round && t % 3 == 0 ? std::chrono::microseconds(2000)
                                      : std::chrono::microseconds::zero();
        for (std::uint32_t i = 0; i < size; ++i) {
          const OpFault fault =
              fault_round ? faults.ForOp(t, i) : OpFault{};
          const bool abort_now =
              fault_round ? fault.drop || abort_after == i
                          : i > 0 && local.Bernoulli(abort_prob);
          if (abort_now) {
            if (fault.drop) plan_drops.fetch_add(1);
            admitter.AbortTxn(t);
            return;
          }
          std::this_thread::sleep_for(
              std::chrono::microseconds(fault.stall_us));
          if (!admitter.SubmitWithBackoff(txns.txn(t).op(i), backoff,
                                          deadline)
                   .ok()) {
            return;
          }
        }
      });
    }
    for (std::thread& client : clients) client.join();
    admitter.Stop();

    // The gate: the merged committed history, in global admission
    // order, replays clean through a full single checker over the
    // ORIGINAL transactions and spec.
    OnlineRsrChecker replay(txns, spec);
    const std::vector<Operation> log = admitter.CommittedLog();
    std::vector<std::uint32_t> fed(txns.txn_count(), 0);
    for (std::size_t pos = 0; pos < log.size(); ++pos) {
      ASSERT_TRUE(replay.TryAppend(log[pos]).ok())
          << "round " << round << " (" << shard_count << " shards): "
          << "committed history not relatively serializable at position "
          << pos;
      ASSERT_EQ(log[pos].index, fed[log[pos].txn]++)
          << "round " << round << ": committed log out of program order";
    }
    // Committed transactions appear in full; everything else not at all.
    for (TxnId t = 0; t < txns.txn_count(); ++t) {
      if (admitter.TxnCommitted(t)) {
        ASSERT_EQ(fed[t], txns.txn(t).size()) << "round " << round;
        ++committed_txns;
      } else {
        ASSERT_EQ(fed[t], 0u) << "round " << round;
        if (admitter.TxnVerdict(t).outcome == AdmitOutcome::kAborted) {
          ++aborted_txns;
        }
      }
    }
    coordinator_rejects += admitter.coordinator().rejects();
    sheds += tracer.counters().sheds;
  }

  // Planted round: T1 = w1[a] w1[b] and T2 = w2[b] w2[a] span the two
  // range shards in opposite order. Fed w1[a] w2[b] w1[b] w2[a] from one
  // thread, each shard sees one arc (shard 1: T2 -> T1, shard 0:
  // T1 -> T2), so only the coordinator can see the cycle, and it must
  // reject w2[a]. This keeps the coverage check below independent of
  // how the random rounds' threads happen to interleave.
  {
    TransactionSet txns;
    const ObjectId a = txns.InternObject("a");
    const ObjectId b = txns.InternObject("b");
    Transaction* t1 = txns.AddTransaction();
    t1->Write(a);
    t1->Write(b);
    Transaction* t2 = txns.AddTransaction();
    t2->Write(b);
    t2->Write(a);
    const AtomicitySpec spec(txns);
    const ShardRouter router(txns.object_count(), 2, ShardStrategy::kRange);
    ShardedAdmitter admitter(txns, spec, router, ShardedAdmitterOptions{});
    Backoff backoff(0xB0FF);
    EXPECT_TRUE(admitter.SubmitWithBackoff(txns.txn(0).op(0), backoff).ok());
    EXPECT_TRUE(admitter.SubmitWithBackoff(txns.txn(1).op(0), backoff).ok());
    EXPECT_TRUE(admitter.SubmitWithBackoff(txns.txn(0).op(1), backoff).ok());
    EXPECT_FALSE(admitter.SubmitWithBackoff(txns.txn(1).op(1), backoff).ok());
    admitter.Stop();
    OnlineRsrChecker replay(txns, spec);
    for (const Operation& op : admitter.CommittedLog()) {
      ASSERT_TRUE(replay.TryAppend(op).ok()) << "planted round";
    }
    coordinator_rejects += admitter.coordinator().rejects();
  }

  // The sweep must exercise the interesting regimes to mean anything.
  EXPECT_GT(committed_txns, rounds) << "commits should dominate";
  EXPECT_GT(aborted_txns, 0u);
  EXPECT_GT(coordinator_rejects, 0u)
      << "the sweep never hit a cross-shard transaction-level cycle";
  EXPECT_GT(sheds, 0u) << "the fault rounds never shed a transaction";
  EXPECT_GT(plan_drops.load(), 0u) << "the fault plan never dropped an op";
}

}  // namespace
}  // namespace relser
