// Tests for the admission front-end in its single-core configuration
// (ShardedAdmitter over one shard, shard/sharded_admitter.h): multi-
// client stress with soundness replay, decision parity against the
// serial policy oracle (tests/serial_oracle.h; including the abort-and-
// cascade-on-reject policy), TxnVerdict semantics, and the
// TryAppendIsolated fast path.
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/online.h"
#include "exec/backoff.h"
#include "model/schedule.h"
#include "model/text.h"
#include "serial_oracle.h"
#include "shard/sharded_admitter.h"
#include "spec/builders.h"
#include "util/rng.h"
#include "workload/generator.h"
#include "workload/spec_gen.h"

namespace relser {
namespace {

TEST(AdmitterTest, SingleClientMatchesSerialFeed) {
  Rng rng(0xADA1);
  WorkloadParams wp;
  wp.txn_count = 8;
  wp.min_ops_per_txn = 3;
  wp.max_ops_per_txn = 6;
  wp.object_count = 3;  // small: force conflicts and rejections
  wp.read_ratio = 0.4;
  const TransactionSet txns = GenerateTransactions(wp, &rng);
  const AtomicitySpec spec = AbsoluteSpec(txns);
  const std::vector<Operation> feed = RoundRobinFeed(txns);
  const std::vector<bool> expected = SerialDecisions(txns, spec, feed);

  ShardedAdmitter admitter(txns, spec, SingleShard(txns));
  std::vector<bool> got;
  got.reserve(feed.size());
  for (const Operation& op : feed) {
    got.push_back(admitter.SubmitAndWait(op).ok());
  }
  admitter.Stop();

  ASSERT_EQ(got.size(), expected.size());
  std::size_t rejected = 0;
  for (std::size_t i = 0; i < feed.size(); ++i) {
    EXPECT_EQ(got[i], expected[i]) << "op " << i;
    rejected += got[i] ? 0u : 1u;
    ASSERT_TRUE(admitter.OpOutcome(feed[i]).has_value());
    EXPECT_EQ(*admitter.OpOutcome(feed[i]) == AdmitOutcome::kAccept, got[i]);
  }
  EXPECT_GT(rejected, 0u) << "workload too easy to exercise rejection";
  EXPECT_EQ(admitter.accepted() + admitter.rejected(), feed.size());
}

TEST(AdmitterTest, EightClientStressIsSoundUnderReplay) {
  Rng rng(0xADA2);
  WorkloadParams wp;
  wp.txn_count = 64;
  wp.min_ops_per_txn = 3;
  wp.max_ops_per_txn = 8;
  wp.object_count = 16;
  wp.read_ratio = 0.5;
  const TransactionSet txns = GenerateTransactions(wp, &rng);
  const AtomicitySpec spec = RandomSpec(txns, 0.5, &rng);

  ShardedAdmitterOptions options;
  options.queue_capacity = 64;  // small ring: exercise back-pressure
  options.max_batch = 8;
  ShardedAdmitter admitter(txns, spec, SingleShard(txns), options);

  constexpr std::size_t kClients = 8;
  std::vector<std::uint8_t> committed(txns.txn_count(), 0);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Backoff backoff(0xB0FF0000ULL + c);
      for (TxnId t = static_cast<TxnId>(c); t < txns.txn_count();
           t = static_cast<TxnId>(t + kClients)) {
        for (std::uint32_t i = 0; i < txns.txn(t).size(); ++i) {
          if (!admitter.SubmitWithBackoff(txns.txn(t).op(i), backoff)) {
            break;  // transaction dead; stop submitting
          }
        }
        committed[t] = admitter.TxnVerdict(t) ? 1 : 0;
      }
    });
  }
  for (std::thread& client : clients) client.join();
  admitter.Stop();

  // Everything that survived in the checker (committed and live work;
  // aborted transactions were withdrawn) must re-admit through a fresh
  // serial checker in admission order, and so must the committed
  // prefix on its own — the soundness gate the fault bench hard-fails.
  OnlineRsrChecker replay(txns, spec);
  for (const std::size_t gid : admitter.shard_checker(0).feed_log()) {
    ASSERT_TRUE(replay.TryAppend(txns.OpByGlobalId(gid)))
        << "surviving op gid " << gid << " is not serially admissible";
  }
  OnlineRsrChecker committed_replay(txns, spec);
  const std::vector<Operation> committed_log = admitter.CommittedLog();
  for (std::size_t i = 0; i < committed_log.size(); ++i) {
    ASSERT_TRUE(committed_replay.TryAppend(committed_log[i]))
        << "committed op " << i << " is not serially admissible";
  }

  // Admission respects program order, so the full admitted log (which
  // also keeps operations of since-aborted transactions) has each
  // transaction's indices consecutive from 0.
  std::vector<std::uint32_t> admitted_ops(txns.txn_count(), 0);
  for (const Operation& op : admitter.AdmittedLog()) {
    EXPECT_EQ(op.index, admitted_ops[op.txn]) << "gap in admitted prefix";
    ++admitted_ops[op.txn];
  }
  for (TxnId t = 0; t < txns.txn_count(); ++t) {
    if (committed[t] != 0) {
      EXPECT_TRUE(admitter.TxnCommitted(t)) << "txn " << t;
      EXPECT_EQ(admitted_ops[t], txns.txn(t).size()) << "txn " << t;
    }
  }
}

TEST(AdmitterTest, TxnVerdictReportsRejectedTransactions) {
  // The paper's sandwich: T2 runs entirely inside T1, touching both of
  // T1's objects; under absolute atomicity the final r1[y] must reject.
  auto txns = ParseTransactionSet("T1 = w1[x] r1[y]\nT2 = r2[x] w2[y]\n");
  const AtomicitySpec spec = AbsoluteSpec(*txns);

  ShardedAdmitter admitter(*txns, spec, SingleShard(*txns));
  EXPECT_TRUE(admitter.SubmitAndWait(txns->txn(0).op(0)));  // w1[x]
  EXPECT_TRUE(admitter.SubmitAndWait(txns->txn(1).op(0)));  // r2[x]
  EXPECT_TRUE(admitter.SubmitAndWait(txns->txn(1).op(1)));  // w2[y]
  // r1[y] closes the sandwich cycle under absolute atomicity: reject.
  const AdmitResult rejected = admitter.SubmitAndWait(txns->txn(0).op(1));
  EXPECT_EQ(rejected, AdmitOutcome::kReject);
  EXPECT_EQ(admitter.TxnVerdict(0), AdmitOutcome::kAborted);
  EXPECT_TRUE(admitter.TxnVerdict(1));
  admitter.Stop();
  EXPECT_EQ(admitter.rejected(), 1u);
  // T1's rejection aborted it and withdrew w1[x] exactly; T2 survives
  // whole. T2's r2[x] had read T1's uncommitted write, but T2 committed
  // before the abort — an unrecoverable read, counted not cascaded.
  EXPECT_EQ(admitter.shard_checker(0).executed_count(), 2u);
  EXPECT_TRUE(admitter.TxnCommitted(1));
  EXPECT_EQ(admitter.unrecoverable_reads(), 1u);
}

TEST(AdmitterTest, FastPathDecisionsMatchSlowPath) {
  // Sparse workload where most traffic qualifies for TryAppendIsolated:
  // the admitter's decisions must still match the slow-path-only serial
  // reference exactly (the fast path is a shortcut, not a relaxation).
  Rng rng(0xADA4);
  WorkloadParams wp;
  wp.txn_count = 12;
  wp.min_ops_per_txn = 2;
  wp.max_ops_per_txn = 6;
  wp.object_count = 48;
  wp.read_ratio = 0.6;
  const TransactionSet txns = GenerateTransactions(wp, &rng);
  const AtomicitySpec spec = RandomSpec(txns, 0.5, &rng);
  const std::vector<Operation> feed = RoundRobinFeed(txns);
  const std::vector<bool> expected = SerialDecisions(txns, spec, feed);

  ShardedAdmitter admitter(txns, spec, SingleShard(txns));
  std::vector<bool> got;
  got.reserve(feed.size());
  for (const Operation& op : feed) {
    got.push_back(admitter.SubmitAndWait(op).ok());
  }
  admitter.Stop();

  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < feed.size(); ++i) {
    EXPECT_EQ(got[i], expected[i]) << "op " << i;
  }
  EXPECT_GT(admitter.shard_stats(0).fast_path, 0u)
      << "sparse workload should exercise TryAppendIsolated";
}

}  // namespace
}  // namespace relser
