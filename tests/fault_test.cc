// Fault-tolerance tests: the exact abort path (RemoveTransactionExact
// differentially against rebuilt-from-scratch checkers, 500+ seeded
// rounds), the admitter's abort/cascade/shed/timeout machinery (on the
// single-core configuration, plus shedding and kill liveness across two
// shards), and
// FaultPlan determinism (pure queries — identical at any pool size).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <numeric>
#include <optional>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/online.h"
#include "core/online_baseline.h"
#include "epoch/epoch.h"
#include "exec/faultplan.h"
#include "model/schedule.h"
#include "model/text.h"
#include "obs/trace.h"
#include "serial_oracle.h"
#include "shard/router.h"
#include "shard/sharded_admitter.h"
#include "spec/builders.h"
#include "util/rng.h"
#include "workload/generator.h"
#include "workload/spec_gen.h"

namespace relser {
namespace {

// Feeds the checker's surviving feed into a brand-new checker — the
// ground truth RemoveTransactionExact claims bit-identity with.
std::unique_ptr<OnlineRsrChecker> Rebuilt(const TransactionSet& txns,
                                          const AtomicitySpec& spec,
                                          const OnlineRsrChecker& checker) {
  auto rebuilt = std::make_unique<OnlineRsrChecker>(txns, spec);
  for (const std::size_t gid : checker.feed_log()) {
    EXPECT_TRUE(rebuilt->TryAppend(txns.OpByGlobalId(gid)).ok())
        << "surviving feed must replay cleanly";
  }
  return rebuilt;
}

std::uint64_t RebuiltDigest(const TransactionSet& txns,
                            const AtomicitySpec& spec,
                            const OnlineRsrChecker& checker) {
  return Rebuilt(txns, spec, checker)->StateDigest();
}

// After an abort, a rebuilt checker ("shadow") is fed every later
// operation alongside the real one until the next abort: both must
// decide alike, and a rejection must name the same witnessing arc.
class ShadowChecker {
 public:
  ShadowChecker(const TransactionSet& txns, const AtomicitySpec& spec)
      : txns_(txns), spec_(spec) {}

  // Rebuilds the shadow from `checker`'s survivors; the maintained
  // topological orders must already agree.
  void Reset(const OnlineRsrChecker& checker, int round) {
    shadow_ = Rebuilt(txns_, spec_, checker);
    EXPECT_EQ(checker.topology().Order(), shadow_->topology().Order())
        << "round " << round;
  }

  // Mirrors one TryAppend whose result on the real checker was `real`.
  void Mirror(const Operation& op, const AdmitResult& real, int round) {
    if (shadow_ == nullptr) return;
    const AdmitResult mirrored = shadow_->TryAppend(op);
    ASSERT_EQ(real.ok(), mirrored.ok()) << "round " << round;
    if (real.ok()) return;
    EXPECT_EQ(real.witness_arc.from, mirrored.witness_arc.from)
        << "round " << round;
    EXPECT_EQ(real.witness_arc.to, mirrored.witness_arc.to)
        << "round " << round;
    EXPECT_EQ(real.witness_arc.arc_kinds, mirrored.witness_arc.arc_kinds)
        << "round " << round;
  }

 private:
  const TransactionSet& txns_;
  const AtomicitySpec& spec_;
  std::unique_ptr<OnlineRsrChecker> shadow_;
};

// The paper's Section 5 shape: one audit transaction read-modify-writes
// `steps` objects with a unit boundary after every step (relative to
// every other transaction), plus short 2-4-op transfers.
struct AuditWorkload {
  TransactionSet txns;
  AtomicitySpec spec;
};

std::unique_ptr<AuditWorkload> MakeAuditWorkload(Rng* rng) {
  auto w = std::make_unique<AuditWorkload>();
  const std::size_t objects = 6 + rng->UniformIndex(8);
  const std::size_t steps = 3 + rng->UniformIndex(5);
  const std::size_t transfers = 10 + rng->UniformIndex(14);
  w->txns.AddObjects(objects);
  Transaction* audit = w->txns.AddTransaction();
  for (std::size_t k = 0; k < steps; ++k) {
    audit->Read(static_cast<ObjectId>(k % objects));
    audit->Write(static_cast<ObjectId>(k % objects));
  }
  for (std::size_t s = 0; s < transfers; ++s) {
    Transaction* txn = w->txns.AddTransaction();
    const auto a = static_cast<ObjectId>(rng->UniformIndex(objects));
    const auto b = static_cast<ObjectId>(
        (a + 1 + rng->UniformIndex(objects - 1)) % objects);
    const std::size_t ops = 2 + rng->UniformIndex(3);
    for (std::size_t k = 0; k < ops; ++k) {
      const ObjectId object = k < ops / 2 ? a : b;
      if (rng->Bernoulli(0.5)) {
        txn->Read(object);
      } else {
        txn->Write(object);
      }
    }
  }
  w->spec = AtomicitySpec(w->txns);
  for (TxnId j = 1; j < w->txns.txn_count(); ++j) {
    for (std::uint32_t g = 1; g + 1 < 2 * steps; g += 2) {
      w->spec.SetBreakpoint(0, j, g);
    }
  }
  return w;
}

// 520 seeded rounds: random workload, random spec, random feed with
// interleaved random exact aborts. After every abort the checker's
// digest and topological order must equal a from-scratch checker fed the
// survivors — the no-accumulated-conservatism guarantee the admitter's
// cascade machinery relies on — and every later decision up to the next
// abort (the next rejection's witness included) must match that
// checker's. Then 60 rounds of the Section 5 shape fed through a window
// of open transactions, where most aborts roll the journal back and
// aborts of complete transactions older than the journal take the
// full-replay fallback; both paths must run.
TEST(FaultTest, ExactAbortIsBitIdenticalToRebuild) {
  constexpr int kRounds = 520;
  Rng base(0xFA017);
  for (int round = 0; round < kRounds; ++round) {
    Rng rng = base.Split(static_cast<std::uint64_t>(round));
    WorkloadParams wp;
    wp.txn_count = 2 + rng.UniformIndex(6);
    wp.min_ops_per_txn = 1;
    wp.max_ops_per_txn = 5;
    wp.object_count = 2 + rng.UniformIndex(4);  // dense: real conflicts
    wp.read_ratio = 0.5;
    const TransactionSet txns = GenerateTransactions(wp, &rng);
    const AtomicitySpec spec = RandomSpec(txns, 0.5, &rng);
    OnlineRsrChecker checker(txns, spec);
    ShadowChecker shadow(txns, spec);

    std::vector<std::uint32_t> next_op(txns.txn_count(), 0);
    std::vector<std::uint8_t> dead(txns.txn_count(), 0);
    std::size_t steps = txns.total_ops() + 4;
    std::size_t aborts_done = 0;
    while (steps-- > 0) {
      // Mostly feed; sometimes abort a transaction that has executed ops.
      if (rng.Bernoulli(0.15)) {
        std::vector<TxnId> candidates;
        for (TxnId t = 0; t < txns.txn_count(); ++t) {
          if (dead[t] == 0 && checker.TxnHasExecuted(t)) {
            candidates.push_back(t);
          }
        }
        if (!candidates.empty()) {
          const TxnId victim = rng.Choice(candidates);
          checker.RemoveTransactionExact(victim);
          dead[victim] = 1;
          ++aborts_done;
          ASSERT_EQ(checker.StateDigest(), RebuiltDigest(txns, spec, checker))
              << "round " << round << " after aborting T" << victim;
          shadow.Reset(checker, round);
          continue;
        }
      }
      std::vector<TxnId> feedable;
      for (TxnId t = 0; t < txns.txn_count(); ++t) {
        if (dead[t] == 0 && next_op[t] < txns.txn(t).size()) {
          feedable.push_back(t);
        }
      }
      if (feedable.empty()) break;
      const TxnId t = rng.Choice(feedable);
      const Operation& op = txns.txn(t).op(next_op[t]);
      const AdmitResult result = checker.TryAppend(op);
      shadow.Mirror(op, result, round);
      if (result.ok()) {
        ++next_op[t];
      } else {
        // Mirror the admitter: a certification rejection aborts the
        // transaction (exact removal) — and must also digest-match.
        if (checker.TxnHasExecuted(t)) {
          checker.RemoveTransactionExact(t);
          ++aborts_done;
          ASSERT_EQ(checker.StateDigest(), RebuiltDigest(txns, spec, checker))
              << "round " << round << " after reject-abort of T" << t;
          shadow.Reset(checker, round);
        }
        dead[t] = 1;
      }
    }
    if (round == 0) {
      EXPECT_GT(aborts_done, 0u) << "first round should exercise aborts";
    }
  }

  constexpr int kAuditRounds = 60;
  const Rng audit_base(0x5EC5);
  std::uint64_t rollbacks = 0;
  std::uint64_t full_replays = 0;
  for (int round = 0; round < kAuditRounds; ++round) {
    Rng rng = audit_base.Split(static_cast<std::uint64_t>(round));
    const std::unique_ptr<AuditWorkload> w = MakeAuditWorkload(&rng);
    const TransactionSet& txns = w->txns;
    const AtomicitySpec& spec = w->spec;
    OnlineRsrChecker checker(txns, spec);
    Tracer tracer(TraceLevel::kCounters);
    checker.set_tracer(&tracer);
    ShadowChecker shadow(txns, spec);
    const auto abort = [&](TxnId victim) {
      const std::uint64_t full_before = tracer.counters().abort_full_replays;
      checker.RemoveTransactionExact(victim);
      ++(tracer.counters().abort_full_replays > full_before ? full_replays
                                                            : rollbacks);
      ASSERT_EQ(checker.StateDigest(), RebuiltDigest(txns, spec, checker))
          << "audit round " << round << " after aborting T" << victim;
      shadow.Reset(checker, round);
    };

    // Open transactions in order, the audit entering the window after a
    // few transfers; the front of the window submits one op at a time.
    std::vector<TxnId> arrival;
    for (TxnId t = 1; t < txns.txn_count(); ++t) arrival.push_back(t);
    arrival.insert(arrival.begin() + static_cast<std::ptrdiff_t>(
                                         rng.UniformIndex(5)),
                   0);
    const std::size_t window = 3 + rng.UniformIndex(4);
    std::vector<std::uint32_t> next_op(txns.txn_count(), 0);
    std::vector<std::uint8_t> dead(txns.txn_count(), 0);
    std::deque<TxnId> open;
    std::size_t arrived = 0;
    while (true) {
      while (open.size() < window && arrived < arrival.size()) {
        open.push_back(arrival[arrived++]);
      }
      if (open.empty()) break;
      if (rng.Bernoulli(0.08)) {
        // Any transaction with executed ops may be the victim, complete
        // ones included.
        std::vector<TxnId> candidates;
        for (TxnId t = 0; t < txns.txn_count(); ++t) {
          if (dead[t] == 0 && checker.TxnHasExecuted(t)) {
            candidates.push_back(t);
          }
        }
        if (!candidates.empty()) {
          const TxnId victim = rng.Choice(candidates);
          abort(victim);
          dead[victim] = 1;
          std::erase(open, victim);
          continue;
        }
      }
      const TxnId t = open.front();
      open.pop_front();
      const Operation& op = txns.txn(t).op(next_op[t]);
      const AdmitResult result = checker.TryAppend(op);
      shadow.Mirror(op, result, round);
      if (result.ok()) {
        if (++next_op[t] < txns.txn(t).size()) open.push_back(t);
      } else {
        if (checker.TxnHasExecuted(t)) abort(t);
        dead[t] = 1;
      }
    }
  }
  EXPECT_GT(rollbacks, 0u) << "the journal rollback path never ran";
  EXPECT_GT(full_replays, 0u) << "the full-replay fallback never ran";
}

// 1,200 transactions in 60 groups of 20 whose ids are scattered over the
// whole range; a group's transactions share 4 objects and arrive
// together. An operation's ancestors are therefore group members with
// non-adjacent ids across many 64-id words, so its sparse ancestor row
// is far from contiguous. On a feed without aborts every decision must
// equal the Definition 3 baseline's. Then open transactions are aborted:
// each rollback undoes appends that released ancestor rows (the
// released entries come back from the journal), and the restored digest
// and topological order must equal a rebuilt checker's, as must every
// later decision.
TEST(FaultTest, WideSparseRowsMatchBaselineAndRebuild) {
  constexpr std::size_t kTxns = 1200;
  constexpr std::size_t kGroupSize = 20;
  constexpr std::size_t kGroupObjects = 4;
  Rng rng(0x5A45E);
  std::vector<TxnId> arrival(kTxns);
  std::iota(arrival.begin(), arrival.end(), TxnId{0});
  std::shuffle(arrival.begin(), arrival.end(), rng);
  std::vector<std::size_t> group_of(kTxns);
  for (std::size_t k = 0; k < kTxns; ++k) group_of[arrival[k]] = k / kGroupSize;
  TransactionSet txns;
  txns.AddObjects(kTxns / kGroupSize * kGroupObjects);
  for (TxnId t = 0; t < kTxns; ++t) {
    Transaction* txn = txns.AddTransaction();
    const std::size_t ops = 2 + rng.UniformIndex(2);
    for (std::size_t k = 0; k < ops; ++k) {
      const auto object = static_cast<ObjectId>(
          group_of[t] * kGroupObjects + rng.UniformIndex(kGroupObjects));
      if (rng.Bernoulli(0.5)) {
        txn->Read(object);
      } else {
        txn->Write(object);
      }
    }
  }
  const AtomicitySpec spec = RandomSpec(txns, 0.5, &rng);
  OnlineRsrChecker checker(txns, spec);
  OnlineRsrCheckerBaseline baseline(txns, spec);
  Tracer tracer(TraceLevel::kCounters);
  checker.set_tracer(&tracer);

  constexpr std::size_t kWindow = 8;
  std::vector<std::uint32_t> next_op(kTxns, 0);
  std::deque<TxnId> open;
  std::size_t arrived = 0;
  std::vector<TxnId> incomplete;  // rejected, then open at the end
  while (arrived < arrival.size()) {
    while (open.size() < kWindow && arrived < arrival.size()) {
      open.push_back(arrival[arrived++]);
    }
    const TxnId t = open.front();
    open.pop_front();
    const Operation& op = txns.txn(t).op(next_op[t]);
    const bool accepted = checker.TryAppend(op).ok();
    ASSERT_EQ(accepted, baseline.TryAppend(op))
        << "T" << t + 1 << " op " << op.index;
    if (!accepted) {
      incomplete.push_back(t);  // dropped, never completes
    } else if (++next_op[t] < txns.txn(t).size()) {
      open.push_back(t);
    }
  }
  EXPECT_GT(incomplete.size(), 10u);

  // Victims: incomplete transactions with a write that is still its
  // object's frontier writer. That write released the rows of the
  // object's earlier frontier; without it those operations stay on the
  // frontier, so the rows the rollback restores stay in the state the
  // digest covers. The newest six, so no rollback spans most of the feed.
  incomplete.insert(incomplete.end(), open.begin(), open.end());
  std::vector<TxnId> victims;
  for (auto it = incomplete.rbegin();
       it != incomplete.rend() && victims.size() < 6; ++it) {
    for (std::uint32_t k = 0; k < next_op[*it]; ++k) {
      const Operation& op = txns.txn(*it).op(k);
      if (op.is_write() && checker.FrontierWriterGid(op.object) ==
                               checker.indexer().GlobalId(op)) {
        victims.push_back(*it);
        break;
      }
    }
  }
  ASSERT_EQ(victims.size(), 6u);
  ShadowChecker shadow(txns, spec);
  for (const TxnId victim : victims) {
    checker.RemoveTransactionExact(victim);
    std::erase(open, victim);
    ASSERT_EQ(checker.StateDigest(), RebuiltDigest(txns, spec, checker))
        << "after aborting T" << victim + 1;
    shadow.Reset(checker, 0);
  }
  EXPECT_GT(tracer.counters().abort_replayed_ops, 0u);
  EXPECT_EQ(tracer.counters().abort_full_replays, 0u)
      << "every abort should roll the journal back";
  // Finish the survivors; the rebuilt shadow must decide alike.
  while (!open.empty()) {
    const TxnId t = open.front();
    open.pop_front();
    const Operation& op = txns.txn(t).op(next_op[t]);
    const AdmitResult result = checker.TryAppend(op);
    shadow.Mirror(op, result, 0);
    if (result.ok() && ++next_op[t] < txns.txn(t).size()) open.push_back(t);
  }
}

// A voluntary abort must cascade to live transactions that read the
// aborted writer's data, but never to committed ones.
// Checkpoint truncation, driven the way the admitter drives it: feed a
// random schedule (a rejected transaction is withdrawn at once), report
// every conflict pair and finish to an EpochManager, and at a random
// cut truncate the settled transactions — a predecessor-closed set of
// finished ones. The truncated checker must then equal a fresh checker
// fed only the survivors (StateDigest and topological order), and over
// the rest of the schedule, with one exact abort of a live transaction
// right after the truncation, it must decide exactly as the checker
// that kept the whole history, witnesses included.
TEST(FaultTest, TruncateMatchesSurvivorRebuildAndUntruncatedFuture) {
  constexpr int kRounds = 400;
  Rng base(0x7A0C);
  int truncated_rounds = 0;
  int aborted_after = 0;
  for (int round = 0; round < kRounds; ++round) {
    Rng rng = base.Split(static_cast<std::uint64_t>(round));
    WorkloadParams wp;
    wp.txn_count = 4 + rng.UniformIndex(10);
    wp.min_ops_per_txn = 1;
    wp.max_ops_per_txn = 5;
    wp.object_count = 2 + rng.UniformIndex(5);
    wp.read_ratio = 0.5;
    const TransactionSet txns = GenerateTransactions(wp, &rng);
    const AtomicitySpec spec = RandomSpec(txns, rng.UniformDouble(), &rng);
    std::vector<TxnId> schedule;  // one entry per op, program order
    for (TxnId t = 0; t < txns.txn_count(); ++t) {
      schedule.insert(schedule.end(), txns.txn(t).size(), t);
    }
    for (std::size_t i = schedule.size(); i > 1; --i) {
      std::swap(schedule[i - 1], schedule[rng.UniformIndex(i)]);
    }
    const std::size_t cut = rng.UniformIndex(schedule.size() + 1);

    OnlineRsrChecker truncated(txns, spec);
    OnlineRsrChecker full(txns, spec);
    EpochManager epochs(txns.txn_count(), /*gc_interval=*/0);
    std::vector<std::uint32_t> next(txns.txn_count(), 0);
    std::vector<std::uint8_t> dead(txns.txn_count(), 0);
    std::vector<Operation> executed;  // every accepted op, for conflicts
    const auto abort_both = [&](TxnId txn) {
      truncated.RemoveTransactionExact(txn);
      full.RemoveTransactionExact(txn);
      dead[txn] = 1;
      epochs.NoteFinish(txn);
    };
    for (std::size_t pos = 0; pos < schedule.size(); ++pos) {
      if (pos == cut) {
        epochs.Sweep();
        const std::size_t dropped = truncated.Truncate(epochs.settled_view());
        std::vector<std::size_t> survivors;
        for (const std::size_t gid : full.feed_log()) {
          if (!epochs.Settled(txns.OpByGlobalId(gid).txn)) {
            survivors.push_back(gid);
          }
        }
        ASSERT_EQ(truncated.feed_log(), survivors) << "round " << round;
        ASSERT_EQ(dropped, full.feed_log().size() - survivors.size());
        const auto rebuilt = Rebuilt(txns, spec, truncated);
        ASSERT_EQ(truncated.StateDigest(), rebuilt->StateDigest())
            << "round " << round;
        ASSERT_EQ(truncated.topology().Order(), rebuilt->topology().Order())
            << "round " << round;
        if (dropped > 0) ++truncated_rounds;
        std::vector<TxnId> live;
        for (TxnId t = 0; t < txns.txn_count(); ++t) {
          if (dead[t] == 0 && truncated.TxnHasExecuted(t) &&
              next[t] < txns.txn(t).size()) {
            live.push_back(t);
          }
        }
        if (dropped > 0 && !live.empty()) {
          abort_both(rng.Choice(live));
          ++aborted_after;
          ASSERT_EQ(truncated.StateDigest(),
                    RebuiltDigest(txns, spec, truncated))
              << "round " << round;
        }
      }
      const TxnId txn = schedule[pos];
      if (dead[txn] != 0) continue;
      const Operation& op = txns.txn(txn).op(next[txn]);
      const AdmitResult got = truncated.TryAppend(op);
      const AdmitResult want = full.TryAppend(op);
      ASSERT_EQ(got.ok(), want.ok()) << "round " << round << " pos " << pos;
      if (!got.ok()) {
        EXPECT_EQ(got.witness_arc.from, want.witness_arc.from);
        EXPECT_EQ(got.witness_arc.to, want.witness_arc.to);
        EXPECT_EQ(got.witness_arc.arc_kinds, want.witness_arc.arc_kinds);
        abort_both(txn);
        continue;
      }
      for (const Operation& prior : executed) {
        if (prior.txn != txn && prior.object == op.object &&
            (prior.is_write() || op.is_write()) && dead[prior.txn] == 0) {
          epochs.NoteDep(prior.txn, txn);
        }
      }
      executed.push_back(op);
      if (++next[txn] == txns.txn(txn).size()) epochs.NoteFinish(txn);
    }
    EXPECT_EQ(truncated.StateDigest(), RebuiltDigest(txns, spec, truncated))
        << "round " << round;
  }
  // Vacuous unless truncation dropped history and aborts followed it.
  EXPECT_GT(truncated_rounds, kRounds / 4);
  EXPECT_GT(aborted_after, kRounds / 8);
}

TEST(FaultTest, ClientAbortCascadesToDirtyReaders) {
  // T1 writes x and never finishes; T2 reads x (dirty) then stalls; T3
  // is independent. Aborting T1 must cascade-abort T2 and leave T3
  // untouched.
  auto txns = ParseTransactionSet(
      "T1 = w1[x] w1[y]\n"
      "T2 = r2[x] w2[z] w2[u]\n"
      "T3 = w3[v] w3[v]\n");
  ASSERT_TRUE(txns.ok());
  const AtomicitySpec spec = FullyRelaxedSpec(*txns);

  Tracer tracer(TraceLevel::kFull);
  ShardedAdmitterOptions options;
  options.tracer = &tracer;
  ShardedAdmitter admitter(*txns, spec, SingleShard(*txns), options);
  EXPECT_TRUE(admitter.SubmitAndWait(txns->txn(0).op(0)));  // w1[x]
  EXPECT_TRUE(admitter.SubmitAndWait(txns->txn(1).op(0)));  // r2[x] dirty
  EXPECT_TRUE(admitter.SubmitAndWait(txns->txn(1).op(1)));  // w2[z]
  EXPECT_TRUE(admitter.SubmitAndWait(txns->txn(2).op(0)));  // w3[v]
  EXPECT_TRUE(admitter.SubmitAndWait(txns->txn(2).op(1)));  // w3[v] commits T3

  EXPECT_EQ(admitter.AbortTxn(0), AdmitOutcome::kAborted);
  admitter.Flush();
  EXPECT_EQ(admitter.TxnVerdict(1), AdmitOutcome::kAborted);  // cascaded
  EXPECT_TRUE(admitter.TxnVerdict(2));
  EXPECT_TRUE(admitter.TxnCommitted(2));

  // Submitting more of the dead transactions answers with their death
  // outcome and leaves the checker untouched.
  EXPECT_EQ(admitter.SubmitAndWait(txns->txn(0).op(1)), AdmitOutcome::kAborted);
  EXPECT_EQ(admitter.SubmitAndWait(txns->txn(1).op(2)), AdmitOutcome::kAborted);
  admitter.Stop();

  // Only T3 survives, and the post-cascade state is bit-identical to a
  // checker that only ever saw T3.
  const OnlineRsrChecker& checker = admitter.shard_checker(0);
  EXPECT_EQ(checker.executed_count(), 2u);
  EXPECT_EQ(checker.StateDigest(), RebuiltDigest(*txns, spec, checker));
  EXPECT_EQ(admitter.unrecoverable_reads(), 0u);
  EXPECT_EQ(tracer.counters().aborts, 1u);
  EXPECT_EQ(tracer.counters().cascade_aborts, 1u);
  EXPECT_EQ(tracer.counters().commits, 1u);
}

// Aborting a committed transaction must be refused (commits are final),
// and the dirty read it performed earlier is counted as unrecoverable
// when its writer aborts.
TEST(FaultTest, CommittedTransactionsAreImmune) {
  auto txns = ParseTransactionSet(
      "T1 = w1[x] w1[y]\n"
      "T2 = r2[x]\n");
  ASSERT_TRUE(txns.ok());
  const AtomicitySpec spec = FullyRelaxedSpec(*txns);
  ShardedAdmitter admitter(*txns, spec, SingleShard(*txns));
  EXPECT_TRUE(admitter.SubmitAndWait(txns->txn(0).op(0)));  // w1[x]
  EXPECT_TRUE(admitter.SubmitAndWait(txns->txn(1).op(0)));  // r2[x]: commits T2
  EXPECT_TRUE(admitter.TxnCommitted(1));
  EXPECT_EQ(admitter.AbortTxn(1), AdmitOutcome::kReject);  // immune
  EXPECT_EQ(admitter.AbortTxn(0), AdmitOutcome::kAborted);
  // AbortTxn on an already-dead transaction reports the same outcome
  // without another round-trip.
  EXPECT_EQ(admitter.AbortTxn(0), AdmitOutcome::kAborted);
  admitter.Stop();
  EXPECT_EQ(admitter.unrecoverable_reads(), 1u);
}

// Deterministic overload control: with shed_high_water = 1 and one
// drain per submission, the shed victims are exactly the newest live
// uncommitted transactions at each drain.
TEST(FaultTest, SheddingKillsNewestUncommittedFirst) {
  auto txns = ParseTransactionSet(
      "T1 = w1[a] w1[a]\n"
      "T2 = w2[b] w2[b]\n"
      "T3 = w3[c] w3[c]\n");
  ASSERT_TRUE(txns.ok());
  const AtomicitySpec spec = FullyRelaxedSpec(*txns);
  Tracer tracer(TraceLevel::kFull);
  ShardedAdmitterOptions options;
  options.tracer = &tracer;
  options.shed_high_water = 1;
  ShardedAdmitter admitter(*txns, spec, SingleShard(*txns), options);

  // Each SubmitAndWait drains before the next arrives, so the shed
  // check runs once per operation with a deterministic live set:
  //   w1[a]: live {} -> no shed, then live {T1}
  //   w2[b]: live {T1} -> no shed, then live {T1,T2}
  //   w3[c]: live {T1,T2} > 1 -> shed newest seen = T2; then live {T1,T3}
  //   w1[a]: live {T1,T3} > 1 -> shed newest seen = T3; T1's op commits it
  EXPECT_TRUE(admitter.SubmitAndWait(txns->txn(0).op(0)));
  EXPECT_TRUE(admitter.SubmitAndWait(txns->txn(1).op(0)));
  EXPECT_TRUE(admitter.SubmitAndWait(txns->txn(2).op(0)));
  EXPECT_TRUE(admitter.SubmitAndWait(txns->txn(0).op(1)));
  admitter.Stop();

  EXPECT_TRUE(admitter.TxnCommitted(0));
  EXPECT_EQ(admitter.TxnVerdict(1), AdmitOutcome::kShed);
  EXPECT_EQ(admitter.TxnVerdict(2), AdmitOutcome::kShed);
  EXPECT_EQ(tracer.counters().sheds, 2u);
  EXPECT_EQ(tracer.counters().commits, 1u);
  // Shed events are transaction-level: no op payload, and they do not
  // feed the requests identity.
  EXPECT_EQ(tracer.counters().requests,
            tracer.counters().admits + tracer.counters().delays +
                tracer.counters().rejects);
}

// Shedding across shards: the victim is a live transaction resident on
// both shards; the shedding core withdraws it locally and the other
// shard withdraws it through the kill control, so neither checker keeps
// an operation of it and the committed log replays serially.
TEST(FaultTest, SheddingWithdrawsMultiShardVictimFromEveryShard) {
  auto txns = ParseTransactionSet(
      "T1 = w1[a] w1[a]\n"
      "T2 = w2[b] w2[c] w2[b]\n"
      "T3 = w3[d] w3[d]\n");
  ASSERT_TRUE(txns.ok());
  const AtomicitySpec spec = FullyRelaxedSpec(*txns);
  Tracer tracer(TraceLevel::kFull);
  ShardedAdmitterOptions options;
  options.tracer = &tracer;
  options.shed_high_water = 2;
  ShardedAdmitter admitter(
      *txns, spec, ShardRouter(txns->object_count(), 2, ShardStrategy::kRange),
      options);
  // Objects a, b live on shard 0 and c, d on shard 1, so T2 spans both.
  const ShardRouter& router = admitter.plan().router();
  ASSERT_EQ(router.ShardOf(txns->txn(1).op(0).object), 0u);
  ASSERT_EQ(router.ShardOf(txns->txn(1).op(1).object), 1u);
  ASSERT_EQ(router.ShardOf(txns->txn(2).op(0).object), 1u);

  // One synchronous client, so each drain sees a fixed live set:
  //   w1[a] (shard 0): live {T1}
  //   w2[b] (shard 0): live {T1,T2}
  //   w2[c] (shard 1): live {T1,T2}; T2 now has operations on both shards
  //   w3[d] (shard 1): live {T1,T2,T3} > 2 -> shard 1 sheds the newest
  //                    transaction it saw first, T2
  //   w1[a], w3[d]: commit T1 and T3
  EXPECT_TRUE(admitter.SubmitAndWait(txns->txn(0).op(0)));
  EXPECT_TRUE(admitter.SubmitAndWait(txns->txn(1).op(0)));
  EXPECT_TRUE(admitter.SubmitAndWait(txns->txn(1).op(1)));
  EXPECT_TRUE(admitter.SubmitAndWait(txns->txn(2).op(0)));
  EXPECT_EQ(admitter.SubmitAndWait(txns->txn(1).op(2)), AdmitOutcome::kShed);
  EXPECT_TRUE(admitter.SubmitAndWait(txns->txn(0).op(1)));
  EXPECT_TRUE(admitter.SubmitAndWait(txns->txn(2).op(1)));
  admitter.Stop();

  EXPECT_EQ(admitter.TxnVerdict(1), AdmitOutcome::kShed);
  EXPECT_TRUE(admitter.TxnCommitted(0));
  EXPECT_TRUE(admitter.TxnCommitted(2));
  EXPECT_EQ(tracer.counters().sheds, 1u);
  for (std::uint32_t shard = 0; shard < 2; ++shard) {
    const OnlineRsrChecker& checker = admitter.shard_checker(shard);
    EXPECT_FALSE(checker.TxnHasExecuted(1)) << "shard " << shard;
    EXPECT_EQ(checker.executed_count(), 2u) << "shard " << shard;
  }
  OnlineRsrChecker replay(*txns, spec);
  const std::vector<Operation> committed_log = admitter.CommittedLog();
  EXPECT_EQ(committed_log.size(), 4u);
  for (const Operation& op : committed_log) {
    EXPECT_NE(op.txn, 1u);
    ASSERT_TRUE(replay.TryAppend(op).ok());
  }
}

// Liveness of a cross-shard kill: no core thread exists, so the kill
// control posted to the victim's other shard is applied by its poster.
// T2 spans both shards; its rejection on shard 0 must withdraw it from
// shard 1 too, although nothing is ever submitted to shard 1 again. The
// poster (here the rejected submission's own drain) drains shard 1, so
// the withdrawal and the epoch finish are done before the rejection is
// even returned, and Flush finds nothing left to do.
TEST(FaultTest, CrossShardKillIsAppliedWithoutFurtherTraffic) {
  auto txns = ParseTransactionSet(
      "T1 = w1[a] w1[b]\n"
      "T2 = w2[c] w2[a] r2[b]\n"
      "T3 = w3[d]\n");
  ASSERT_TRUE(txns.ok());
  const AtomicitySpec spec = AbsoluteSpec(*txns);
  ShardedAdmitterOptions options;
  options.gc_interval = 0;  // keep both checkers' rows for inspection
  ShardedAdmitter admitter(
      *txns, spec, ShardRouter(txns->object_count(), 2, ShardStrategy::kRange),
      options);
  // Objects a, b live on shard 0 and c, d on shard 1.
  const ShardRouter& router = admitter.plan().router();
  ASSERT_EQ(router.ShardOf(txns->txn(1).op(0).object), 1u);
  ASSERT_EQ(router.ShardOf(txns->txn(1).op(1).object), 0u);
  ASSERT_EQ(router.ShardOf(txns->txn(1).op(2).object), 0u);

  EXPECT_TRUE(admitter.SubmitAndWait(txns->txn(1).op(0)));  // w2[c], shard 1
  EXPECT_TRUE(admitter.SubmitAndWait(txns->txn(1).op(1)));  // w2[a]
  EXPECT_TRUE(admitter.SubmitAndWait(txns->txn(0).op(0)));  // w1[a]: T2 -> T1
  EXPECT_TRUE(admitter.SubmitAndWait(txns->txn(0).op(1)));  // w1[b]: T1 commits
  ASSERT_TRUE(admitter.shard_checker(1).TxnHasExecuted(1));
  // r2[b] closes T1 -> T2 -> T1 inside T2's atomic unit: shard 0 rejects.
  EXPECT_EQ(admitter.SubmitAndWait(txns->txn(1).op(2)), AdmitOutcome::kReject);
  EXPECT_FALSE(admitter.shard_checker(1).TxnHasExecuted(1))
      << "the kill control on shard 1 was left for a later drain";
  EXPECT_EQ(admitter.epochs()->finished_count(), 2u)
      << "T2's epoch finish waits for shard 1's withdrawal";

  admitter.Flush();
  EXPECT_EQ(admitter.TxnVerdict(1), AdmitOutcome::kAborted);
  EXPECT_TRUE(admitter.TxnCommitted(0));
  EXPECT_FALSE(admitter.shard_checker(1).TxnHasExecuted(1));
  EXPECT_EQ(admitter.epochs()->finished_count(), 2u);
  admitter.Stop();
  EXPECT_EQ(admitter.shard_checker(1).executed_count(), 0u);
  EXPECT_EQ(admitter.shard_checker(0).executed_count(), 2u);
}

// A deadline runs out while another client drains the shard and sits in
// a fault-plan pause holding the drain token: the waiter must not wait
// for the token, it returns kTimeout, and the drainer still publishes
// the abandoned operation's word (as the timeout death) once it resumes.
TEST(FaultTest, DeadlineExpiresWhileTheDrainerIsPaused) {
  auto txns = ParseTransactionSet(
      "T1 = w1[a]\n"
      "T2 = w2[b]\n");
  ASSERT_TRUE(txns.ok());
  const AtomicitySpec spec = FullyRelaxedSpec(*txns);
  // A plan whose first decision step pauses for at least 200 ms and
  // whose next two (the timeout control, then T2's operation) do not.
  FaultPlanParams fp;
  fp.core_pause_prob = 0.5;
  fp.max_core_pause_us = 300'000;
  std::optional<FaultPlan> plan;
  for (std::uint64_t seed = 1; !plan.has_value(); ++seed) {
    const FaultPlan candidate(seed, fp);
    if (candidate.CorePauseUs(1) >= 200'000 && candidate.CorePauseUs(2) == 0 &&
        candidate.CorePauseUs(3) == 0) {
      plan = candidate;
    }
  }
  ShardedAdmitterOptions options;
  options.faults = &*plan;
  ShardedAdmitter admitter(*txns, spec, SingleShard(*txns), options);
  const Operation& first = txns->txn(0).op(0);
  const Operation& late = txns->txn(1).op(0);

  AdmitOutcome first_outcome = AdmitOutcome::kRetry;
  std::thread drainer(
      [&] { first_outcome = admitter.SubmitAndWait(first).outcome; });
  // The word is published before the pause that follows the decision.
  while (!admitter.OpOutcome(first).has_value()) std::this_thread::yield();
  const AdmitResult timed_out =
      admitter.SubmitAndWait(late, std::chrono::milliseconds(10));
  EXPECT_EQ(timed_out.outcome, AdmitOutcome::kTimeout);
  drainer.join();
  EXPECT_EQ(first_outcome, AdmitOutcome::kAccept);

  admitter.Flush();
  ASSERT_TRUE(admitter.OpOutcome(late).has_value())
      << "the abandoned operation's word was never published";
  EXPECT_EQ(*admitter.OpOutcome(late), AdmitOutcome::kTimeout);
  EXPECT_EQ(admitter.TxnVerdict(1), AdmitOutcome::kTimeout);
  admitter.Stop();
  EXPECT_EQ(admitter.shard_checker(0).executed_count(), 1u);
}

// Backpressure and deadlines: a fault plan that pauses the admission
// core makes the bounded ring fill (kRetry) and deadlines expire
// (kTimeout); SubmitWithBackoff rides out the retries.
TEST(FaultTest, BackpressureRetriesAndDeadlineTimeouts) {
  WorkloadParams wp;
  wp.txn_count = 24;
  wp.min_ops_per_txn = 2;
  wp.max_ops_per_txn = 3;
  wp.object_count = 64;  // sparse: decisions themselves are trivial
  wp.read_ratio = 0.5;
  Rng rng(0xFA02);
  const TransactionSet txns = GenerateTransactions(wp, &rng);
  const AtomicitySpec spec = FullyRelaxedSpec(txns);

  FaultPlanParams fp;
  fp.core_pause_prob = 1.0;  // every decision pauses the core
  fp.max_core_pause_us = 1000;
  const FaultPlan plan(0xFA03, fp);

  Tracer tracer(TraceLevel::kCounters);
  ShardedAdmitterOptions options;
  options.queue_capacity = 2;  // tiny ring: backpressure is the norm
  options.tracer = &tracer;
  options.faults = &plan;
  ShardedAdmitter admitter(txns, spec, SingleShard(txns), options);

  // One client per transaction: timeout aborts travel on the core's
  // control channel, not the ring, so only concurrent submissions
  // against the paused core fill the tiny ring.
  std::atomic<std::uint64_t> timeouts{0};
  std::vector<std::thread> clients;
  clients.reserve(txns.txn_count());
  for (TxnId t = 0; t < txns.txn_count(); ++t) {
    clients.emplace_back([&, t] {
      Backoff backoff(0xFA04 + t);
      for (std::uint32_t i = 0; i < txns.txn(t).size(); ++i) {
        const Operation& op = txns.txn(t).op(i);
        if (t % 3 == 2) {
          // Every third transaction runs under a deadline far shorter
          // than the injected core pauses.
          const AdmitResult result = admitter.SubmitWithBackoff(
              op, backoff, std::chrono::microseconds(50));
          if (result.outcome == AdmitOutcome::kTimeout) {
            timeouts.fetch_add(1, std::memory_order_relaxed);
          }
          if (!result.ok()) return;
        } else if (!admitter.SubmitWithBackoff(op, backoff).ok()) {
          return;
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();
  admitter.Stop();

  EXPECT_GT(admitter.retries(), 0u) << "tiny ring + paused core must refuse";
  EXPECT_GT(timeouts.load(), 0u)
      << "50us deadlines under ~1ms pauses must expire";
  EXPECT_EQ(tracer.counters().retries, admitter.retries());
  // The tracer records timeouts that took effect; a control message
  // that finds its transaction already committed (the op squeaked in
  // after the client gave up) or already dead is a no-op, so the
  // client-side count is an upper bound.
  EXPECT_LE(tracer.counters().timeouts, timeouts.load());
  // Whatever committed must still be serially admissible.
  OnlineRsrChecker replay(txns, spec);
  for (const Operation& op : admitter.CommittedLog()) {
    ASSERT_TRUE(replay.TryAppend(op).ok());
  }
}

// FaultPlan queries are pure functions of (seed, identifiers): the same
// seed yields the same schedule no matter how many threads query it or
// in what order — the property that makes fault runs replayable at any
// client-pool size.
TEST(FaultTest, FaultPlanIsDeterministicAtAnyPoolSize) {
  FaultPlanParams params;
  params.stall_prob = 0.3;
  params.drop_prob = 0.1;
  params.abort_prob = 0.4;
  params.core_pause_prob = 0.2;
  const FaultPlan plan_a(0xF00D, params);
  const FaultPlan plan_b(0xF00D, params);  // same seed, separate instance

  constexpr TxnId kTxns = 32;
  constexpr std::uint32_t kOps = 8;
  // Serial sweep through plan_a.
  std::vector<std::uint64_t> serial;
  for (TxnId t = 0; t < kTxns; ++t) {
    for (std::uint32_t i = 0; i < kOps; ++i) {
      const OpFault fault = plan_a.ForOp(t, i);
      serial.push_back((static_cast<std::uint64_t>(fault.stall_us) << 1) |
                       (fault.drop ? 1u : 0u));
    }
    serial.push_back(plan_a.AbortAfter(t, kOps).value_or(0));
  }
  for (std::uint64_t step = 0; step < 64; ++step) {
    serial.push_back(plan_a.CorePauseUs(step));
  }

  // The same sweep, sharded over 4 threads in interleaved order and
  // against the sibling instance.
  std::vector<std::uint64_t> sharded(serial.size(), 0);
  std::vector<std::thread> pool;
  for (unsigned shard = 0; shard < 4; ++shard) {
    pool.emplace_back([&, shard] {
      for (TxnId t = kTxns; t-- > 0;) {  // reverse order on purpose
        if (t % 4 != shard) continue;
        const std::size_t base = static_cast<std::size_t>(t) * (kOps + 1);
        for (std::uint32_t i = 0; i < kOps; ++i) {
          const OpFault fault = plan_b.ForOp(t, i);
          sharded[base + i] =
              (static_cast<std::uint64_t>(fault.stall_us) << 1) |
              (fault.drop ? 1u : 0u);
        }
        sharded[base + kOps] = plan_b.AbortAfter(t, kOps).value_or(0);
      }
    });
  }
  for (std::thread& worker : pool) worker.join();
  for (std::uint64_t step = 0; step < 64; ++step) {
    sharded[static_cast<std::size_t>(kTxns) * (kOps + 1) + step] =
        plan_b.CorePauseUs(step);
  }
  EXPECT_EQ(serial, sharded);

  // A different seed must not reproduce the schedule.
  const FaultPlan other(0xBEEF, params);
  bool any_difference = false;
  for (TxnId t = 0; t < kTxns && !any_difference; ++t) {
    for (std::uint32_t i = 0; i < kOps; ++i) {
      const OpFault a = plan_a.ForOp(t, i);
      const OpFault b = other.ForOp(t, i);
      if (a.stall_us != b.stall_us || a.drop != b.drop) {
        any_difference = true;
        break;
      }
    }
  }
  EXPECT_TRUE(any_difference);
}

// Boundary semantics of the plan's queries.
TEST(FaultTest, FaultPlanRespectsBounds) {
  FaultPlanParams always;
  always.abort_prob = 1.0;
  always.stall_prob = 1.0;
  always.max_stall_us = 7;
  const FaultPlan plan(0x5EED, always);
  for (TxnId t = 0; t < 64; ++t) {
    // Single-op transactions have no "mid-stream" to abort at.
    EXPECT_EQ(plan.AbortAfter(t, 1), std::nullopt);
    const std::optional<std::uint32_t> after = plan.AbortAfter(t, 5);
    ASSERT_TRUE(after.has_value());
    EXPECT_GE(*after, 1u);
    EXPECT_LE(*after, 4u);
    const OpFault fault = plan.ForOp(t, 0);
    EXPECT_GE(fault.stall_us, 1u);
    EXPECT_LE(fault.stall_us, 7u);
  }
  FaultPlanParams none;  // all probabilities zero
  const FaultPlan quiet(0x5EED, none);
  for (TxnId t = 0; t < 16; ++t) {
    const OpFault fault = quiet.ForOp(t, 3);
    EXPECT_EQ(fault.stall_us, 0u);
    EXPECT_FALSE(fault.drop);
    EXPECT_EQ(quiet.AbortAfter(t, 5), std::nullopt);
  }
  for (std::uint64_t step = 0; step < 32; ++step) {
    EXPECT_EQ(quiet.CorePauseUs(step), 0u);
  }
}

}  // namespace
}  // namespace relser
