// Integration tests of the online schedulers: every protocol must finish
// every workload and its committed schedule must satisfy the protocol's
// advertised guarantee (conflict serializability for serial/2PL/SGT,
// relative serializability for RSGT/unit-2PL).
#include <gtest/gtest.h>

#include <memory>

#include "core/online.h"
#include "core/paper_examples.h"
#include "model/text.h"
#include "sched/engine.h"
#include "sched/factory.h"
#include "sched/graph_based.h"
#include "sched/lock_based.h"
#include "sched/serial.h"
#include "sched/verify.h"
#include "spec/builders.h"
#include "workload/generator.h"
#include "workload/spec_gen.h"

namespace relser {
namespace {

class SchedulerSweep : public ::testing::TestWithParam<std::string> {};

TEST_P(SchedulerSweep, CompletesAndGuaranteeHoldsOnRandomWorkloads) {
  const std::string name = GetParam();
  Rng rng(0xC0FFEE);
  for (int round = 0; round < 30; ++round) {
    WorkloadParams wp;
    wp.txn_count = 2 + rng.UniformIndex(5);
    wp.min_ops_per_txn = 1;
    wp.max_ops_per_txn = 6;
    wp.object_count = 2 + rng.UniformIndex(6);
    wp.read_ratio = 0.5;
    const TransactionSet txns = GenerateTransactions(wp, &rng);
    const double density = rng.UniformDouble();
    const AtomicitySpec spec = RandomSpec(txns, density, &rng);
    auto scheduler = MakeScheduler(name, txns, spec);
    ASSERT_NE(scheduler, nullptr);
    SimParams sp;
    sp.seed = rng.Next();
    sp.max_ticks = 200000;
    const SimResult result = RunSimulation(txns, scheduler.get(), sp);
    SCOPED_TRACE("round " + std::to_string(round) + " scheduler " + name);
    ASSERT_TRUE(result.metrics.completed)
        << "did not finish in " << sp.max_ticks << " ticks";
    const RunVerification verification =
        VerifyRun(txns, spec, result, GuaranteeOf(name));
    EXPECT_TRUE(verification.guarantee_held)
        << "committed schedule violates the " << name << " guarantee";
  }
}

TEST_P(SchedulerSweep, CompletesUnderAbsoluteAtomicity) {
  // Under absolute specs RSGT must behave like a conflict-serializability
  // certifier (Lemma 1): both guarantees coincide.
  const std::string name = GetParam();
  Rng rng(0xFEED);
  for (int round = 0; round < 15; ++round) {
    WorkloadParams wp;
    wp.txn_count = 3;
    wp.min_ops_per_txn = 2;
    wp.max_ops_per_txn = 5;
    wp.object_count = 3;
    const TransactionSet txns = GenerateTransactions(wp, &rng);
    const AtomicitySpec spec = AbsoluteSpec(txns);
    auto scheduler = MakeScheduler(name, txns, spec);
    SimParams sp;
    sp.seed = rng.Next();
    sp.max_ticks = 100000;
    const SimResult result = RunSimulation(txns, scheduler.get(), sp);
    ASSERT_TRUE(result.metrics.completed);
    const RunVerification verification =
        VerifyRun(txns, spec, result, Guarantee::kConflictSerializable);
    EXPECT_TRUE(verification.guarantee_held)
        << name << " produced a non-conflict-serializable schedule under "
        << "absolute atomicity";
  }
}

INSTANTIATE_TEST_SUITE_P(AllSchedulers, SchedulerSweep,
                         ::testing::Values("serial", "2pl", "sgt", "rsgt",
                                           "unit2pl", "altruistic", "to",
                                           "ra"),
                         [](const auto& param_info) {
                           return param_info.param;
                         });

TEST(SchedulerBasics, SerialSchedulerProducesSerialSchedule) {
  Rng rng(7);
  WorkloadParams wp;
  wp.txn_count = 4;
  const TransactionSet txns = GenerateTransactions(wp, &rng);
  SerialScheduler scheduler;
  SimParams sp;
  const SimResult result = RunSimulation(txns, &scheduler, sp);
  ASSERT_TRUE(result.metrics.completed);
  auto schedule = result.CommittedSchedule(txns);
  ASSERT_TRUE(schedule.ok());
  EXPECT_TRUE(schedule->IsSerial());
  EXPECT_EQ(result.metrics.aborts, 0u);
  EXPECT_EQ(result.metrics.cascade_aborts, 0u);
}

TEST(SchedulerBasics, Strict2PLNeverCascades) {
  Rng rng(99);
  for (int round = 0; round < 20; ++round) {
    WorkloadParams wp;
    wp.txn_count = 4;
    wp.object_count = 3;  // high contention to force deadlocks
    wp.read_ratio = 0.2;
    const TransactionSet txns = GenerateTransactions(wp, &rng);
    Strict2PLScheduler scheduler;
    SimParams sp;
    sp.seed = rng.Next();
    const SimResult result = RunSimulation(txns, &scheduler, sp);
    ASSERT_TRUE(result.metrics.completed);
    EXPECT_EQ(result.metrics.cascade_aborts, 0u)
        << "strict 2PL must not produce cascading aborts";
  }
}

TEST(SchedulerBasics, RsgtAdmitsTheFigure1WorkloadWithoutAborts) {
  // Under Figure 1's specification, a favourable request order exists in
  // which RSGT admits non-serializable interleavings; at minimum the
  // workload must complete with the relative-serializability guarantee.
  const PaperExample fig = Figure1();
  RSGTScheduler scheduler(fig.txns, fig.spec);
  SimParams sp;
  sp.seed = 5;
  const SimResult result = RunSimulation(fig.txns, &scheduler, sp);
  ASSERT_TRUE(result.metrics.completed);
  const RunVerification verification = VerifyRun(
      fig.txns, fig.spec, result, Guarantee::kRelativelySerializable);
  EXPECT_TRUE(verification.guarantee_held);
}

TEST(SchedulerBasics, RsgtAbortForgetsTheVictimExactly) {
  // r3[x] w1[x] r2[x] puts w1[x] between r3[x] and r2[x]. Once T1 aborts,
  // the survivors r3[x] r2[x] are two reads with no arc between them, so
  // w3[x] (arc r2 -> w3, pulled back to r3 under absolute atomicity)
  // closes no cycle. An abort that kept a path r3 -> r2 through the
  // removed w1[x] would reject it.
  auto txns =
      ParseTransactionSet("T1 = w1[x]\nT2 = r2[x]\nT3 = r3[x] w3[x]\n");
  ASSERT_TRUE(txns.ok());
  const AtomicitySpec spec = AbsoluteSpec(*txns);
  const Operation w1x = txns->txn(0).op(0);
  const Operation r2x = txns->txn(1).op(0);
  const Operation r3x = txns->txn(2).op(0);
  const Operation w3x = txns->txn(2).op(1);
  RSGTScheduler scheduler(*txns, spec);
  EXPECT_EQ(scheduler.OnRequest(r3x), AdmitOutcome::kAccept);
  EXPECT_EQ(scheduler.OnRequest(w1x), AdmitOutcome::kAccept);
  EXPECT_EQ(scheduler.OnRequest(r2x), AdmitOutcome::kAccept);
  scheduler.OnAbort(0);
  EXPECT_EQ(scheduler.OnRequest(w3x), AdmitOutcome::kAccept);
  EXPECT_EQ(scheduler.cycle_rejections(), 0u);

  // The same decision as a fresh checker fed only the survivors.
  OnlineRsrChecker fresh(*txns, spec);
  ASSERT_TRUE(fresh.TryAppend(r3x).ok());
  ASSERT_TRUE(fresh.TryAppend(r2x).ok());
  EXPECT_TRUE(fresh.TryAppend(w3x).ok());
}

TEST(SchedulerBasics, UnitLockReleasesEarlyOnlyWithBreakpoints) {
  Rng rng(3);
  WorkloadParams wp;
  wp.txn_count = 4;
  wp.min_ops_per_txn = 4;
  wp.max_ops_per_txn = 4;
  const TransactionSet txns = GenerateTransactions(wp, &rng);
  {
    const AtomicitySpec absolute = AbsoluteSpec(txns);
    UnitLockScheduler scheduler(txns, absolute);
    SimParams sp;
    const SimResult result = RunSimulation(txns, &scheduler, sp);
    ASSERT_TRUE(result.metrics.completed);
    EXPECT_EQ(scheduler.early_releases(), 0u)
        << "no breakpoints -> no early releases (degenerates to 2PL)";
  }
  {
    const AtomicitySpec relaxed = FullyRelaxedSpec(txns);
    UnitLockScheduler scheduler(txns, relaxed);
    SimParams sp;
    const SimResult result = RunSimulation(txns, &scheduler, sp);
    ASSERT_TRUE(result.metrics.completed);
    EXPECT_GT(scheduler.early_releases(), 0u);
  }
}

TEST(SchedulerBasics, SgtRetiresCommittedSourcesAndCascades) {
  auto txns = ParseTransactionSet("T1 = w1[x]\nT2 = r2[x]\nT3 = r3[x]\n");
  SGTScheduler scheduler(*txns);
  EXPECT_EQ(scheduler.OnRequest(txns->txn(0).op(0)), AdmitOutcome::kAccept);
  EXPECT_EQ(scheduler.OnRequest(txns->txn(1).op(0)), AdmitOutcome::kAccept);
  EXPECT_EQ(scheduler.OnRequest(txns->txn(2).op(0)), AdmitOutcome::kAccept);
  // T2 commits first but has an in-edge from uncommitted T1: not retirable.
  scheduler.OnCommit(1);
  EXPECT_EQ(scheduler.retired_count(), 0u);
  // T1 commits with in-degree 0: retired, which exposes committed T2 as a
  // new source and cascades. Uncommitted T3 stays.
  scheduler.OnCommit(0);
  EXPECT_EQ(scheduler.retired_count(), 2u);
  scheduler.OnCommit(2);
  EXPECT_EQ(scheduler.retired_count(), 3u);
}

TEST(SchedulerBasics, SgtStillCatchesCyclesAmongLiveTxnsAfterGc) {
  auto txns = ParseTransactionSet(
      "T1 = w1[x]\nT2 = w2[x] w2[y]\nT3 = w3[y] w3[x]\n");
  SGTScheduler scheduler(*txns);
  EXPECT_EQ(scheduler.OnRequest(txns->txn(0).op(0)), AdmitOutcome::kAccept);
  scheduler.OnCommit(0);
  EXPECT_EQ(scheduler.retired_count(), 1u);
  // The retired writer's history entry on x is gone, so T2's write gets no
  // arc — and none is needed: T1 can no longer join any cycle.
  EXPECT_EQ(scheduler.OnRequest(txns->txn(1).op(0)), AdmitOutcome::kAccept);
  EXPECT_EQ(scheduler.OnRequest(txns->txn(2).op(0)), AdmitOutcome::kAccept);
  EXPECT_EQ(scheduler.OnRequest(txns->txn(1).op(1)), AdmitOutcome::kAccept);
  // w3[x] closes T2 -> T3 -> T2: must still be rejected after GC.
  EXPECT_EQ(scheduler.OnRequest(txns->txn(2).op(1)), AdmitOutcome::kAborted);
  EXPECT_EQ(scheduler.cycle_rejections(), 1u);
}

TEST(SchedulerBasics, SgtAbortScrubsHistoryAndExposesSources) {
  auto txns = ParseTransactionSet("T1 = w1[x]\nT2 = r2[x]\nT3 = w3[x]\n");
  SGTScheduler scheduler(*txns);
  EXPECT_EQ(scheduler.OnRequest(txns->txn(0).op(0)), AdmitOutcome::kAccept);
  EXPECT_EQ(scheduler.OnRequest(txns->txn(1).op(0)), AdmitOutcome::kAccept);
  // Arcs only point into requesters, so committed T1 retires immediately.
  scheduler.OnCommit(0);
  EXPECT_EQ(scheduler.retired_count(), 1u);
  // Abort T2: its read of x must vanish from the history, so T3's write
  // gains no arc from it.
  scheduler.OnAbort(1);
  EXPECT_EQ(scheduler.OnRequest(txns->txn(2).op(0)), AdmitOutcome::kAccept);
  EXPECT_EQ(scheduler.cycle_rejections(), 0u);
}

TEST(SchedulerBasics, SgtGcKeepsRunsCorrectOnRandomWorkloads) {
  Rng rng(0x56717);
  std::size_t total_retired = 0;
  for (int round = 0; round < 20; ++round) {
    WorkloadParams wp;
    wp.txn_count = 3 + rng.UniformIndex(4);
    wp.min_ops_per_txn = 1;
    wp.max_ops_per_txn = 5;
    wp.object_count = 2 + rng.UniformIndex(4);
    const TransactionSet txns = GenerateTransactions(wp, &rng);
    const AtomicitySpec spec = AbsoluteSpec(txns);
    SGTScheduler scheduler(txns);
    SimParams sp;
    sp.seed = rng.Next();
    sp.max_ticks = 200000;
    const SimResult result = RunSimulation(txns, &scheduler, sp);
    ASSERT_TRUE(result.metrics.completed) << "round " << round;
    const RunVerification verification =
        VerifyRun(txns, spec, result, GuaranteeOf("sgt"));
    EXPECT_TRUE(verification.guarantee_held) << "round " << round;
    // Every transaction eventually commits, so every node must retire.
    EXPECT_EQ(scheduler.retired_count(), txns.txn_count())
        << "round " << round;
    total_retired += scheduler.retired_count();
  }
  EXPECT_GT(total_retired, 0u);
}

}  // namespace
}  // namespace relser
