// Tests for relative atomicity specifications: breakpoint mechanics,
// unit derivation, PushForward/PullBackward (the Section 3 primitives),
// and every published builder family.
#include <gtest/gtest.h>

#include "model/text.h"
#include "spec/atomicity_spec.h"
#include "spec/builders.h"
#include "util/rng.h"
#include "workload/generator.h"
#include "workload/spec_gen.h"

namespace relser {
namespace {

TransactionSet FourOpTxnPair() {
  auto txns = ParseTransactionSet(
      "T1 = r1[x] w1[x] w1[z] r1[y]\nT2 = r2[y] w2[y] r2[x]\n");
  RELSER_CHECK(txns.ok());
  return *std::move(txns);
}

TEST(AtomicitySpec, DefaultIsAbsolute) {
  const TransactionSet txns = FourOpTxnPair();
  const AtomicitySpec spec(txns);
  EXPECT_TRUE(spec.IsAbsolute());
  EXPECT_EQ(spec.TotalBreakpoints(), 0u);
  EXPECT_EQ(spec.UnitCount(0, 1), 1u);
  EXPECT_EQ(spec.UnitBounds(0, 1, 0), (UnitRange{0, 3}));
}

TEST(AtomicitySpec, SetAndClearBreakpoints) {
  const TransactionSet txns = FourOpTxnPair();
  AtomicitySpec spec(txns);
  spec.SetBreakpoint(0, 1, 1);
  EXPECT_TRUE(spec.HasBreakpoint(0, 1, 1));
  EXPECT_FALSE(spec.HasBreakpoint(0, 1, 0));
  EXPECT_FALSE(spec.HasBreakpoint(1, 0, 1));  // pairs are directional
  EXPECT_EQ(spec.UnitCount(0, 1), 2u);
  spec.ClearBreakpoint(0, 1, 1);
  EXPECT_TRUE(spec.IsAbsolute());
}

TEST(AtomicitySpec, UnitsDeriveFromBreakpoints) {
  const TransactionSet txns = FourOpTxnPair();
  AtomicitySpec spec(txns);
  spec.SetBreakpoint(0, 1, 0);
  spec.SetBreakpoint(0, 1, 2);
  const auto units = spec.Units(0, 1);
  ASSERT_EQ(units.size(), 3u);
  EXPECT_EQ(units[0], (UnitRange{0, 0}));
  EXPECT_EQ(units[1], (UnitRange{1, 2}));
  EXPECT_EQ(units[2], (UnitRange{3, 3}));
  EXPECT_EQ(spec.UnitOfOp(0, 1, 0), 0u);
  EXPECT_EQ(spec.UnitOfOp(0, 1, 1), 1u);
  EXPECT_EQ(spec.UnitOfOp(0, 1, 2), 1u);
  EXPECT_EQ(spec.UnitOfOp(0, 1, 3), 2u);
  EXPECT_TRUE(units[1].Contains(2));
  EXPECT_FALSE(units[1].Contains(3));
}

TEST(AtomicitySpec, PushForwardPullBackwardMatchUnitEnds) {
  const TransactionSet txns = FourOpTxnPair();
  AtomicitySpec spec(txns);
  spec.SetBreakpoint(0, 1, 1);  // units: [0,1] [2,3]
  EXPECT_EQ(spec.PushForward(0, 1, 0), 1u);
  EXPECT_EQ(spec.PushForward(0, 1, 1), 1u);
  EXPECT_EQ(spec.PushForward(0, 1, 2), 3u);
  EXPECT_EQ(spec.PullBackward(0, 1, 3), 2u);
  EXPECT_EQ(spec.PullBackward(0, 1, 1), 0u);
  EXPECT_EQ(spec.PullBackward(0, 1, 0), 0u);
}

TEST(AtomicitySpec, PushPullConsistentWithUnitOfOpOnRandomSpecs) {
  Rng rng(5150);
  WorkloadParams wp;
  wp.txn_count = 4;
  wp.min_ops_per_txn = 1;
  wp.max_ops_per_txn = 7;
  const TransactionSet txns = GenerateTransactions(wp, &rng);
  for (int round = 0; round < 20; ++round) {
    const AtomicitySpec spec = RandomSpec(txns, 0.4, &rng);
    for (TxnId i = 0; i < txns.txn_count(); ++i) {
      for (TxnId j = 0; j < txns.txn_count(); ++j) {
        if (i == j) continue;
        for (std::uint32_t k = 0; k < txns.txn(i).size(); ++k) {
          const std::size_t unit = spec.UnitOfOp(i, j, k);
          const UnitRange bounds = spec.UnitBounds(i, j, unit);
          EXPECT_EQ(spec.PushForward(i, j, k), bounds.last);
          EXPECT_EQ(spec.PullBackward(i, j, k), bounds.first);
          EXPECT_TRUE(bounds.Contains(k));
        }
      }
    }
  }
}

// Transactions of 1 to 130 ops, so a pair's gaps span zero to three
// 64-bit words and unit boundaries fall on both sides of each word edge.
// Every query must equal a brute-force scan of HasBreakpoint, at sparse,
// half and dense breakpoint densities.
TEST(AtomicitySpec, WordBoundaryQueriesMatchBruteForceScan) {
  const std::vector<std::uint32_t> sizes = {1, 2, 63, 64, 65, 66, 129, 130};
  TransactionSet txns;
  txns.AddObjects(1);
  for (const std::uint32_t size : sizes) {
    Transaction* txn = txns.AddTransaction();
    for (std::uint32_t k = 0; k < size; ++k) txn->Read(0);
  }
  const auto n = static_cast<TxnId>(sizes.size());
  Rng rng(0xB0DA);
  for (const double density : {0.05, 0.5, 0.95}) {
    SCOPED_TRACE(density);
    AtomicitySpec spec(txns);
    std::size_t set = 0;
    for (TxnId i = 0; i < n; ++i) {
      for (TxnId j = 0; j < n; ++j) {
        for (std::uint32_t g = 0; i != j && g + 1 < sizes[i]; ++g) {
          if (rng.Bernoulli(density)) {
            spec.SetBreakpoint(i, j, g);
            ++set;
          }
        }
      }
    }
    AtomicitySpec rebuilt(txns);
    std::size_t scanned = 0;
    for (TxnId i = 0; i < n; ++i) {
      for (TxnId j = 0; j < n; ++j) {
        if (i == j) continue;
        std::vector<UnitRange> units;
        std::uint32_t first = 0;
        for (std::uint32_t g = 0; g + 1 < sizes[i]; ++g) {
          if (!spec.HasBreakpoint(i, j, g)) continue;
          rebuilt.SetBreakpoint(i, j, g);
          ++scanned;
          units.push_back(UnitRange{first, g});
          first = g + 1;
        }
        units.push_back(UnitRange{first, sizes[i] - 1});
        ASSERT_EQ(spec.Units(i, j), units) << "T" << i + 1 << " / T" << j + 1;
        EXPECT_EQ(spec.UnitCount(i, j), units.size());
        for (std::size_t u = 0; u < units.size(); ++u) {
          for (std::uint32_t k = units[u].first; k <= units[u].last; ++k) {
            EXPECT_EQ(spec.PushForward(i, j, k), units[u].last) << k;
            EXPECT_EQ(spec.PullBackward(i, j, k), units[u].first) << k;
            EXPECT_EQ(spec.UnitOfOp(i, j, k), u) << k;
          }
        }
      }
    }
    EXPECT_EQ(scanned, set);
    EXPECT_EQ(spec.TotalBreakpoints(), set);
    EXPECT_EQ(spec.IsAbsolute(), set == 0);
    EXPECT_EQ(spec, rebuilt);
    EXPECT_TRUE(spec.AtLeastAsPermissiveAs(rebuilt));
    EXPECT_TRUE(rebuilt.AtLeastAsPermissiveAs(spec));

    // One gap flipped at each side of T8's (130 ops) word edges, as seen
    // by T7: a strict order in one direction, and no longer equal.
    for (const std::uint32_t gap : {0u, 62u, 63u, 64u, 127u, 128u}) {
      AtomicitySpec flipped = spec;
      const bool had = spec.HasBreakpoint(7, 6, gap);
      if (had) {
        flipped.ClearBreakpoint(7, 6, gap);
      } else {
        flipped.SetBreakpoint(7, 6, gap);
      }
      EXPECT_NE(flipped, spec) << gap;
      EXPECT_EQ(flipped.TotalBreakpoints(), had ? set - 1 : set + 1);
      const AtomicitySpec& more = had ? spec : flipped;
      const AtomicitySpec& fewer = had ? flipped : spec;
      EXPECT_TRUE(more.AtLeastAsPermissiveAs(fewer)) << gap;
      EXPECT_FALSE(fewer.AtLeastAsPermissiveAs(more)) << gap;
    }
  }

  // RelaxFully sets exactly the gaps of the pair, never past the last.
  AtomicitySpec relaxed(txns);
  std::size_t gaps = 0;
  for (TxnId i = 0; i < n; ++i) {
    for (TxnId j = 0; j < n; ++j) {
      if (i == j) continue;
      relaxed.RelaxFully(i, j);
      gaps += sizes[i] - 1;
      EXPECT_EQ(relaxed.UnitCount(i, j), sizes[i]);
      for (std::uint32_t k = 0; k < sizes[i]; ++k) {
        EXPECT_EQ(relaxed.PushForward(i, j, k), k);
        EXPECT_EQ(relaxed.PullBackward(i, j, k), k);
        EXPECT_EQ(relaxed.UnitOfOp(i, j, k), k);
      }
    }
  }
  EXPECT_EQ(relaxed.TotalBreakpoints(), gaps);
  EXPECT_EQ(relaxed, FullyRelaxedSpec(txns));
}

TEST(AtomicitySpec, RelaxFullyMakesSingletonUnits) {
  const TransactionSet txns = FourOpTxnPair();
  AtomicitySpec spec(txns);
  spec.RelaxFully(0, 1);
  EXPECT_EQ(spec.UnitCount(0, 1), 4u);
  for (std::uint32_t k = 0; k < 4; ++k) {
    EXPECT_EQ(spec.PushForward(0, 1, k), k);
    EXPECT_EQ(spec.PullBackward(0, 1, k), k);
  }
  // The other direction is untouched.
  EXPECT_EQ(spec.UnitCount(1, 0), 1u);
}

TEST(AtomicitySpec, SingleOperationTransactionHasNoGaps) {
  auto txns = ParseTransactionSet("T1 = w1[x]\nT2 = r2[x]\n");
  AtomicitySpec spec(*txns);
  EXPECT_EQ(spec.UnitCount(0, 1), 1u);
  EXPECT_EQ(spec.PushForward(0, 1, 0), 0u);
  spec.RelaxFully(0, 1);  // no-op, no gaps exist
  EXPECT_EQ(spec.UnitCount(0, 1), 1u);
}

TEST(AtomicitySpec, PermissivenessPartialOrder) {
  const TransactionSet txns = FourOpTxnPair();
  const AtomicitySpec absolute = AbsoluteSpec(txns);
  const AtomicitySpec relaxed = FullyRelaxedSpec(txns);
  AtomicitySpec middle(txns);
  middle.SetBreakpoint(0, 1, 1);
  EXPECT_TRUE(relaxed.AtLeastAsPermissiveAs(absolute));
  EXPECT_TRUE(relaxed.AtLeastAsPermissiveAs(middle));
  EXPECT_TRUE(middle.AtLeastAsPermissiveAs(absolute));
  EXPECT_FALSE(absolute.AtLeastAsPermissiveAs(middle));
  EXPECT_FALSE(middle.AtLeastAsPermissiveAs(relaxed));
  EXPECT_TRUE(middle.AtLeastAsPermissiveAs(middle));
}

TEST(AtomicitySpec, ValidateAgainstDetectsShapeDrift) {
  const TransactionSet txns = FourOpTxnPair();
  const AtomicitySpec spec(txns);
  EXPECT_TRUE(spec.ValidateAgainst(txns).ok());
  auto other = ParseTransactionSet("T1 = r1[x]\nT2 = r2[y]\n");
  EXPECT_FALSE(spec.ValidateAgainst(*other).ok());
  auto three = ParseTransactionSet("T1 = r1[x]\nT2 = r2[y]\nT3 = r3[x]\n");
  EXPECT_FALSE(spec.ValidateAgainst(*three).ok());
}

TEST(Builders, SetUnitsByLength) {
  const TransactionSet txns = FourOpTxnPair();
  AtomicitySpec spec(txns);
  SetUnitsByLength(&spec, 0, 1, {2, 1, 1});
  EXPECT_EQ(spec.UnitCount(0, 1), 3u);
  EXPECT_EQ(spec.UnitBounds(0, 1, 0), (UnitRange{0, 1}));
  EXPECT_EQ(spec.UnitBounds(0, 1, 1), (UnitRange{2, 2}));
  // Re-partitioning replaces the previous boundaries.
  SetUnitsByLength(&spec, 0, 1, {4});
  EXPECT_EQ(spec.UnitCount(0, 1), 1u);
}

TEST(Builders, FluentChainMatchesHandBuiltSpec) {
  const TransactionSet txns = FourOpTxnPair();
  // Hand-built reference.
  AtomicitySpec expected(txns);
  expected.RelaxFully(0, 1);
  expected.SetBreakpoint(1, 0, 1);
  // Same spec as one fluent declaration.
  const AtomicitySpec spec = SpecBuilder(txns)
                                 .RelaxPair(0, 1)
                                 .Breakpoint(1, 0, 1)
                                 .Build();
  for (std::uint32_t g = 0; g + 1 < 4; ++g) {  // T1 has 3 gaps
    EXPECT_EQ(spec.HasBreakpoint(0, 1, g), expected.HasBreakpoint(0, 1, g));
  }
  for (std::uint32_t g = 0; g + 1 < 3; ++g) {  // T2 has 2 gaps
    EXPECT_EQ(spec.HasBreakpoint(1, 0, g), expected.HasBreakpoint(1, 0, g));
  }
  EXPECT_EQ(spec.UnitCount(0, 1), 4u);
  EXPECT_EQ(spec.UnitCount(1, 0), 2u);
}

TEST(Builders, FluentRelaxAllAndClearEqualNamedFamilies) {
  const TransactionSet txns = FourOpTxnPair();
  const AtomicitySpec relaxed = SpecBuilder(txns).RelaxAll().Build();
  const AtomicitySpec reference = FullyRelaxedSpec(txns);
  EXPECT_TRUE(relaxed.AtLeastAsPermissiveAs(reference));
  EXPECT_TRUE(reference.AtLeastAsPermissiveAs(relaxed));
  // ClearBreakpoint walks a relaxation back.
  const AtomicitySpec narrowed =
      SpecBuilder(txns).RelaxPair(0, 1).ClearBreakpoint(0, 1, 2).Build();
  EXPECT_TRUE(narrowed.HasBreakpoint(0, 1, 0));
  EXPECT_FALSE(narrowed.HasBreakpoint(0, 1, 2));
}

TEST(Builders, FluentUnitsMeetJoinAndFromSpec) {
  const TransactionSet txns = FourOpTxnPair();
  const AtomicitySpec units =
      SpecBuilder(txns).UnitsByLength(0, 1, {2, 2}).Build();
  EXPECT_EQ(units.UnitCount(0, 1), 2u);
  EXPECT_EQ(units.UnitBounds(0, 1, 0), (UnitRange{0, 1}));

  // Meet with the absolute spec erases every relaxation; join with the
  // fully relaxed spec grants all of them.
  const AtomicitySpec met =
      SpecBuilder(txns).RelaxAll().Meet(AbsoluteSpec(txns)).Build();
  EXPECT_EQ(met.UnitCount(0, 1), 1u);
  const AtomicitySpec joined = SpecBuilder(txns)
                                   .Join(FullyRelaxedSpec(txns))
                                   .Build();
  EXPECT_EQ(joined.UnitCount(0, 1), 4u);

  // FromSpec continues a chain from a family constructor's output.
  const AtomicitySpec extended = SpecBuilder::FromSpec(AbsoluteSpec(txns))
                                     .Breakpoint(0, 1, 1)
                                     .Build();
  EXPECT_TRUE(extended.HasBreakpoint(0, 1, 1));
  EXPECT_FALSE(extended.HasBreakpoint(0, 1, 0));
}

TEST(Builders, CompatibilitySets) {
  auto txns = ParseTransactionSet(
      "T1 = r1[x] w1[x]\nT2 = r2[x] w2[x]\nT3 = r3[x] w3[x]\n");
  // T1 and T2 share a set; T3 is alone.
  const AtomicitySpec spec = CompatibilitySetSpec(*txns, {0, 0, 1});
  EXPECT_EQ(spec.UnitCount(0, 1), 2u);  // fully relaxed within the set
  EXPECT_EQ(spec.UnitCount(1, 0), 2u);
  EXPECT_EQ(spec.UnitCount(0, 2), 1u);  // atomic across sets
  EXPECT_EQ(spec.UnitCount(2, 0), 1u);
  EXPECT_EQ(spec.UnitCount(2, 1), 1u);
}

TEST(Builders, MultilevelVisibilityByProximity) {
  auto txns = ParseTransactionSet(
      "T1 = r1[x] w1[x] r1[y]\nT2 = r2[x]\nT3 = r3[x]\n");
  // T1 and T2 share group path {0,0}; T3 is {1,0}.
  // T1's gap 0 has level 1 (same top group); gap 1 has level 0 (all).
  const AtomicitySpec spec = MultilevelSpec(
      *txns, {{0, 0}, {0, 0}, {1, 0}}, {{1, 0}, {}, {}});
  EXPECT_TRUE(spec.HasBreakpoint(0, 1, 0));   // T2 is close: sees level 1
  EXPECT_TRUE(spec.HasBreakpoint(0, 1, 1));   // level 0 visible to all
  EXPECT_FALSE(spec.HasBreakpoint(0, 2, 0));  // T3 too far for level 1
  EXPECT_TRUE(spec.HasBreakpoint(0, 2, 1));
}

TEST(Builders, MultilevelBreakpointSetsAreNested) {
  // Lynch's hierarchies guarantee that for any two observers, one's
  // breakpoint set contains the other's; verify on random instances.
  Rng rng(99);
  WorkloadParams wp;
  wp.txn_count = 6;
  wp.min_ops_per_txn = 3;
  wp.max_ops_per_txn = 6;
  const TransactionSet txns = GenerateTransactions(wp, &rng);
  for (int round = 0; round < 10; ++round) {
    const AtomicitySpec spec = RandomMultilevelSpec(txns, 3, 0.3, 0.5, &rng);
    for (TxnId i = 0; i < txns.txn_count(); ++i) {
      const std::size_t gaps = txns.txn(i).size() - 1;
      for (TxnId a = 0; a < txns.txn_count(); ++a) {
        for (TxnId b = 0; b < txns.txn_count(); ++b) {
          if (a == i || b == i || a == b) continue;
          bool a_superset = true;
          bool b_superset = true;
          for (std::uint32_t g = 0; g < gaps; ++g) {
            const bool in_a = spec.HasBreakpoint(i, a, g);
            const bool in_b = spec.HasBreakpoint(i, b, g);
            a_superset = a_superset && (in_b ? in_a : true);
            b_superset = b_superset && (in_a ? in_b : true);
          }
          EXPECT_TRUE(a_superset || b_superset)
              << "breakpoint sets of T" << i + 1 << " for T" << a + 1
              << " and T" << b + 1 << " are incomparable";
        }
      }
    }
  }
}

TEST(Builders, BreakpointSpecSetsExactGaps) {
  const TransactionSet txns = FourOpTxnPair();
  std::vector<std::vector<std::vector<std::uint32_t>>> breakpoints(2);
  breakpoints[0] = {{}, {0, 2}};
  breakpoints[1] = {{1}, {}};
  const AtomicitySpec spec = BreakpointSpec(txns, breakpoints);
  EXPECT_TRUE(spec.HasBreakpoint(0, 1, 0));
  EXPECT_FALSE(spec.HasBreakpoint(0, 1, 1));
  EXPECT_TRUE(spec.HasBreakpoint(0, 1, 2));
  EXPECT_TRUE(spec.HasBreakpoint(1, 0, 1));
  EXPECT_FALSE(spec.HasBreakpoint(1, 0, 0));
}

TEST(SpecGen, DensityExtremes) {
  Rng rng(1);
  WorkloadParams wp;
  wp.txn_count = 3;
  const TransactionSet txns = GenerateTransactions(wp, &rng);
  EXPECT_TRUE(RandomSpec(txns, 0.0, &rng).IsAbsolute());
  EXPECT_EQ(RandomSpec(txns, 1.0, &rng), FullyRelaxedSpec(txns));
  EXPECT_EQ(RandomUniformObserverSpec(txns, 1.0, &rng),
            FullyRelaxedSpec(txns));
}

TEST(SpecGen, UniformObserverGivesIdenticalViews) {
  Rng rng(2);
  WorkloadParams wp;
  wp.txn_count = 4;
  wp.min_ops_per_txn = 4;
  wp.max_ops_per_txn = 6;
  const TransactionSet txns = GenerateTransactions(wp, &rng);
  const AtomicitySpec spec = RandomUniformObserverSpec(txns, 0.5, &rng);
  for (TxnId i = 0; i < txns.txn_count(); ++i) {
    for (std::uint32_t g = 0; g + 1 < txns.txn(i).size(); ++g) {
      bool any = false;
      bool all = true;
      for (TxnId j = 0; j < txns.txn_count(); ++j) {
        if (i == j) continue;
        const bool has = spec.HasBreakpoint(i, j, g);
        any = any || has;
        all = all && has;
      }
      EXPECT_EQ(any, all) << "observer views differ at T" << i + 1
                          << " gap " << g;
    }
  }
}

TEST(SpecGen, DeterministicGivenSeed) {
  Rng rng1(7);
  Rng rng2(7);
  WorkloadParams wp;
  wp.txn_count = 3;
  const TransactionSet txns1 = GenerateTransactions(wp, &rng1);
  const TransactionSet txns2 = GenerateTransactions(wp, &rng2);
  EXPECT_EQ(RandomSpec(txns1, 0.5, &rng1), RandomSpec(txns2, 0.5, &rng2));
}


TEST(SpecAlgebra, MeetIsIntersectionJoinIsUnion) {
  const TransactionSet txns = FourOpTxnPair();
  AtomicitySpec a(txns);
  a.SetBreakpoint(0, 1, 0);
  a.SetBreakpoint(0, 1, 1);
  AtomicitySpec b(txns);
  b.SetBreakpoint(0, 1, 1);
  b.SetBreakpoint(0, 1, 2);
  const AtomicitySpec meet = MeetSpecs(a, b);
  EXPECT_FALSE(meet.HasBreakpoint(0, 1, 0));
  EXPECT_TRUE(meet.HasBreakpoint(0, 1, 1));
  EXPECT_FALSE(meet.HasBreakpoint(0, 1, 2));
  const AtomicitySpec join = JoinSpecs(a, b);
  EXPECT_TRUE(join.HasBreakpoint(0, 1, 0));
  EXPECT_TRUE(join.HasBreakpoint(0, 1, 1));
  EXPECT_TRUE(join.HasBreakpoint(0, 1, 2));
}

TEST(SpecAlgebra, LatticeLawsOnRandomSpecs) {
  Rng rng(404);
  WorkloadParams wp;
  wp.txn_count = 4;
  wp.min_ops_per_txn = 2;
  wp.max_ops_per_txn = 5;
  const TransactionSet txns = GenerateTransactions(wp, &rng);
  for (int round = 0; round < 20; ++round) {
    const AtomicitySpec a = RandomSpec(txns, 0.4, &rng);
    const AtomicitySpec b = RandomSpec(txns, 0.4, &rng);
    const AtomicitySpec meet = MeetSpecs(a, b);
    const AtomicitySpec join = JoinSpecs(a, b);
    // Bounds.
    EXPECT_TRUE(a.AtLeastAsPermissiveAs(meet));
    EXPECT_TRUE(b.AtLeastAsPermissiveAs(meet));
    EXPECT_TRUE(join.AtLeastAsPermissiveAs(a));
    EXPECT_TRUE(join.AtLeastAsPermissiveAs(b));
    // Commutativity and idempotence.
    EXPECT_EQ(meet, MeetSpecs(b, a));
    EXPECT_EQ(join, JoinSpecs(b, a));
    EXPECT_EQ(MeetSpecs(a, a), a);
    EXPECT_EQ(JoinSpecs(a, a), a);
    // Absorption.
    EXPECT_EQ(MeetSpecs(a, JoinSpecs(a, b)), a);
    EXPECT_EQ(JoinSpecs(a, MeetSpecs(a, b)), a);
    // Identities of the lattice ends.
    EXPECT_EQ(MeetSpecs(a, FullyRelaxedSpec(txns)), a);
    EXPECT_EQ(JoinSpecs(a, AbsoluteSpec(txns)), a);
  }
}

}  // namespace
}  // namespace relser
