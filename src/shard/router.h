// ShardRouter: the data-item partitioning map of the sharded admission
// subsystem (src/shard/).
//
// Conflicts in the paper's model are per data item (Section 2: two
// operations conflict only when they access the same object), so the
// D-arc workload of the online RSG test decomposes naturally across a
// partition of the object space: every direct conflict lands on exactly
// one shard. The router owns that partition — a pure, immutable
// ObjectId -> shard map — plus the transaction-level facts derived from
// it that the rest of the subsystem keys on: which shards a transaction
// touches, whether it is multi-shard (the coordinator's unit of
// interest), and how many of its operations live on each shard.
//
// Two strategies:
//   kHash   — multiplicative hash of the object id; spreads hot ranges,
//             the default for skewed (Zipf) workloads.
//   kRange  — contiguous object ranges; keeps related keys colocated and
//             makes cross-shard traffic directly controllable, which the
//             sharded workload generator (workload/shard_gen.h) and
//             perfbench's two-shard workloads exploit.
#ifndef RELSER_SHARD_ROUTER_H_
#define RELSER_SHARD_ROUTER_H_

#include <cstdint>
#include <vector>

#include "model/transaction.h"
#include "util/rng.h"

namespace relser {

/// Object-partitioning strategy.
enum class ShardStrategy : std::uint8_t { kHash, kRange };

/// Stable lowercase name ("hash", "range").
const char* ShardStrategyName(ShardStrategy strategy);

/// Immutable ObjectId -> shard partition over a fixed object universe.
///
/// The map is computed, not materialized: ShardOf is a pure function of
/// (object, shard_count, object_count), so routing for 10^6 objects costs
/// a few registers instead of a 4 MB table that evicts the admission
/// core's working set on every lookup. Both formulas are the ones the
/// table was previously filled with, so shard assignments — and every
/// test or bench keyed on them — are unchanged.
class ShardRouter {
 public:
  /// Partitions `object_count` objects across `shard_count` shards
  /// (`shard_count` >= 1; objects may be zero for degenerate sets).
  ShardRouter(std::size_t object_count, std::size_t shard_count,
              ShardStrategy strategy = ShardStrategy::kHash);

  std::size_t shard_count() const { return shard_count_; }
  std::size_t object_count() const { return object_count_; }
  ShardStrategy strategy() const { return strategy_; }

  /// The shard owning `object`; O(1), stateless.
  std::uint32_t ShardOf(ObjectId object) const {
    RELSER_DCHECK(object < object_count_);
    if (strategy_ == ShardStrategy::kRange) {
      return static_cast<std::uint32_t>(object * shard_count_ /
                                        object_count_);
    }
    // SplitMix64 as a stateless mixer: full-avalanche, so consecutive
    // object ids (the hot prefix under Zipf skew) land on unrelated
    // shards.
    std::uint64_t state = 0x5A4D0000ULL + object;
    return static_cast<std::uint32_t>(SplitMix64(&state) % shard_count_);
  }

  /// Objects owned by each shard (for load inspection / tests).
  std::vector<std::size_t> ObjectsPerShard() const;

 private:
  std::size_t shard_count_;
  std::size_t object_count_;
  ShardStrategy strategy_;
};

/// Per-transaction routing facts derived from a router and a set:
/// which shards each transaction touches and with how many operations.
class TxnSpans {
 public:
  TxnSpans(const TransactionSet& txns, const ShardRouter& router);

  /// Shards transaction `txn` has at least one operation on, ascending.
  const std::vector<std::uint32_t>& ShardsOf(TxnId txn) const {
    return shards_of_[txn];
  }

  /// True iff `txn` touches operations on two or more shards — the
  /// transactions whose program-order (F/B) glue the coordinator mirrors.
  bool MultiShard(TxnId txn) const { return shards_of_[txn].size() > 1; }

  /// Number of operations of `txn` on `shard`.
  std::size_t OpsOn(TxnId txn, std::uint32_t shard) const;

  /// Count of multi-shard transactions in the set.
  std::size_t multi_shard_count() const { return multi_shard_count_; }

 private:
  std::size_t shard_count_;
  std::vector<std::vector<std::uint32_t>> shards_of_;   // txn -> shards
  std::vector<std::vector<std::size_t>> ops_on_;        // txn -> per-shard n
  std::size_t multi_shard_count_ = 0;
};

}  // namespace relser

#endif  // RELSER_SHARD_ROUTER_H_
