// Sharded workload generation: transaction sets with a controllable
// cross-shard footprint.
//
// The sharded admission subsystem (src/shard/) keys everything on which
// shards a transaction touches, so its tests and perfbench need a
// generator where that is a first-class knob rather than an accident of
// uniform sampling. Under a RANGE router (shard/router.h) each shard
// owns a contiguous object range; every transaction here draws a home
// shard uniformly and then, per access, *escapes* to a uniformly-chosen
// foreign shard with probability `cross_shard_ratio` — within the chosen
// shard the object is Zipf-distributed over the shard's range with skew
// `zipf_theta` (the same hot-prefix contention model as
// workload/generator.h, applied per shard). cross_shard_ratio = 0 gives
// perfectly partitionable traffic (the coordinator stays silent);
// raising it grows the multi-shard transaction population and with it
// the coordinator's mirrored-arc load.
#ifndef RELSER_WORKLOAD_SHARD_GEN_H_
#define RELSER_WORKLOAD_SHARD_GEN_H_

#include <cstdint>

#include "model/transaction.h"
#include "util/rng.h"

namespace relser {

/// Knobs for GenerateShardedTransactions.
struct ShardedWorkloadParams {
  std::size_t txn_count = 16;
  std::size_t min_ops_per_txn = 2;  ///< inclusive
  std::size_t max_ops_per_txn = 6;  ///< inclusive
  std::size_t shard_count = 4;
  std::size_t objects_per_shard = 16;
  /// Probability an access leaves its transaction's home shard.
  double cross_shard_ratio = 0.1;
  double zipf_theta = 0.0;   ///< per-shard object skew (0 = uniform)
  double read_ratio = 0.5;   ///< probability an access is a read
  /// Read-only transaction ratio, exactly as in WorkloadParams:
  /// negative (default) = legacy stream; >= 0 partitions transactions
  /// into read-only (all reads) with this probability vs. guaranteed
  /// writers (at least one write, last access flipped if needed).
  double read_only_txn_ratio = -1.0;
};

/// Generates a transaction set over `shard_count * objects_per_shard`
/// objects, laid out so that `ShardRouter(total, shard_count,
/// ShardStrategy::kRange)` puts object o on shard o / objects_per_shard.
/// Deterministic given the Rng.
TransactionSet GenerateShardedTransactions(const ShardedWorkloadParams& params,
                                           Rng* rng);

}  // namespace relser

#endif  // RELSER_WORKLOAD_SHARD_GEN_H_
