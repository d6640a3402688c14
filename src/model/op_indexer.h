// OpIndexer: O(1) mapping between operations and dense global op ids.
//
// TransactionSet::GlobalOpId and OpByGlobalId rebuild their prefix sums
// on every call so they stay correct while transactions are still being
// built. Hot paths (RSG construction touches O(n^2) pairs, the online
// certifiers resolve several gids per admitted operation) instead
// snapshot the numbering once with an OpIndexer: GlobalId is one add,
// and Op/TxnOf are one load from a flat gid -> operation table.
#ifndef RELSER_MODEL_OP_INDEXER_H_
#define RELSER_MODEL_OP_INDEXER_H_

#include <vector>

#include "model/transaction.h"

namespace relser {

/// Immutable snapshot of a TransactionSet's operation numbering.
class OpIndexer {
 public:
  /// Snapshots `txns`; the set must not grow while the indexer is in use.
  explicit OpIndexer(const TransactionSet& txns) {
    offsets_.reserve(txns.txn_count() + 1);
    offsets_.push_back(0);
    for (const Transaction& txn : txns.txns()) {
      offsets_.push_back(offsets_.back() + txn.size());
    }
    ops_.reserve(offsets_.back());
    for (const Transaction& txn : txns.txns()) {
      for (const Operation& op : txn.ops()) ops_.push_back(&op);
    }
  }

  /// Global id of o_{txn,index}.
  std::size_t GlobalId(TxnId txn, std::uint32_t index) const {
    RELSER_DCHECK(txn + 1 < offsets_.size());
    RELSER_DCHECK(offsets_[txn] + index < offsets_[txn + 1]);
    return offsets_[txn] + index;
  }
  std::size_t GlobalId(const Operation& op) const {
    return GlobalId(op.txn, op.index);
  }

  /// The operation with global id `gid` (the inverse of GlobalId).
  const Operation& Op(std::size_t gid) const {
    RELSER_DCHECK(gid < ops_.size());
    return *ops_[gid];
  }

  /// Transaction owning global id `gid`.
  TxnId TxnOf(std::size_t gid) const { return Op(gid).txn; }

  /// First global id of transaction `txn`.
  std::size_t TxnBegin(TxnId txn) const { return offsets_[txn]; }
  /// One past the last global id of transaction `txn`.
  std::size_t TxnEnd(TxnId txn) const { return offsets_[txn + 1]; }

  std::size_t total_ops() const { return offsets_.back(); }
  std::size_t txn_count() const { return offsets_.size() - 1; }

 private:
  std::vector<std::size_t> offsets_;
  std::vector<const Operation*> ops_;  // gid -> operation in the set
};

}  // namespace relser

#endif  // RELSER_MODEL_OP_INDEXER_H_
