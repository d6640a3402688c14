// The admitter's decision policy, applied serially on one thread: the
// reference every single-threaded admission test compares against.
//
// Policy (shard/sharded_admitter.h): an operation is certified by an
// OnlineRsrChecker; a rejection aborts its transaction — the accepted
// prefix is withdrawn exactly (RemoveTransactionExact) — and
// cascade-aborts every live transaction that read one of its writes,
// transitively; operations of dead transactions are answered with the
// death outcome; a transaction commits, and becomes immune to abort,
// when its program-order-last operation is accepted. A committed
// dirty reader of an aborted writer cannot be cascaded and counts as an
// unrecoverable read (once per recorded dirty read). Client aborts
// (Abort) follow the same kill path.
#ifndef RELSER_TESTS_SERIAL_ORACLE_H_
#define RELSER_TESTS_SERIAL_ORACLE_H_

#include <cstdint>
#include <vector>

#include "core/admit.h"
#include "core/online.h"
#include "model/schedule.h"
#include "shard/router.h"
#include "spec/atomicity_spec.h"

namespace relser {

// The single-core admitter configuration: one range shard over every
// object (ShardedAdmitter's projection is then the identity).
inline ShardRouter SingleShard(const TransactionSet& txns) {
  return ShardRouter(txns.object_count(), 1, ShardStrategy::kRange);
}

// Round-robin interleaving of all transactions' operations: a canonical
// single-thread feed order that respects each transaction's program
// order (the admitter's feeding contract).
inline std::vector<Operation> RoundRobinFeed(const TransactionSet& txns) {
  std::vector<Operation> feed;
  bool progress = true;
  for (std::uint32_t i = 0; progress; ++i) {
    progress = false;
    for (TxnId t = 0; t < txns.txn_count(); ++t) {
      if (i < txns.txn(t).size()) {
        feed.push_back(txns.txn(t).op(i));
        progress = true;
      }
    }
  }
  return feed;
}

class SerialOracle {
 public:
  SerialOracle(const TransactionSet& txns, const AtomicitySpec& spec)
      : txns_(txns),
        checker_(txns, spec),
        state_(txns.txn_count(), kLive),
        last_writer_(txns.object_count(), kNone),
        readers_of_(txns.txn_count()) {}

  /// Decides `op` (fed in program order): kAccept, kReject (the
  /// transaction is aborted), or the death outcome of an already-dead
  /// transaction. A committed transaction's straggler is rejected.
  AdmitOutcome Submit(const Operation& op) {
    if (state_[op.txn] == kCommitted) return AdmitOutcome::kReject;
    if (state_[op.txn] == kDead) return AdmitOutcome::kAborted;
    if (!checker_.TryAppend(op).ok()) {
      Kill(op.txn);
      return AdmitOutcome::kReject;
    }
    ++accepted_;
    admitted_.push_back(op);
    if (op.is_write()) {
      last_writer_[op.object] = op.txn;
    } else {
      const TxnId writer = last_writer_[op.object];
      if (writer != kNone && writer != op.txn && state_[writer] == kLive) {
        readers_of_[writer].push_back(op.txn);
      }
    }
    if (op.index + 1 == txns_.txn(op.txn).size()) state_[op.txn] = kCommitted;
    return AdmitOutcome::kAccept;
  }

  /// Client abort: kReject when `txn` already committed (commits are
  /// irrevocable), otherwise kAborted (killing it if still live).
  AdmitOutcome Abort(TxnId txn) {
    if (state_[txn] == kCommitted) return AdmitOutcome::kReject;
    Kill(txn);
    return AdmitOutcome::kAborted;
  }

  bool committed(TxnId txn) const { return state_[txn] == kCommitted; }
  std::size_t accepted() const { return accepted_; }
  std::uint64_t unrecoverable_reads() const { return unrecoverable_reads_; }
  const OnlineRsrChecker& checker() const { return checker_; }

  /// Every operation of every committed transaction, in admission order.
  std::vector<Operation> CommittedLog() const {
    std::vector<Operation> log;
    for (const Operation& op : admitted_) {
      if (state_[op.txn] == kCommitted) log.push_back(op);
    }
    return log;
  }

 private:
  static constexpr TxnId kNone = ~static_cast<TxnId>(0);
  enum : std::uint8_t { kLive, kCommitted, kDead };

  void Kill(TxnId root) {
    std::vector<TxnId> stack{root};
    while (!stack.empty()) {
      const TxnId t = stack.back();
      stack.pop_back();
      if (state_[t] != kLive) continue;
      state_[t] = kDead;
      if (checker_.TxnHasExecuted(t)) checker_.RemoveTransactionExact(t);
      for (const TxnId reader : readers_of_[t]) {
        if (state_[reader] == kLive) {
          stack.push_back(reader);
        } else if (state_[reader] == kCommitted) {
          ++unrecoverable_reads_;
        }
      }
      readers_of_[t].clear();
    }
    // The withdrawals moved object frontiers; re-derive the writer table
    // from the checker, the authority on what survived.
    const auto objects = static_cast<ObjectId>(last_writer_.size());
    for (ObjectId o = 0; o < objects; ++o) {
      if (last_writer_[o] == kNone || state_[last_writer_[o]] != kDead) {
        continue;
      }
      const std::size_t gid = checker_.FrontierWriterGid(o);
      last_writer_[o] = gid == OnlineRsrChecker::kNoOp
                            ? kNone
                            : txns_.OpByGlobalId(gid).txn;
    }
  }

  const TransactionSet& txns_;
  OnlineRsrChecker checker_;
  std::vector<std::uint8_t> state_;
  std::vector<TxnId> last_writer_;
  std::vector<std::vector<TxnId>> readers_of_;
  std::vector<Operation> admitted_;
  std::size_t accepted_ = 0;
  std::uint64_t unrecoverable_reads_ = 0;
};

// Accept (true) / not (false) for each operation of `feed`, decided by
// the serial policy.
inline std::vector<bool> SerialDecisions(const TransactionSet& txns,
                                         const AtomicitySpec& spec,
                                         const std::vector<Operation>& feed) {
  SerialOracle oracle(txns, spec);
  std::vector<bool> decisions;
  decisions.reserve(feed.size());
  for (const Operation& op : feed) {
    decisions.push_back(oracle.Submit(op) == AdmitOutcome::kAccept);
  }
  return decisions;
}

}  // namespace relser

#endif  // RELSER_TESTS_SERIAL_ORACLE_H_
