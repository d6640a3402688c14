// Per-object multiversion store: the state behind the snapshot-read
// fast path.
//
// The single-version construction (Definition 3) runs every operation —
// including pure reads — through the checker, so read-only transactions
// serialize through the same Pearce–Kelly hot path as writers. The
// multiversion layer keeps epoch-stamped committed versions per object
// plus one piece of *monotone* shared state per object — the count of
// not-yet-finished static writers — and admits a read-only transaction
// entirely from the committed snapshot when that count has drained to
// zero for every object it reads.
//
// Admissibility criterion (conservative, see docs/mvcc.md):
//
//   A read-only transaction R is *snapshot-admissible* iff every
//   transaction in the workload whose write set intersects read(R) has
//   finished (committed or aborted) at classification time.
//
// Soundness sketch: conflicts only pair R's reads with *finished* writes,
// and every RSG arc such a conflict induces (Definition 3 rules 2–4:
// D-arc u→v, F-arc PushForward(u,txn(v))→v, B-arc u→PullBackward(v,
// txn(u))) points from the writer's transaction *into* R — R's only
// outgoing arcs are its internal I-arcs. Appending R at its watermark
// position therefore can never close an RSG cycle, for *any* atomicity
// specification, so R admits with exactly zero cross-transaction arcs
// and zero cycle-check work. This is strictly conservative relative to
// brute-force multiversion admissibility (tests/mvcc_test.cc runs the
// differential); the robustness line of Vandevoort/Ketsman/Neven
// (arXiv 2403.17665) is the roadmap for admitting reads *over* live
// writers, which this criterion never attempts.
//
// Concurrency contract:
//   * Construction precomputes per-transaction read/write object lists
//     and per-object static-writer counts from the upfront
//     TransactionSet; after that, classification (`IsReadOnly` +
//     `ReadSetSettled` + `watermark`) is lock-free — clients race freely
//     against committing cores.
//   * `NoteCommit` / `NoteAbort` are called by admission cores (any
//     thread), at most once per transaction (idempotent via a finished
//     flag). The unfinished-writer decrement is the release edge the
//     classifying reader acquires: once a reader observes zero for all
//     its objects, every such writer's commit epoch is visible and is
//     <= the watermark the reader subsequently loads.
//   * The version arena is SoA (epoch / writer / prev columns) guarded
//     by one mutex; pruned slots go on a free list that later versions
//     reuse. The epoch counter is bumped under the same mutex so
//     per-object chains are strictly epoch-descending from the head.
#ifndef RELSER_CORE_MVCC_VERSION_STORE_H_
#define RELSER_CORE_MVCC_VERSION_STORE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "model/transaction.h"
#include "obs/trace.h"

namespace relser {

/// One snapshot admission, as logged by the admitting client.
struct SnapshotAdmitRecord {
  TxnId txn = 0;
  /// Committed watermark at admission: the reader sees exactly the first
  /// `epoch` commits, and belongs immediately after commit #epoch in any
  /// equivalent single-version history.
  std::uint64_t epoch = 0;
  /// Caller-supplied total-order stamp (admission stamp in the
  /// admitter, a private sequence elsewhere) used to splice the reader
  /// into the merged committed log.
  std::uint64_t stamp = 0;
};

/// Roll-up of the per-object version-chain length distribution.
struct VersionChainStats {
  std::uint64_t versions = 0;            ///< committed versions appended
  std::uint64_t objects_with_versions = 0;
  std::uint64_t max_chain = 0;
  double p50_chain = 0.0;
  double p99_chain = 0.0;
};

class VersionStore {
 public:
  explicit VersionStore(const TransactionSet& txns);

  VersionStore(const VersionStore&) = delete;
  VersionStore& operator=(const VersionStore&) = delete;

  /// True iff the transaction's program contains no writes.
  bool IsReadOnly(TxnId txn) const { return read_only_[txn] != 0; }

  /// True iff every static writer of every object `txn` reads has
  /// finished. Monotone: once true it stays true. Lock-free.
  bool ReadSetSettled(TxnId txn) const;

  /// Number of committed transactions whose versions are visible.
  std::uint64_t watermark() const {
    return watermark_.load(std::memory_order_acquire);
  }

  /// Records `txn`'s commit: assigns the next epoch, appends one version
  /// per written object, then release-decrements the unfinished-writer
  /// counters. Idempotent; thread-safe.
  void NoteCommit(TxnId txn);

  /// Records `txn`'s abort: release-decrements its write set's
  /// unfinished-writer counters (an aborted writer can never produce a
  /// version, so readers need not wait on it). Idempotent; thread-safe.
  void NoteAbort(TxnId txn);

  /// Logs a snapshot admission (thread-safe) and bumps snapshot_admits.
  void LogSnapshotAdmit(TxnId txn, std::uint64_t epoch, std::uint64_t stamp);

  /// Copy of the admit log, ordered by stamp.
  std::vector<SnapshotAdmitRecord> SnapshotAdmits() const;

  /// Counts a read-only transaction that failed classification exactly
  /// once; returns true the first time it is called for `txn` (the
  /// caller then routes the transaction through the checker).
  bool TryCountEscalation(TxnId txn);

  std::uint64_t snapshot_admits() const {
    return snapshot_admits_.load(std::memory_order_relaxed);
  }
  std::uint64_t snapshot_escalations() const {
    return snapshot_escalations_.load(std::memory_order_relaxed);
  }

  /// Committed writer of `object` visible at `epoch`, as txn id + 1
  /// (0 = the initial version: no commit <= epoch wrote it).
  std::uint32_t VisibleWriter(ObjectId object, std::uint64_t epoch) const;

  /// Committed versions of `object` so far.
  std::uint64_t ChainLength(ObjectId object) const;

  /// Watermark GC: cuts every per-object chain to the versions still
  /// reachable by a snapshot at or above epoch `floor` — everything with
  /// epoch > floor plus the newest version with epoch <= floor (the one
  /// a floor-or-later snapshot resolves to), walking only chains of two
  /// or more versions. VisibleWriter stays exact
  /// for every epoch >= floor; epochs below the floor may resolve to the
  /// retained <=floor version instead of their historical one, so the
  /// caller must pass a floor no greater than any epoch it still queries
  /// exactly (the epoch manager's watermark qualifies: settled snapshot
  /// readers have finished, live ones admitted at or above it).
  /// Admission decisions never read chains — classification uses only
  /// the unfinished-writer counters and the watermark — so pruning is
  /// decision-neutral by construction. Returns versions dropped.
  std::uint64_t PruneBelow(std::uint64_t floor);

  /// The largest floor PruneBelow may take without losing exactness for
  /// any snapshot reader that could still be queried: the minimum
  /// admission epoch over UNSETTLED snapshot admissions (per `settled`,
  /// epoch/epoch.h's view), or the current watermark when none is
  /// pending — future readers admit at or above the watermark, and
  /// settled readers are fully resolved. Forgets the admissions it finds
  /// settled, so it walks only those not yet seen settled.
  std::uint64_t SafePruneFloor(const std::atomic<std::uint8_t>* settled);

  /// Cumulative versions dropped by PruneBelow.
  std::uint64_t versions_pruned() const;
  /// Versions currently held in the arena (appends minus pruned) — the
  /// long-lived memory gauge.
  std::uint64_t retained_versions() const;

  /// Distribution over per-object chain lengths, one sample per version
  /// append (i.e. chain length at append time).
  VersionChainStats ChainStats() const;

  /// Relaxed peek at an object's unfinished static-writer count (tests).
  std::uint32_t UnfinishedWriters(ObjectId object) const {
    return unfinished_writers_[object].load(std::memory_order_relaxed);
  }

 private:
  // Flattened unique object lists: txn t's entries are
  // flat[offsets[t] .. offsets[t+1]).
  struct FlatLists {
    std::vector<std::uint32_t> offsets;
    std::vector<ObjectId> flat;
  };
  static void Append(FlatLists* lists, const std::vector<ObjectId>& objs);

  std::vector<std::uint8_t> read_only_;
  FlatLists reads_;
  FlatLists writes_;

  std::vector<std::atomic<std::uint32_t>> unfinished_writers_;
  std::atomic<std::uint64_t> watermark_{0};
  std::vector<std::atomic<std::uint8_t>> finished_;
  std::vector<std::atomic<std::uint8_t>> escalated_;

  // Version arena (SoA columns), mutex-guarded; heads_[obj] is
  // 1 + index of the newest version (0 = none). A freed slot links to
  // the next free one through version_prev_.
  mutable std::mutex arena_mutex_;
  std::vector<std::uint32_t> heads_;
  std::vector<std::uint64_t> version_epoch_;
  std::vector<TxnId> version_writer_;
  std::vector<std::uint32_t> version_prev_;
  std::uint32_t free_head_ = 0;  // 1 + first free slot, 0 = none
  std::uint64_t free_count_ = 0;
  // Objects whose chain holds two or more versions (PruneBelow's work).
  std::vector<ObjectId> multi_;
  std::vector<std::uint8_t> multi_mark_;
  std::vector<std::uint32_t> chain_len_;
  LatencyHistogram chain_hist_;  // samples are chain lengths, not ns
  std::uint64_t max_chain_ = 0;
  std::uint64_t objects_with_versions_ = 0;
  std::uint64_t versions_pruned_ = 0;

  mutable std::mutex log_mutex_;
  std::vector<SnapshotAdmitRecord> admit_log_;
  std::vector<SnapshotAdmitRecord> unsettled_admits_;  // SafePruneFloor's
  std::atomic<std::uint64_t> snapshot_admits_{0};
  std::atomic<std::uint64_t> snapshot_escalations_{0};
};

}  // namespace relser

#endif  // RELSER_CORE_MVCC_VERSION_STORE_H_
