// OnlineRsrChecker: a streaming certifier for relative serializability.
//
// Feeds one operation at a time (in each transaction's program order,
// arbitrary interleaving across transactions) and maintains the relative
// serialization graph incrementally: an operation is accepted iff the
// graph stays acyclic, i.e. iff the executed prefix remains relatively
// serializable (Theorem 1 applied online). Rejected operations leave the
// checker unchanged, so the caller may retry, drop, or abort.
//
// This is the reusable core of the paper's proposed SGT-style protocol
// (Section 3): RSGTScheduler wraps it with the simulator's abort /
// restart bookkeeping, and offline tools use FirstRejection to locate the
// earliest operation at which a schedule leaves the class.
//
// Admission is frontier-pruned and allocation-free in the steady state:
// instead of materializing each operation's transitive ancestor set as a
// bitset and emitting a D/F/B arc triple per transitive ancestor (the
// original formulation, preserved in core/online_baseline.h), the checker
// keeps per object only the conflict frontier (last writer + readers
// since it), per operation a sparse row of (transaction, maximum ancestor
// index) entries drawn from a recycling slab, and per transaction pair a
// memo of the furthest F/B arcs already emitted. Dominated arcs are never
// inserted; docs/hotpath.md proves the transitive closure — and therefore
// every accept/reject decision — is bit-identical to the full emission.
// An append costs time in the ancestor transactions it has plus its
// object's frontier, not in the transaction count.
// Aborts take one path, RemoveTransactionExact, used by the admitter's
// abort/cascade machinery and the simulator's RSGT scheduler alike: the
// post-abort state is bit-identical (StateDigest, and the topological
// order) to a checker that never saw the aborted transaction —
// differentially tested by tests/fault_test.cc. It rolls an undo journal
// of accepted appends back to the victim's first admission and silently
// re-admits the surviving suffix, so it costs time in proportion to the
// ops admitted since then (docs/hotpath.md, abort section).
//
// Decisions are reported as AdmitResult (core/admit.h): kAccept commits
// the arcs, kReject leaves the state unchanged and carries the
// witnessing arc, and TryAppendIsolated's kRetry means "ineligible for
// the fast path, fall back to TryAppend".
#ifndef RELSER_CORE_ONLINE_H_
#define RELSER_CORE_ONLINE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/admit.h"
#include "graph/dynamic_topo.h"
#include "model/op_indexer.h"
#include "model/schedule.h"
#include "spec/atomicity_spec.h"
#include "util/flat_map.h"
#include "util/undo_log.h"

namespace relser {

class Tracer;

/// Incremental relative-serializability certification.
class OnlineRsrChecker {
 public:
  /// `txns` and `spec` must outlive the checker.
  OnlineRsrChecker(const TransactionSet& txns, const AtomicitySpec& spec);
  /// Guard against binding a temporary specification.
  OnlineRsrChecker(const TransactionSet&, AtomicitySpec&&) = delete;

  /// Attempts to append `op`, which must be the next unfed operation of
  /// its transaction. Returns kAccept (arcs committed) when the extended
  /// prefix is still relatively serializable; kReject (state unchanged,
  /// witnessing arc filled in) otherwise.
  AdmitResult TryAppend(const Operation& op);

  /// Fast-path variant for operations that provably cannot conflict:
  /// returns kAccept and commits `op` (identically to TryAppend) when
  /// its transaction is *isolated* — no cross-transaction RSG arc has
  /// ever touched any of its nodes — and its object's conflict frontier
  /// is empty or owned by the same transaction. Under those conditions
  /// the only new arc is the program-order I-arc into a fresh sink node,
  /// which cannot close a cycle, so acceptance is guaranteed and the
  /// F/B memo scan is skipped entirely. Returns kRetry — with the
  /// checker unchanged — when the preconditions do not hold; the caller
  /// then falls back to the full TryAppend. Never rejects. Same feeding
  /// contract as TryAppend (next unfed op, program order).
  AdmitResult TryAppendIsolated(const Operation& op);

  /// True while no cross-transaction arc has ever been incident on a
  /// node of `txn` (the TryAppendIsolated eligibility bit).
  bool TxnIsolated(TxnId txn) const { return safe_[txn] != 0; }

  /// Abort: forgets every fed operation of `txn` and restores the
  /// checker to the state of a fresh checker fed the surviving feed (the
  /// accepted operations, in their original admission order, minus
  /// `txn`'s): bit-identical StateDigest and topological order, so
  /// repeated abort/cascade storms cannot accumulate conservatism. A
  /// transaction with no executed operation is a no-op.
  ///
  /// Cost. Every accepted append is journaled (memo upserts, cleared safe
  /// bits and flags, ancestor-row acquire/release, frontier changes, object
  /// creation, executed/feed bookkeeping, and the topology's edges and
  /// Pearce-Kelly moves). The journal starts at the first feed position
  /// whose transaction is still incomplete; the entries of rows released
  /// after that point are held until the start moves past them.
  /// A budget of 32 entries per operation of the transaction set (at
  /// least 2^14) caps it: past that, the start moves on regardless. When
  /// the victim's first operation lies inside the journal, the abort
  /// undoes the appends back to that position and silently re-admits the
  /// surviving suffix: O(ops admitted since the victim's first op).
  /// Otherwise (a victim older than the journal start) it falls back to
  /// a full reset plus a silent replay of every survivor, which also
  /// rebuilds the journal. Every survivor re-admits, because the survivor-
  /// restricted RSG is a subgraph of the original acyclic graph.
  ///
  /// Counters: rejections(), arcs_submitted() and arcs_inserted_total()
  /// do not count the restoration replay, so they read the same whichever
  /// path ran. An attached tracer records the re-admitted op count and
  /// whether the full replay ran (Tracer::RecordAbortReplay).
  void RemoveTransactionExact(TxnId txn);

  /// Epoch-driven truncation (checkpoint): forgets every fed operation
  /// whose transaction has settled per `settled` (one atomic byte per
  /// transaction, epoch/epoch.h's view; read with relaxed loads). Like
  /// RemoveTransactionExact's fallback this is a full reset plus a silent
  /// replay of the surviving (unsettled) feed, so the result is bit-identical
  /// (StateDigest) to a fresh checker fed only the survivors. Soundness:
  /// a settled transaction is finished and frontier-unreachable, so (a)
  /// it never appends again — its cleared executed_ bits are never
  /// re-fed — and (b) no future operation can acquire an arc to or from
  /// its nodes: its ops have left every conflict frontier reachable by
  /// live transactions, and the F/B memo rows that could re-emit arcs
  /// from it require a D-arc ancestor entry that no live frontier can
  /// produce any more. Dropping its rows therefore never changes a
  /// future accept/reject decision or witness (the GC differential test
  /// checks this bit-for-bit). Returns the number of feed entries
  /// dropped (0 = no settled history, state untouched).
  std::size_t Truncate(const std::atomic<std::uint8_t>* settled);


  /// Retained-state gauges for long-lived memory accounting
  /// (bench_longlived): accepted operations currently remembered,
  /// ancestor-row slots allocated in the slab, and F/B memo entries.
  std::size_t retained_ops() const { return feed_log_.size(); }
  std::size_t pool_rows() const { return slot_owner_.size(); }
  std::size_t memo_entries() const { return memo_.size(); }

  /// Order-insensitive FNV-1a digest of the complete admission state:
  /// executed set, safe bits, newest-op table, per-object frontiers,
  /// retained ancestor arrays, F/B memo and graph adjacency. Two
  /// checkers over the same TransactionSet/spec digest equal iff their
  /// future accept/reject behavior is identical state-wise; the
  /// fault-injection tests compare post-RemoveTransactionExact digests
  /// against rebuilt-from-scratch checkers.
  std::uint64_t StateDigest() const;

  /// True while any operation of `txn` is currently executed (fed and
  /// not removed).
  bool TxnHasExecuted(TxnId txn) const { return newest_gid_[txn] != kNoGid; }

  /// Global id of the frontier writer (last executed, still-present
  /// write) of `object`, or kNoOp when none / object untouched. Lets the
  /// admitter rebuild its reads-from bookkeeping after an abort.
  static constexpr std::size_t kNoOp = ~static_cast<std::size_t>(0);
  std::size_t FrontierWriterGid(ObjectId object) const;

  /// Appends the global ids of `object`'s frontier readers (executed
  /// reads since the frontier writer, feed order) to `out`. Together
  /// with FrontierWriterGid this is the complete conflict frontier —
  /// the admitter rebuilds its per-object conflict-arc
  /// bookkeeping from it after an abort.
  void FrontierReaders(ObjectId object, std::vector<std::size_t>* out) const;

  /// The accepted operations still present, as global ids in admission
  /// order (the "surviving feed" RemoveTransactionExact replays).
  const std::vector<std::size_t>& feed_log() const { return feed_log_; }

  /// True iff o_{txn,index} has been fed and accepted.
  bool Executed(TxnId txn, std::uint32_t index) const {
    return executed_[indexer_.GlobalId(txn, index)] != 0;
  }

  /// Number of operations currently accepted.
  std::size_t executed_count() const { return executed_count_; }

  /// Cycle rejections so far.
  std::size_t rejections() const { return rejections_; }

  /// Cumulative arcs handed to the topology (after frontier pruning) by
  /// accepted appends, and of those the arcs actually inserted
  /// (deduplicated, committed). Like rejections(), neither counts the
  /// silent replays of RemoveTransactionExact and Truncate; arcs of
  /// appends later rolled back stay counted.
  std::size_t arcs_submitted() const { return arcs_submitted_; }
  std::size_t arcs_inserted_total() const { return arcs_inserted_total_; }

  /// The maintained graph (for diagnostics / DOT export).
  const IncrementalTopology& topology() const { return topo_; }
  const OpIndexer& indexer() const { return indexer_; }

  /// Attaches an observability collector (obs/trace.h); nullptr detaches.
  /// With no tracer (the default) every hook costs one pointer compare;
  /// at TraceLevel::kFull each arc handed to the topology is recorded
  /// with its I/D/F/B kind and each rejection attaches a TraceCause
  /// naming the witnessing arc that closed the cycle.
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

  /// Streams `schedule` through a fresh checker; returns the position of
  /// the first rejected operation, or schedule.size() when the whole
  /// schedule is accepted (equivalently: is relatively serializable).
  static std::size_t FirstRejection(const TransactionSet& txns,
                                    const AtomicitySpec& spec,
                                    const Schedule& schedule);

 private:
  static constexpr std::size_t kNoGid = ~static_cast<std::size_t>(0);
  static constexpr std::uint32_t kNoSlot = ~static_cast<std::uint32_t>(0);
  static constexpr std::uint8_t kNewestFlag = 1;    // newest executed of txn
  static constexpr std::uint8_t kFrontierFlag = 2;  // in an object frontier

  /// Conflict frontier of one object.
  struct ObjState {
    std::vector<std::size_t> readers;  // reads since last_writer, feed order
    std::size_t last_writer = kNoGid;
  };

  /// Furthest F/B emission already performed for a (Ti -> Tj) pair.
  struct MemoEntry {
    std::uint32_t u_max_p1 = 0;  // +1-encoded max ancestor index in Ti
    std::uint32_t pf_p1 = 0;     // +1-encoded furthest PushForward emitted
  };

  struct PendingMemo {
    std::uint64_t key;
    MemoEntry entry;
  };

  std::uint64_t MemoKey(TxnId i, TxnId j) const {
    return static_cast<std::uint64_t>(i) * txn_count_ + j;
  }

  /// One entry of a sparse ancestor row: a transaction with an ancestor
  /// of the row's operation, and its +1-encoded maximum ancestor index.
  struct AncEntry {
    std::uint32_t txn;
    std::uint32_t max_p1;
  };
  /// A slab slot: `size` entries, sorted by txn, in a block of 1 << cls
  /// entries starting at slab_[begin]. A free slot links to the next
  /// free slot of its class through `next_free`.
  struct Row {
    std::size_t begin;
    std::uint32_t size;
    std::uint32_t cls;
    std::uint32_t next_free;
  };

  std::uint32_t ObjIndex(ObjectId object);
  /// Binds a slot with room for `size` entries to `gid` (reusing a free
  /// block of the smallest fitting class) and sets its size.
  std::uint32_t AcquireSlot(std::size_t gid, std::uint32_t size);
  AncEntry* RowData(std::uint32_t slot) { return &slab_[rows_[slot].begin]; }
  std::span<const AncEntry> Entries(std::uint32_t slot) const {
    return {slab_.data() + rows_[slot].begin, rows_[slot].size};
  }
  void ReleaseSlotIfAny(std::size_t gid);
  /// Pushes `slot` onto its class's free list.
  void FreeSlot(std::uint32_t slot);
  /// Zeroes the scratch entries the previous append set.
  void ClearScratch();
  /// scratch_anc_[t] = max(scratch_anc_[t], max_p1), recording t in
  /// scratch_txns_ when its entry becomes nonzero.
  void RaiseScratch(TxnId t, std::uint32_t max_p1) {
    std::uint32_t& cur = scratch_anc_[t];
    if (max_p1 <= cur) return;
    if (cur == 0) scratch_txns_.push_back(t);
    cur = max_p1;
  }
  /// Clears the scratch and seeds it from the row of `op`'s program-order
  /// predecessor (ancestor rows are cumulative along program order).
  void SeedScratch(const Operation& op, std::size_t gid);
  /// Clears `bit` in flags_[gid] (journaled) and releases its row if no
  /// retention claim is left.
  void DropFlag(std::size_t gid, std::uint8_t bit);
  /// Clears safe_[txn] (journaled).
  void ClearSafe(TxnId txn);
  /// Shared commit tail of TryAppend / TryAppendIsolated: persists the
  /// scratch (scratch_txns_ sorted) as `gid`'s row and updates retention
  /// flags, the object frontier and executed bookkeeping. `obj_idx` is
  /// kNoObj when the object has no state yet.
  void CommitOp(const Operation& op, std::size_t gid, std::uint32_t obj_idx);

  // ---- Undo journal (RemoveTransactionExact's rollback path) ----
  // records_ holds one record per feed position in [records_.begin(),
  // feed_log_.size()); a record's absolute log position IS its feed
  // position. The other logs hold the changes of those appends, newest
  // last; each record marks where its append's entries begin.
  struct AppendRecord {
    std::size_t gid = 0;
    std::size_t old_last_writer = kNoGid;  // writes: frontier writer replaced
    std::size_t change_mark = 0;           // changes_.end() before the append
    std::size_t held_mark = 0;             // held_rows_.end() before it
    std::size_t memo_mark = 0;             // memo_undo_.end() before it
    std::size_t topo_mark = 0;             // topo_.JournalEnd() before it
    std::uint32_t obj_idx = 0;
    bool obj_created = false;
  };
  enum class ChangeKind : std::uint8_t {
    kFlags,    // flags_[id] was `value`
    kRelease,  // gid `id`'s row released; its `value` entries are the
               // newest held_rows_ entries
    kSafe,     // safe_[id] was 1
    kReader,   // gid `id` was a frontier reader of the record's object
  };
  struct Change {
    std::size_t id;
    std::uint32_t value;
    ChangeKind kind;
  };
  struct MemoUndo {
    std::uint64_t key;
    MemoEntry old;
    bool existed;
  };
  static constexpr std::uint32_t kNoObj = ~static_cast<std::uint32_t>(0);

  /// Starts the record of the append about to run (captures the marks).
  void OpenRecord();
  /// Drops the records at the journal's start while their transaction is
  /// complete or the journal is over journal_budget_.
  void TrimJournal();
  /// Undoes the appends at feed positions >= `pos` (newest first).
  void RollbackTo(std::size_t pos);
  void UndoAppend(const AppendRecord& record);
  /// Re-admits replay_feed_ with tracing off and the counters held.
  void ReplaySilently();

  const TransactionSet& txns_;
  const AtomicitySpec& spec_;
  OpIndexer indexer_;
  IncrementalTopology topo_;
  std::size_t txn_count_;

  std::vector<std::uint8_t> executed_;
  std::vector<std::uint8_t> safe_;         // txn -> isolated bit (fast path)
  std::vector<std::uint8_t> flags_;        // retention flags per gid
  std::vector<std::uint32_t> slot_of_;     // gid -> pool slot (kNoSlot)
  std::vector<std::size_t> newest_gid_;    // txn -> newest executed gid

  // Ancestor rows: slot `s` lists, sorted by txn, the transactions with
  // an ancestor of its operation and their +1-encoded maximum ancestor
  // indices. Rows are retained only for operations that can still become
  // direct predecessors: the newest executed op of each transaction and
  // the current object frontiers. A slot's block keeps its capacity
  // class for life and goes back to that class's free list on release;
  // ResetAndReplay frees every slot but keeps the slab.
  std::vector<AncEntry> slab_;
  std::vector<Row> rows_;                // slot -> block
  std::vector<std::size_t> slot_owner_;  // slot -> gid (kNoGid when free)
  std::array<std::uint32_t, 33> free_head_;  // class -> first free slot

  FlatMap64<std::uint32_t> object_index_;  // ObjectId -> objects_ index
  std::vector<ObjState> objects_;

  FlatMap64<MemoEntry> memo_;

  // Reusable per-append scratch (no steady-state allocations).
  // scratch_anc_ is dense (txn -> +1-encoded max ancestor index) but only
  // the entries of scratch_txns_ are nonzero, so it is reset, scanned and
  // persisted in O(entries).
  std::vector<std::uint32_t> scratch_anc_;
  std::vector<TxnId> scratch_txns_;
  std::vector<std::size_t> pred_buf_;
  std::vector<std::pair<NodeId, NodeId>> arc_buf_;
  std::vector<std::uint8_t> arc_kind_buf_;  // parallel to arc_buf_ (tracing)
  std::vector<PendingMemo> pending_memos_;
  std::vector<std::size_t> feed_log_;     // accepted gids, admission order
  std::vector<std::size_t> replay_feed_;  // abort/truncate replay scratch
  std::vector<std::size_t> first_pos_;    // txn -> feed position of op 0

  UndoLog<AppendRecord> records_;
  UndoLog<Change> changes_;
  UndoLog<AncEntry> held_rows_;
  UndoLog<MemoUndo> memo_undo_;
  AppendRecord open_record_;
  // Cap on journal entries (all logs together), past which the oldest
  // records are dropped even if their transaction is incomplete.
  static constexpr std::size_t kJournalEntriesPerOp = 32;
  static constexpr std::size_t kMinJournalEntries = std::size_t{1} << 14;
  std::size_t journal_budget_;

  /// Full-reset path shared by RemoveTransactionExact's fallback and
  /// Truncate: resets every piece of admission state (journal included)
  /// and silently replays `replay_feed_`.
  void ResetAndReplay();

  std::size_t executed_count_ = 0;
  std::size_t rejections_ = 0;
  std::size_t arcs_submitted_ = 0;
  std::size_t arcs_inserted_total_ = 0;
  Tracer* tracer_ = nullptr;
};

}  // namespace relser

#endif  // RELSER_CORE_ONLINE_H_
