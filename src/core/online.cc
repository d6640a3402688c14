#include "core/online.h"

#include <algorithm>
#include <bit>

#include "core/explain.h"
#include "core/rsg.h"
#include "obs/trace.h"
#include "util/check.h"

namespace relser {

OnlineRsrChecker::OnlineRsrChecker(const TransactionSet& txns,
                                   const AtomicitySpec& spec)
    : txns_(txns),
      spec_(spec),
      indexer_(txns),
      topo_(indexer_.total_ops()),
      txn_count_(indexer_.txn_count()),
      executed_(indexer_.total_ops(), 0),
      safe_(txn_count_, 1),
      flags_(indexer_.total_ops(), 0),
      slot_of_(indexer_.total_ops(), kNoSlot),
      newest_gid_(txn_count_, kNoGid),
      scratch_anc_(txn_count_, 0),
      first_pos_(txn_count_, 0),
      journal_budget_(std::max(kJournalEntriesPerOp * indexer_.total_ops(),
                               kMinJournalEntries)) {
  RELSER_CHECK_MSG(spec.ValidateAgainst(txns).ok(),
                   "specification does not match the transaction set");
  free_head_.fill(kNoSlot);
  // Steady-state arc volume per op is bounded by the frontier size plus
  // one F/B pair per ancestor transaction; reserve generously once.
  arc_buf_.reserve(64);
  arc_kind_buf_.reserve(64);
  pred_buf_.reserve(32);
  feed_log_.reserve(indexer_.total_ops());
  pending_memos_.reserve(txn_count_);
  scratch_txns_.reserve(txn_count_);
  topo_.Reserve(4 * indexer_.total_ops());
  topo_.set_journaling(true);
  // Pre-size the adjacency arena; together with the per-object
  // reservations in ObjIndex this keeps the steady-state admission path
  // free of heap allocations (bench_online_hotpath measures the
  // residual, which is only amortized growth of the few structures whose
  // final size is workload-dependent).
  topo_.ReserveAdjacency(8);
}

std::uint32_t OnlineRsrChecker::ObjIndex(ObjectId object) {
  const auto [slot, inserted] = object_index_.Upsert(object);
  if (inserted) {
    *slot = static_cast<std::uint32_t>(objects_.size());
    objects_.emplace_back();
    // Skip the small-capacity doublings the reader list would otherwise
    // go through; hot objects still grow past this normally.
    objects_.back().readers.reserve(8);
  }
  return *slot;
}

std::uint32_t OnlineRsrChecker::AcquireSlot(std::size_t gid,
                                            std::uint32_t size) {
  // Capacity classes 1 << cls, at least 4 entries.
  const auto cls =
      static_cast<std::uint32_t>(std::bit_width(std::max(size, 4u) - 1));
  std::uint32_t slot = free_head_[cls];
  if (slot != kNoSlot) {
    free_head_[cls] = rows_[slot].next_free;
  } else {
    slot = static_cast<std::uint32_t>(rows_.size());
    rows_.push_back({slab_.size(), 0, cls, kNoSlot});
    slot_owner_.push_back(kNoGid);
    slab_.resize(slab_.size() + (std::size_t{1} << cls));
  }
  rows_[slot].size = size;
  slot_owner_[slot] = gid;
  slot_of_[gid] = slot;
  return slot;
}

void OnlineRsrChecker::FreeSlot(std::uint32_t slot) {
  slot_owner_[slot] = kNoGid;
  Row& row = rows_[slot];
  row.next_free = free_head_[row.cls];
  free_head_[row.cls] = slot;
}

void OnlineRsrChecker::ReleaseSlotIfAny(std::size_t gid) {
  const std::uint32_t slot = slot_of_[gid];
  if (slot == kNoSlot || flags_[gid] != 0) return;
  slot_of_[gid] = kNoSlot;
  // A rollback may hand the row back to `gid`, so its entries are held
  // until the journal start passes this append; the slot itself is
  // reused at once.
  for (const AncEntry& entry : Entries(slot)) held_rows_.push_back(entry);
  changes_.push_back({gid, rows_[slot].size, ChangeKind::kRelease});
  FreeSlot(slot);
}

void OnlineRsrChecker::DropFlag(std::size_t gid, std::uint8_t bit) {
  changes_.push_back({gid, flags_[gid], ChangeKind::kFlags});
  flags_[gid] = static_cast<std::uint8_t>(flags_[gid] & ~std::uint32_t{bit});
  ReleaseSlotIfAny(gid);
}

void OnlineRsrChecker::ClearSafe(TxnId txn) {
  if (safe_[txn] == 0) return;
  changes_.push_back({txn, 1, ChangeKind::kSafe});
  safe_[txn] = 0;
}

void OnlineRsrChecker::ClearScratch() {
  for (const TxnId t : scratch_txns_) scratch_anc_[t] = 0;
  scratch_txns_.clear();
}

void OnlineRsrChecker::SeedScratch(const Operation& op, std::size_t gid) {
  ClearScratch();
  if (op.index == 0) return;
  const std::uint32_t prev_slot = slot_of_[gid - 1];
  RELSER_DCHECK(prev_slot != kNoSlot);
  for (const AncEntry& entry : Entries(prev_slot)) {
    scratch_anc_[entry.txn] = entry.max_p1;
    scratch_txns_.push_back(entry.txn);
  }
  RaiseScratch(op.txn, op.index);  // the previous op itself
}

void OnlineRsrChecker::OpenRecord() {
  open_record_.change_mark = changes_.end();
  open_record_.held_mark = held_rows_.end();
  open_record_.memo_mark = memo_undo_.end();
  open_record_.topo_mark = topo_.JournalEnd();
}

AdmitResult OnlineRsrChecker::TryAppend(const Operation& op) {
  const std::size_t gid = indexer_.GlobalId(op);
  RELSER_CHECK_MSG(executed_[gid] == 0,
                   "operation fed twice without RemoveTransactionExact");
  if (op.index > 0) {
    RELSER_CHECK_MSG(executed_[gid - 1] != 0,
                     "operations must be fed in program order");
  }
  const TxnId j = op.txn;
  OpenRecord();

  SeedScratch(op, gid);

  // Direct cross-transaction predecessors: the conflicting members of the
  // object's conflict frontier (last writer + readers since it). Every
  // older conflicting op is an ancestor of some frontier member, so the
  // frontier is enough both for exact ancestor maxima and — transitively —
  // for D-arc reachability (docs/hotpath.md, Lemma 1). An object without
  // state has an empty frontier; its state is created only on commit, so
  // a rejection leaves the object index untouched.
  pred_buf_.clear();
  const std::uint32_t* found_obj = object_index_.Find(op.object);
  const std::uint32_t obj_idx = found_obj != nullptr ? *found_obj : kNoObj;
  if (found_obj != nullptr) {
    const ObjState& state = objects_[obj_idx];
    if (state.last_writer != kNoGid &&
        indexer_.TxnOf(state.last_writer) != j) {
      pred_buf_.push_back(state.last_writer);
    }
    if (op.is_write()) {
      for (const std::size_t reader : state.readers) {
        if (indexer_.TxnOf(reader) != j) pred_buf_.push_back(reader);
      }
    }
  }

  // The parallel kind buffer is always maintained (one byte push per
  // arc) so a rejection can name the exact witnessing arc in its
  // AdmitResult even with no tracer attached.
  const bool tracing = tracer_ != nullptr && tracer_->events_on();
  arc_buf_.clear();
  arc_kind_buf_.clear();
  if (op.index > 0) {
    arc_buf_.emplace_back(gid - 1, gid);  // I-arc
    arc_kind_buf_.push_back(kInternalArc);
  }
  for (const std::size_t pred : pred_buf_) {
    arc_buf_.emplace_back(pred, gid);  // D-arc to the conflict frontier
    arc_kind_buf_.push_back(kDependencyArc);
    const Operation& pred_op = indexer_.Op(pred);
    const std::uint32_t pred_slot = slot_of_[pred];
    RELSER_DCHECK(pred_slot != kNoSlot);
    for (const AncEntry& entry : Entries(pred_slot)) {
      RaiseScratch(entry.txn, entry.max_p1);
    }
    RaiseScratch(pred_op.txn, pred_op.index + 1);
  }
  // Ascending txn order, whatever the merge order was: the arc order
  // below decides the Pearce-Kelly order and hence which arc a rejection
  // names.
  std::sort(scratch_txns_.begin(), scratch_txns_.end());

  // F/B arcs, memoized per (ancestor txn, this txn): re-evaluate only when
  // the maximum ancestor index grew; emit only arcs not already implied
  // transitively (docs/hotpath.md, Lemmas 2-3).
  pending_memos_.clear();
  for (const TxnId i : scratch_txns_) {
    if (i == j) continue;
    const std::uint32_t u_p1 = scratch_anc_[i];
    const std::uint64_t key = MemoKey(i, j);
    MemoEntry memo;
    if (const MemoEntry* found = memo_.Find(key)) memo = *found;
    if (u_p1 <= memo.u_max_p1) continue;  // nothing new to push or pull
    const std::uint32_t u = u_p1 - 1;
    const std::uint32_t pushed = spec_.PushForward(i, j, u);
    if (pushed + 1 > memo.pf_p1) {
      if (pushed > u) {
        arc_buf_.emplace_back(indexer_.GlobalId(i, pushed), gid);  // F-arc
        arc_kind_buf_.push_back(kPushForwardArc);
      }
      // pushed <= u needs no arc: (i, pushed) is already an ancestor.
      memo.pf_p1 = pushed + 1;
    }
    const std::uint32_t pulled = spec_.PullBackward(j, i, op.index);
    if (pulled < op.index) {
      arc_buf_.emplace_back(indexer_.GlobalId(i, u),
                            indexer_.GlobalId(j, pulled));  // B-arc
      arc_kind_buf_.push_back(kPullBackwardArc);
    }
    // pulled == op.index needs no arc: (i, u) already reaches this op.
    memo.u_max_p1 = u_p1;
    pending_memos_.push_back({key, memo});
  }

  const std::size_t edges_before = topo_.edge_count();
  const std::uint64_t repairs_before = topo_.reorder_count();
  if (!topo_.AddEdges(arc_buf_)) {
    ++rejections_;
    ArcWitness witness;
    witness.valid = true;
    const auto [bad_from, bad_to] = topo_.last_rejected_edge();
    witness.from = indexer_.Op(bad_from);
    witness.to = indexer_.Op(bad_to);
    for (std::size_t a = 0; a < arc_buf_.size(); ++a) {
      if (arc_buf_[a].first == bad_from && arc_buf_[a].second == bad_to) {
        witness.arc_kinds = arc_kind_buf_[a];
        break;
      }
    }
    if (tracing) {
      TraceCause cause;
      cause.kind = TraceCauseKind::kRsgArc;
      cause.from = witness.from;
      cause.to = witness.to;
      cause.arc_kinds = witness.arc_kinds;
      cause.note = ExplainWitnessArc(txns_, spec_, cause.arc_kinds,
                                     cause.from, cause.to);
      tracer_->AttachCause(std::move(cause));
    }
    return AdmitResult::Reject(j, witness);
  }
  arcs_submitted_ += arc_buf_.size();
  arcs_inserted_total_ += topo_.edge_count() - edges_before;
  if (tracer_ != nullptr && tracer_->counting()) {
    tracer_->AddArcStats(arc_buf_.size(), topo_.edge_count() - edges_before,
                         topo_.reorder_count() - repairs_before);
    if (tracing) {
      for (std::size_t a = 0; a < arc_buf_.size(); ++a) {
        tracer_->RecordArc(arc_kind_buf_[a], indexer_.Op(arc_buf_[a].first),
                           indexer_.Op(arc_buf_[a].second), tracer_->tick());
      }
    }
  }

  // Commit: memos, then the shared tail (ancestor array, retention
  // flags, frontier).
  for (const PendingMemo& pending : pending_memos_) {
    const auto [entry, inserted] = memo_.Upsert(pending.key);
    memo_undo_.push_back({pending.key, *entry, !inserted});
    *entry = pending.entry;
  }
  // Isolation tracking for TryAppendIsolated: every arc emitted above is
  // incident only on transactions with a nonzero scratch entry (plus j
  // itself), so clearing exactly those bits maintains the invariant that
  // safe_[t] == 1 implies no cross-transaction arc touches t's nodes.
  bool cross = false;
  for (const TxnId t : scratch_txns_) {
    if (t != j) {
      ClearSafe(t);
      cross = true;
    }
  }
  if (cross) ClearSafe(j);
  CommitOp(op, gid, obj_idx);
  return AdmitResult::Accept(j);
}

AdmitResult OnlineRsrChecker::TryAppendIsolated(const Operation& op) {
  const std::size_t gid = indexer_.GlobalId(op);
  RELSER_CHECK_MSG(executed_[gid] == 0,
                   "operation fed twice without RemoveTransactionExact");
  if (op.index > 0) {
    RELSER_CHECK_MSG(executed_[gid - 1] != 0,
                     "operations must be fed in program order");
  }
  const TxnId j = op.txn;
  if (safe_[j] == 0) return AdmitResult::Retry(j);
  const std::uint32_t* found_obj = object_index_.Find(op.object);
  const std::uint32_t obj_idx = found_obj != nullptr ? *found_obj : kNoObj;
  if (found_obj != nullptr) {
    // Eligibility: the object's frontier must be empty or owned by j.
    // (A read could tolerate foreign readers; eligibility is kept
    // object-exclusive so the check stays one comparison.)
    // Ineligibility is kRetry — retry through the full TryAppend — never
    // kReject: this path cannot prove a cycle.
    const ObjState& state = objects_[obj_idx];
    if (state.last_writer != kNoGid &&
        indexer_.TxnOf(state.last_writer) != j) {
      return AdmitResult::Retry(j);
    }
    for (const std::size_t reader : state.readers) {
      if (indexer_.TxnOf(reader) != j) return AdmitResult::Retry(j);
    }
  }
  OpenRecord();

  // Guaranteed accept: j's nodes carry no cross-transaction arcs
  // (safe_), the frontier contributes no D-arc and the ancestor row
  // has no cross entries, so no F/B arc is due — the only emission is
  // the program-order I-arc into the fresh sink node `gid`, which
  // cannot close a cycle. The F/B memo scan is skipped entirely. The
  // seeded scratch holds at most j's own entry, so it is sorted.
  SeedScratch(op, gid);
  RELSER_DCHECK(scratch_txns_.size() <= 1);
  if (op.index > 0) {
    const IncrementalTopology::AddResult added = topo_.AddEdge(gid - 1, gid);
    RELSER_CHECK(added != IncrementalTopology::AddResult::kCycle);
    ++arcs_submitted_;
    if (added == IncrementalTopology::AddResult::kInserted) {
      ++arcs_inserted_total_;
    }
    if (tracer_ != nullptr && tracer_->counting()) {
      tracer_->AddArcStats(1,
                           added == IncrementalTopology::AddResult::kInserted
                               ? 1
                               : 0,
                           0);
      if (tracer_->events_on()) {
        tracer_->RecordArc(kInternalArc, indexer_.Op(gid - 1), op,
                           tracer_->tick());
      }
    }
  }
  CommitOp(op, gid, obj_idx);
  return AdmitResult::Accept(j);
}

void OnlineRsrChecker::CommitOp(const Operation& op, std::size_t gid,
                                std::uint32_t obj_idx) {
  const TxnId j = op.txn;
  AppendRecord& record = open_record_;
  record.gid = gid;
  record.obj_created = obj_idx == kNoObj;
  if (record.obj_created) obj_idx = ObjIndex(op.object);
  record.obj_idx = obj_idx;
  const std::uint32_t slot =
      AcquireSlot(gid, static_cast<std::uint32_t>(scratch_txns_.size()));
  AncEntry* row = RowData(slot);
  for (const TxnId t : scratch_txns_) *row++ = {t, scratch_anc_[t]};
  flags_[gid] = static_cast<std::uint8_t>(kNewestFlag | kFrontierFlag);
  if (op.index > 0) DropFlag(gid - 1, kNewestFlag);
  newest_gid_[j] = gid;

  ObjState& state = objects_[obj_idx];
  record.old_last_writer = state.last_writer;
  if (op.is_write()) {
    // The old frontier is dominated: future conflicts reach it through
    // this write. Drop its retention claims.
    if (state.last_writer != kNoGid) DropFlag(state.last_writer, kFrontierFlag);
    // Logged newest first, so the newest-first undo re-appends them in
    // feed order.
    for (auto it = state.readers.rbegin(); it != state.readers.rend(); ++it) {
      changes_.push_back({*it, 0, ChangeKind::kReader});
    }
    for (const std::size_t reader : state.readers) {
      DropFlag(reader, kFrontierFlag);
    }
    state.readers.clear();
    state.last_writer = gid;
  } else {
    state.readers.push_back(gid);
  }

  executed_[gid] = 1;
  ++executed_count_;
  if (op.index == 0) first_pos_[j] = feed_log_.size();
  feed_log_.push_back(gid);
  records_.push_back(record);
  TrimJournal();
}

void OnlineRsrChecker::TrimJournal() {
  while (!records_.empty()) {
    const std::size_t pos = records_.begin();
    const TxnId t = indexer_.TxnOf(records_.at(pos).gid);
    // A complete transaction at the start means no rollback can need
    // `pos` any more: every transaction admitted before the next position
    // is complete, and a complete victim older than the journal takes the
    // full-replay fallback. Over budget, `pos` goes anyway (same
    // fallback), which keeps the journal O(graph size) while one
    // transaction stays incomplete for the whole run.
    const bool complete = newest_gid_[t] + 1 == indexer_.TxnEnd(t);
    const std::size_t entries = records_.size() + changes_.size() +
                                held_rows_.size() + memo_undo_.size() +
                                topo_.JournalSize();
    if (!complete && entries <= journal_budget_) break;
    const bool last = pos + 1 == records_.end();
    changes_.DropBefore(last ? changes_.end()
                             : records_.at(pos + 1).change_mark);
    held_rows_.DropBefore(last ? held_rows_.end()
                               : records_.at(pos + 1).held_mark);
    memo_undo_.DropBefore(last ? memo_undo_.end()
                               : records_.at(pos + 1).memo_mark);
    topo_.ForgetBefore(last ? topo_.JournalEnd()
                            : records_.at(pos + 1).topo_mark);
    records_.DropBefore(pos + 1);
  }
}

void OnlineRsrChecker::RollbackTo(std::size_t pos) {
  RELSER_DCHECK(pos >= records_.begin());
  while (records_.end() > pos) {
    UndoAppend(records_.back());
    records_.pop_back();
  }
}

void OnlineRsrChecker::UndoAppend(const AppendRecord& record) {
  // The exact inverse of TryAppend/TryAppendIsolated + CommitOp, in
  // reverse order of their effects.
  const std::size_t gid = record.gid;
  const Operation& op = indexer_.Op(gid);
  const TxnId j = op.txn;
  ObjState& state = objects_[record.obj_idx];
  RELSER_DCHECK(!feed_log_.empty() && feed_log_.back() == gid);
  feed_log_.pop_back();
  executed_[gid] = 0;
  --executed_count_;
  if (op.is_write()) {
    state.last_writer = record.old_last_writer;  // readers: kReader below
  } else {
    state.readers.pop_back();
  }
  newest_gid_[j] = op.index > 0 ? gid - 1 : kNoGid;
  while (changes_.end() > record.change_mark) {
    const Change& change = changes_.back();
    switch (change.kind) {
      case ChangeKind::kFlags:
        flags_[change.id] = static_cast<std::uint8_t>(change.value);
        break;
      case ChangeKind::kRelease: {
        // Which slot the row lands in is allocation history, not state.
        AncEntry* row = RowData(AcquireSlot(change.id, change.value));
        for (std::uint32_t k = change.value; k-- > 0;) {
          row[k] = held_rows_.back();
          held_rows_.pop_back();
        }
        break;
      }
      case ChangeKind::kSafe:
        safe_[change.id] = 1;
        break;
      case ChangeKind::kReader:
        state.readers.push_back(change.id);
        break;
    }
    changes_.pop_back();
  }
  flags_[gid] = 0;
  FreeSlot(slot_of_[gid]);
  slot_of_[gid] = kNoSlot;
  while (memo_undo_.end() > record.memo_mark) {
    const MemoUndo& undo = memo_undo_.back();
    if (undo.existed) {
      *memo_.Find(undo.key) = undo.old;
    } else {
      memo_.Erase(undo.key);
    }
    memo_undo_.pop_back();
  }
  topo_.RollbackTo(record.topo_mark);
  if (record.obj_created) {
    RELSER_DCHECK(record.obj_idx + 1 == objects_.size());
    object_index_.Erase(op.object);
    objects_.pop_back();
  }
}

void OnlineRsrChecker::RemoveTransactionExact(TxnId txn) {
  if (!TxnHasExecuted(txn)) return;  // nothing to forget
  const std::size_t begin = indexer_.TxnBegin(txn);
  const std::size_t end = indexer_.TxnEnd(txn);
  const bool rollback = first_pos_[txn] >= records_.begin();
  const std::size_t from = rollback ? first_pos_[txn] : 0;

  // Snapshot the survivors from the restart point on, then restore the
  // state that preceded it: undo the journaled suffix, or reset
  // everything.
  replay_feed_.clear();
  for (std::size_t pos = from; pos < feed_log_.size(); ++pos) {
    const std::size_t gid = feed_log_[pos];
    if (gid < begin || gid >= end) replay_feed_.push_back(gid);
  }
  if (rollback) {
    RollbackTo(from);
    ReplaySilently();
  } else {
    ResetAndReplay();
  }
  if (tracer_ != nullptr) {
    tracer_->RecordAbortReplay(replay_feed_.size(), !rollback,
                               tracer_->tick());
  }
}

std::size_t OnlineRsrChecker::Truncate(
    const std::atomic<std::uint8_t>* settled) {
  replay_feed_.clear();
  replay_feed_.reserve(feed_log_.size());
  std::size_t dropped = 0;
  for (const std::size_t gid : feed_log_) {
    const TxnId t = indexer_.TxnOf(gid);
    if (settled[t].load(std::memory_order_relaxed) != 0) {
      ++dropped;
    } else {
      replay_feed_.push_back(gid);
    }
  }
  if (dropped == 0) return 0;
  ResetAndReplay();
  return dropped;
}

void OnlineRsrChecker::ResetAndReplay() {
  topo_ = IncrementalTopology(indexer_.total_ops());
  topo_.Reserve(4 * indexer_.total_ops());
  topo_.ReserveAdjacency(8);
  topo_.set_journaling(true);
  std::fill(executed_.begin(), executed_.end(), std::uint8_t{0});
  std::fill(safe_.begin(), safe_.end(), std::uint8_t{1});
  std::fill(flags_.begin(), flags_.end(), std::uint8_t{0});
  std::fill(slot_of_.begin(), slot_of_.end(), kNoSlot);
  std::fill(newest_gid_.begin(), newest_gid_.end(), kNoGid);
  free_head_.fill(kNoSlot);
  for (std::uint32_t slot = static_cast<std::uint32_t>(rows_.size());
       slot-- > 0;) {
    FreeSlot(slot);
  }
  object_index_.Clear();
  objects_.clear();
  memo_.Clear();
  executed_count_ = 0;
  feed_log_.clear();
  records_.Reset(0);
  changes_.Reset(0);
  held_rows_.Reset(0);
  memo_undo_.Reset(0);
  ReplaySilently();
}

void OnlineRsrChecker::ReplaySilently() {
  // No trace events, and the decision/arc counters keep their pre-abort
  // values: the replay restores state, it admits nothing new.
  Tracer* const saved_tracer = tracer_;
  tracer_ = nullptr;
  const std::size_t saved_rejections = rejections_;
  const std::size_t saved_submitted = arcs_submitted_;
  const std::size_t saved_inserted = arcs_inserted_total_;
  for (const std::size_t gid : replay_feed_) {
    // Every survivor re-admits: the replayed prefix's RSG is a subgraph
    // of the original graph restricted to survivors (conflict frontiers
    // and ancestor maxima can only shrink when operations disappear),
    // and a subgraph of an acyclic graph is acyclic.
    RELSER_CHECK_MSG(TryAppend(indexer_.Op(gid)).ok(),
                     "surviving feed must replay cleanly after an abort");
  }
  rejections_ = saved_rejections;
  arcs_submitted_ = saved_submitted;
  arcs_inserted_total_ = saved_inserted;
  tracer_ = saved_tracer;
}

std::size_t OnlineRsrChecker::FrontierWriterGid(ObjectId object) const {
  const std::uint32_t* idx = object_index_.Find(object);
  if (idx == nullptr) return kNoOp;
  const std::size_t writer = objects_[*idx].last_writer;
  return writer == kNoGid ? kNoOp : writer;
}

void OnlineRsrChecker::FrontierReaders(ObjectId object,
                                       std::vector<std::size_t>* out) const {
  const std::uint32_t* idx = object_index_.Find(object);
  if (idx == nullptr) return;
  const ObjState& state = objects_[*idx];
  out->insert(out->end(), state.readers.begin(), state.readers.end());
}

std::uint64_t OnlineRsrChecker::StateDigest() const {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a offset basis
  const auto mix = [&h](std::uint64_t v) {
    for (int shift = 0; shift < 64; shift += 8) {
      h ^= (v >> shift) & 0xFF;
      h *= 1099511628211ULL;
    }
  };
  mix(executed_count_);
  for (const std::uint8_t bit : executed_) mix(bit);
  for (const std::uint8_t bit : safe_) mix(bit);
  for (const std::size_t gid : newest_gid_) mix(gid);
  // Per-object state, keyed by ObjectId (objects_ index order depends on
  // first-touch order, which two equal-state checkers may disagree on).
  {
    std::vector<std::pair<std::uint64_t, std::uint32_t>> by_object;
    by_object.reserve(objects_.size());
    const_cast<FlatMap64<std::uint32_t>&>(object_index_)
        .ForEach([&](std::uint64_t key, std::uint32_t& idx) {
          by_object.emplace_back(key, idx);
        });
    std::sort(by_object.begin(), by_object.end());
    for (const auto& [object, idx] : by_object) {
      const ObjState& state = objects_[idx];
      mix(object);
      mix(state.last_writer);
      for (const std::size_t gid : state.readers) mix(gid);
    }
  }
  // Retained ancestor arrays: keyed by owning gid, content-only (which
  // pool slot a row occupies is allocation history, not state).
  for (std::size_t gid = 0; gid < slot_of_.size(); ++gid) {
    const std::uint32_t slot = slot_of_[gid];
    if (slot == kNoSlot) continue;
    mix(gid);
    mix(flags_[gid]);
    mix(rows_[slot].size);
    for (const AncEntry& entry : Entries(slot)) {
      mix(entry.txn);
      mix(entry.max_p1);
    }
  }
  // F/B memo, sorted by key (FlatMap64 iteration order is capacity-
  // dependent).
  {
    std::vector<std::pair<std::uint64_t, MemoEntry>> entries;
    entries.reserve(memo_.size());
    const_cast<FlatMap64<MemoEntry>&>(memo_).ForEach(
        [&](std::uint64_t key, MemoEntry& entry) {
          entries.emplace_back(key, entry);
        });
    std::sort(entries.begin(), entries.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (const auto& [key, entry] : entries) {
      mix(key);
      mix(entry.u_max_p1);
      mix(entry.pf_p1);
    }
  }
  // Graph adjacency, sorted per node (F/B arcs can land on not-yet-
  // executed nodes, so every node is included).
  {
    std::vector<NodeId> succs;
    for (NodeId node = 0; node < indexer_.total_ops(); ++node) {
      const auto out = topo_.graph().OutNeighbors(node);
      succs.assign(out.begin(), out.end());
      if (succs.empty()) continue;
      std::sort(succs.begin(), succs.end());
      mix(node);
      mix(succs.size());
      for (const NodeId succ : succs) mix(succ);
    }
  }
  return h;
}

std::size_t OnlineRsrChecker::FirstRejection(const TransactionSet& txns,
                                             const AtomicitySpec& spec,
                                             const Schedule& schedule) {
  OnlineRsrChecker checker(txns, spec);
  for (std::size_t pos = 0; pos < schedule.size(); ++pos) {
    if (!checker.TryAppend(schedule.op(pos))) {
      return pos;
    }
  }
  return schedule.size();
}

}  // namespace relser
