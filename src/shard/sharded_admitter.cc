#include "shard/sharded_admitter.h"

#include <algorithm>
#include <thread>

#include "exec/faultplan.h"
#include "util/check.h"

namespace relser {

ShardedAdmitter::Core::Core(const ShardSlice& slice_in,
                            std::size_t object_count, std::size_t txn_count,
                            std::size_t queue_capacity,
                            TraceLevel trace_level)
    : queue(queue_capacity),
      slice(slice_in),
      checker(slice_in.txns, slice_in.spec),
      tracer(trace_level),
      obj_writer(object_count, ~static_cast<TxnId>(0)),
      obj_readers(object_count),
      readers_of(txn_count),
      arc_neighbors(txn_count),
      tainted(txn_count, 0),
      local_dead(txn_count, 0),
      seen(txn_count, 0) {}

ShardedAdmitter::ShardedAdmitter(const TransactionSet& txns,
                                 const AtomicitySpec& spec, ShardRouter router,
                                 ShardedAdmitterOptions options)
    : txns_(txns),
      spec_(spec),
      indexer_(txns),
      plan_(std::make_unique<ShardPlan>(txns, spec, std::move(router))),
      options_(options),
      coordinator_(txns.txn_count(), &coordinator_tracer_),
      coordinator_tracer_(options.tracer != nullptr ? options.tracer->level()
                                                    : TraceLevel::kOff),
      epochs_(txns.txn_count(), options.gc_interval),
      kill_remaining_(
          std::vector<std::atomic<std::uint32_t>>(txns.txn_count())),
      txn_open_(std::vector<std::atomic<std::uint8_t>>(txns.txn_count())),
      archived_tracer_(options.tracer != nullptr ? options.tracer->level()
                                                 : TraceLevel::kOff),
      decision_(std::vector<std::atomic<std::uint8_t>>(indexer_.total_ops())),
      txn_state_(std::vector<std::atomic<std::uint8_t>>(txns.txn_count())),
      pending_(std::vector<std::atomic<std::uint32_t>>(txns.txn_count())) {
  RELSER_CHECK_MSG(options_.max_batch > 0, "max_batch must be positive");
  if (options_.snapshot_reads) store_ = std::make_unique<VersionStore>(txns);
  if (options_.shed_high_water > 0) {
    shed_mark_ = std::vector<std::atomic<std::uint8_t>>(txns.txn_count());
  }
  BuildCores();
}

void ShardedAdmitter::BuildCores() {
  const TraceLevel level = options_.tracer != nullptr ? options_.tracer->level()
                                                      : TraceLevel::kOff;
  const std::size_t shard_count = plan_->shard_count();
  cores_.reserve(shard_count);
  for (std::uint32_t shard = 0; shard < shard_count; ++shard) {
    cores_.push_back(std::make_unique<Core>(
        plan_->slice(shard), txns_.object_count(), txns_.txn_count(),
        options_.queue_capacity, level));
    cores_.back()->shard_id = shard;
    cores_.back()->gc_cursor = epochs_.settle_log_size();
    if (options_.tracer != nullptr) {
      cores_.back()->checker.set_tracer(&cores_.back()->tracer);
    }
  }
  // Multi-shard transactions are born tainted on every shard they touch:
  // their program-order glue spans shards, so every local conflict arc
  // incident to them must reach the coordinator (the taint flood extends
  // this to their local conflict components).
  const auto txn_count = static_cast<TxnId>(txns_.txn_count());
  for (TxnId txn = 0; txn < txn_count; ++txn) {
    if (!plan_->spans().MultiShard(txn)) continue;
    for (const std::uint32_t shard : plan_->spans().ShardsOf(txn)) {
      cores_[shard]->tainted[txn] = 1;
    }
  }
}

ShardedAdmitter::~ShardedAdmitter() { Stop(); }

AdmitResult ShardedAdmitter::SubmitAndWait(const Operation& op,
                                           std::chrono::microseconds timeout) {
  const std::size_t gid = indexer_.GlobalId(op);
  // Snapshot-read fast path: a settled read-only transaction (every
  // static writer of every object it reads has finished) commits here,
  // on the client thread, against the committed watermark, without
  // touching any shard ring. The merge stamp is drawn from
  // admission_stamp_ AFTER the commit CAS. Stamp order is sound because
  // a shard core stamps a writer's program-order-last accept BEFORE its
  // release NoteCommit decrement (Decide), and the classification here
  // acquire-reads that decrement before drawing its own stamp — so a
  // snapshot block's stamp exceeds the stamp of every operation of
  // every committed writer of its read set, and CommittedLog splices
  // the block after all versions it read.
  if (store_ != nullptr && store_->IsReadOnly(op.txn)) {
    const std::uint8_t word = decision_[gid].load(std::memory_order_acquire);
    if (word != 0) {
      return AdmitResult{static_cast<AdmitOutcome>(word - 1), {}, op.txn};
    }
    if (op.index == 0 && TxnState(op.txn) == kStateLive) {
      if (store_->ReadSetSettled(op.txn)) {
        std::uint8_t expected = kStateLive;
        if (txn_state_[op.txn].compare_exchange_strong(
                expected, kStateCommitted, std::memory_order_acq_rel,
                std::memory_order_acquire)) {
          // Watermark read after the settledness check: it covers the
          // epoch of every finished writer this transaction reads.
          const std::uint64_t epoch = store_->watermark();
          const std::uint64_t stamp =
              admission_stamp_.fetch_add(1, std::memory_order_relaxed);
          store_->LogSnapshotAdmit(op.txn, epoch, stamp);
          const Transaction& txn = txns_.txn(op.txn);
          constexpr auto kAcceptWord = static_cast<std::uint8_t>(
              1 + static_cast<std::uint8_t>(AdmitOutcome::kAccept));
          for (std::uint32_t i = 0; i < txn.size(); ++i) {
            decision_[indexer_.GlobalId(op.txn, i)].store(
                kAcceptWord, std::memory_order_release);
          }
          accepted_.fetch_add(txn.size(), std::memory_order_relaxed);
          // Arc-free and fully resolved: it settles at once, lock-free
          // (after the admit record exists, so SafePruneFloor sees its
          // epoch until then).
          epochs_.NoteArcFreeFinish(op.txn);
          return AdmitResult::Accept(op.txn);
        }
        // Lost the CAS to a concurrent AbortTxn: report the death.
        if (expected >= kStateDead) {
          return AdmitResult{static_cast<AdmitOutcome>(expected - kStateDead),
                             {},
                             op.txn};
        }
        return AdmitResult::Reject(op.txn);  // defensive; cannot happen
      }
      store_->TryCountEscalation(op.txn);
    }
  }
  // Snapshot before the first drain attempt: a release that follows a
  // failed take moves it, so the wait below cannot miss a free shard.
  std::uint64_t releases = drain_releases_.load(std::memory_order_acquire);
  const bool has_deadline = timeout > std::chrono::microseconds::zero();
  const auto deadline = has_deadline
                            ? std::chrono::steady_clock::now() + timeout
                            : std::chrono::steady_clock::time_point{};
  // Routing, enqueue and every drain run under the swap gate (shared
  // side): the reshard swapper holds it unique while it replaces
  // plan_/cores_. The gate is never held across a wait.
  std::shared_lock<std::shared_mutex> gate(swap_gate_);
  if (txn_open_[op.txn].load(std::memory_order_relaxed) == 0) {
    if (reshard_pending_.load(std::memory_order_acquire)) {
      // A router swap is draining: transactions that have not started
      // yet are refused so the open set shrinks to zero. kRetry is
      // nothing-was-enqueued, exactly like ring backpressure.
      retry_count_.fetch_add(1, std::memory_order_relaxed);
      return AdmitResult::Retry(op.txn);
    }
    // The feeding contract makes this thread the transaction's only
    // submitter, so a plain transition is race-free.
    txn_open_[op.txn].store(1, std::memory_order_relaxed);
    open_txns_.fetch_add(1, std::memory_order_acq_rel);
  }
  const std::uint32_t shard = plan_->router().ShardOf(op.object);
  pending_[op.txn].fetch_add(1, std::memory_order_relaxed);
  submitted_.fetch_add(1, std::memory_order_relaxed);
  if (!cores_[shard]->queue.TryEnqueue(Request{op, RequestKind::kOp})) {
    pending_[op.txn].fetch_sub(1, std::memory_order_relaxed);
    submitted_.fetch_sub(1, std::memory_order_relaxed);
    retry_count_.fetch_add(1, std::memory_order_relaxed);
    WakeWaiters();  // a Flush may have seen the transient increment
    return AdmitResult::Retry(op.txn);
  }
  const auto decided = [&] {
    return decision_[gid].load(std::memory_order_acquire) != 0;
  };
  for (;;) {
    TryDrain(*cores_[shard]);
    gate.unlock();
    if (decided()) break;
    {
      // Wait until the word is published or a drain token was released.
      std::unique_lock<std::mutex> lock(decide_mu_);
      const auto woken = [&] {
        return decided() ||
               drain_releases_.load(std::memory_order_acquire) != releases;
      };
      if (!has_deadline) {
        decided_cv_.wait(lock, woken);
      } else if (!decided_cv_.wait_until(lock, deadline, woken)) {
        lock.unlock();
        gate.lock();
        if (decided()) break;  // the decision squeaked in after all
        // Doom the transaction; whoever drains the shard publishes the
        // in-flight decision word when it reaches the operation, so
        // nobody hangs.
        PostControl(shard, op.txn, RequestKind::kTimeoutAbort);
        return AdmitResult::Timeout(op.txn);
      }
    }
    releases = drain_releases_.load(std::memory_order_acquire);
    gate.lock();
    // Checked under the gate: an undecided op blocks any swap, so cores_
    // and `shard` are still the ones it was routed by.
    if (decided()) break;
  }
  const std::uint8_t word = decision_[gid].load(std::memory_order_acquire);
  return AdmitResult{static_cast<AdmitOutcome>(word - 1), {}, op.txn};
}

AdmitResult ShardedAdmitter::SubmitWithBackoff(
    const Operation& op, Backoff& backoff, std::chrono::microseconds timeout) {
  for (;;) {
    const AdmitResult result = SubmitAndWait(op, timeout);
    if (result.outcome != AdmitOutcome::kRetry) {
      backoff.Reset();
      return result;
    }
    std::this_thread::sleep_for(backoff.Next());
  }
}

AdmitResult ShardedAdmitter::AbortTxn(TxnId txn) {
  const std::uint8_t state = TxnState(txn);
  if (state == kStateCommitted) return AdmitResult::Reject(txn);
  if (state >= kStateDead) {
    return AdmitResult{static_cast<AdmitOutcome>(state - kStateDead), {}, txn};
  }
  {
    std::shared_lock<std::shared_mutex> gate(swap_gate_);
    PostControl(plan_->spans().ShardsOf(txn).front(), txn,
                RequestKind::kAbort);
  }
  std::unique_lock<std::mutex> lock(decide_mu_);
  decided_cv_.wait(lock, [&] { return TxnState(txn) != kStateLive; });
  const std::uint8_t final_state = TxnState(txn);
  if (final_state == kStateCommitted) {
    return AdmitResult::Reject(txn);  // the commit won the race
  }
  return AdmitResult{static_cast<AdmitOutcome>(final_state - kStateDead), {},
                     txn};
}

void ShardedAdmitter::PostControl(std::uint32_t shard, TxnId txn,
                                  RequestKind kind) {
  submitted_.fetch_add(1, std::memory_order_relaxed);
  Request request;
  request.op.txn = txn;
  request.kind = kind;
  Core& core = *cores_[shard];
  {
    std::lock_guard<std::mutex> lock(core.control_mu);
    core.controls.push_back(request);
    core.controls_posted.store(true, std::memory_order_release);
  }
  // The poster rule: the shard may see no further traffic, so apply the
  // control now unless the shard is busy (then its holder's re-check
  // does). Inside another shard's drain this nests at most one
  // level per shard, since a held token is never re-taken.
  TryDrain(core);
}

std::optional<AdmitOutcome> ShardedAdmitter::OpOutcome(
    const Operation& op) const {
  const std::uint8_t word =
      decision_[indexer_.GlobalId(op)].load(std::memory_order_acquire);
  if (word == 0) return std::nullopt;
  return static_cast<AdmitOutcome>(word - 1);
}

AdmitResult ShardedAdmitter::TxnVerdict(TxnId txn) {
  std::unique_lock<std::mutex> lock(decide_mu_);
  decided_cv_.wait(lock, [&] {
    return pending_[txn].load(std::memory_order_acquire) == 0;
  });
  const std::uint8_t state = TxnState(txn);
  if (state >= kStateDead) {
    return AdmitResult{static_cast<AdmitOutcome>(state - kStateDead), {}, txn};
  }
  return AdmitResult::Accept(txn);
}

void ShardedAdmitter::Flush() {
  const auto flushed = [&] {
    return decided_.load(std::memory_order_acquire) ==
           submitted_.load(std::memory_order_acquire);
  };
  for (;;) {
    const std::uint64_t releases =
        drain_releases_.load(std::memory_order_acquire);
    {
      std::shared_lock<std::shared_mutex> gate(swap_gate_);
      for (const auto& core : cores_) TryDrain(*core);
    }
    std::unique_lock<std::mutex> lock(decide_mu_);
    decided_cv_.wait(lock, [&] {
      return flushed() ||
             drain_releases_.load(std::memory_order_acquire) != releases;
    });
    if (flushed()) return;
  }
}

void ShardedAdmitter::Stop() {
  if (stopped_) return;
  stopped_ = true;
  Flush();
  // A drainer publishes before its GC tick; the unique gate waits until
  // every drain has returned, and makes its writes visible here.
  { std::unique_lock<std::shared_mutex> gate(swap_gate_); }
  if (options_.tracer != nullptr) {
    for (const auto& core : cores_) {
      options_.tracer->MergeFrom(core->tracer);
    }
    options_.tracer->MergeFrom(coordinator_tracer_);
    // Pre-swap history, rescued from the cores InstallRouter destroyed.
    options_.tracer->MergeFrom(archived_tracer_);
    options_.tracer->AddRetries(retry_count_.load(std::memory_order_acquire));
    if (store_ != nullptr) {
      // Snapshot admits bypass every core, so no per-core tracer saw
      // them; fold their events here (tick = the admit's watermark).
      for (const SnapshotAdmitRecord& rec : store_->SnapshotAdmits()) {
        options_.tracer->RecordSnapshotRead(rec.txn, rec.epoch);
        options_.tracer->RecordCommit(rec.txn, rec.epoch);
      }
      options_.tracer->AddSnapshotEscalations(store_->snapshot_escalations());
    }
    options_.tracer->SetCoordinatorArcCensus(coordinator_.arcs_live(),
                                             coordinator_.arcs_dead());
  }
}

namespace {

// (stamp, sub) merge key: shard-core accepts are single operations at
// sub 0; a snapshot-admitted read-only transaction expands to a whole
// program-order block at its one stamp, ordered by sub. Stamps are
// unique (one fetch_add per accept / per snapshot admit), so the sort
// is a total order.
struct StampedEntry {
  std::uint64_t stamp;
  std::uint32_t sub;
  Operation op;
};

std::vector<Operation> FinishMerge(std::vector<StampedEntry> merged) {
  std::sort(merged.begin(), merged.end(),
            [](const StampedEntry& a, const StampedEntry& b) {
              return a.stamp != b.stamp ? a.stamp < b.stamp : a.sub < b.sub;
            });
  std::vector<Operation> log;
  log.reserve(merged.size());
  for (const StampedEntry& entry : merged) log.push_back(entry.op);
  return log;
}

void AppendSnapshotBlocks(const VersionStore* store,
                          const TransactionSet& txns,
                          std::vector<StampedEntry>* merged) {
  if (store == nullptr) return;
  for (const SnapshotAdmitRecord& rec : store->SnapshotAdmits()) {
    const Transaction& txn = txns.txn(rec.txn);
    for (std::uint32_t i = 0; i < txn.size(); ++i) {
      merged->push_back(StampedEntry{rec.stamp, i, txn.op(i)});
    }
  }
}

}  // namespace

std::vector<Operation> ShardedAdmitter::CommittedLog() const {
  std::vector<StampedEntry> merged;
  const auto add_committed =
      [&](const std::vector<std::pair<std::uint64_t, Operation>>& log) {
        for (const auto& entry : log) {
          if (TxnState(entry.second.txn) == kStateCommitted) {
            merged.push_back(StampedEntry{entry.first, 0, entry.second});
          }
        }
      };
  add_committed(swap_archive_);
  for (const auto& core : cores_) {
    add_committed(core->archived_accepts);
    add_committed(core->accept_log);
  }
  AppendSnapshotBlocks(store_.get(), txns_, &merged);
  return FinishMerge(std::move(merged));
}

std::vector<Operation> ShardedAdmitter::AdmittedLog() const {
  std::vector<StampedEntry> merged;
  const auto add_all =
      [&](const std::vector<std::pair<std::uint64_t, Operation>>& log) {
        for (const auto& entry : log) {
          merged.push_back(StampedEntry{entry.first, 0, entry.second});
        }
      };
  add_all(swap_archive_);
  for (const auto& core : cores_) {
    add_all(core->archived_accepts);
    add_all(core->accept_log);
  }
  AppendSnapshotBlocks(store_.get(), txns_, &merged);
  return FinishMerge(std::move(merged));
}

ShardedAdmitter::ShardStats ShardedAdmitter::shard_stats(
    std::uint32_t shard) const {
  const Core& core = *cores_[shard];
  ShardStats stats;
  stats.ops_routed = core.ops_routed;
  stats.fast_path = core.fast_path;
  stats.escalations = core.escalations;
  stats.accepted = core.accepts_total;
  stats.rejected = core.ops_routed - stats.accepted;
  return stats;
}

void ShardedAdmitter::TryDrain(Core& core) {
  // Every caller published its own request before coming here. Work it
  // cannot see is either decided already or queued behind a producer
  // still mid-write, which will come here itself.
  while (HasWork(core) &&
         !core.draining.exchange(true, std::memory_order_acq_rel)) {
    while (HasWork(core)) DrainPass(core);
    // The releasing exchange reads every failed take since ours, so the
    // loop's re-check sees whatever those takers published.
    core.draining.exchange(false, std::memory_order_acq_rel);
    drain_releases_.fetch_add(1, std::memory_order_acq_rel);
    WakeWaiters();
  }
}

void ShardedAdmitter::WakeWaiters() {
  { std::lock_guard<std::mutex> lock(decide_mu_); }
  decided_cv_.notify_all();
}

void ShardedAdmitter::DrainPass(Core& core) {
  Tracer* const tracer = &core.tracer;
  // Controls (kills, aborts, timeouts) ride an unbounded side channel
  // so a drainer never spins on another shard's bounded ring (a pair of
  // full rings would otherwise deadlock two cascading drains).
  std::vector<Request>& controls = core.control_batch;
  controls.clear();
  if (core.controls_posted.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(core.control_mu);
    controls.swap(core.controls);
    core.controls_posted.store(false, std::memory_order_relaxed);
  }
  for (const Request& request : controls) {
    ProcessControl(core, request);
    ++core.core_steps;
  }
  std::vector<Request>& batch = core.batch;
  batch.clear();
  Request request;
  while (batch.size() < options_.max_batch &&
         core.queue.TryDequeue(&request)) {
    batch.push_back(request);
  }
  // Overload control: while above the high-water mark, shed the live
  // transaction this core saw most recently (at most one per pass).
  // Entries only ever leave the live state, so dead ones pop for good.
  if (options_.shed_high_water > 0 &&
      live_uncommitted_.load(std::memory_order_relaxed) >
          options_.shed_high_water) {
    while (!core.seen_order.empty() &&
           TxnState(core.seen_order.back()) != kStateLive) {
      core.seen_order.pop_back();
    }
    if (!core.seen_order.empty()) {
      GlobalKill(core, core.seen_order.back(), AdmitOutcome::kShed,
                 /*cascade=*/false);
    }
  }
  if (tracer->counting() && !batch.empty()) {
    tracer->NoteQueueDepth(batch.size());
  }
  for (const Request& queued : batch) {
    Decide(core, queued.op);
    ++core.core_steps;
    if (options_.faults != nullptr) {
      const std::uint32_t pause_us =
          options_.faults->CorePauseUs(core.core_steps);
      if (pause_us > 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(pause_us));
      }
    }
  }
  if (tracer->counting() && !batch.empty()) tracer->NoteBatch(batch.size());
  // Wake the batch's waiters before the GC tick, so a GC pass delays
  // only the thread that runs it.
  decided_.fetch_add(controls.size() + batch.size(),
                     std::memory_order_release);
  WakeWaiters();
  MaybeGcCore(core);
}

void ShardedAdmitter::ProcessControl(Core& core, const Request& request) {
  const TxnId txn = request.op.txn;
  if (request.kind == RequestKind::kKill) {
    // Another shard won the kill CAS; this is our share of the
    // withdrawal. The state is already dead — skip if a racing local
    // path (coordinator kDead) already withdrew it here.
    if (!core.local_dead[txn]) KillLocal(core, txn);
    return;
  }
  if (TxnState(txn) != kStateLive) return;  // already resolved
  const AdmitOutcome outcome = request.kind == RequestKind::kTimeoutAbort
                                   ? AdmitOutcome::kTimeout
                                   : AdmitOutcome::kAborted;
  GlobalKill(core, txn, outcome, /*cascade=*/false);
}

void ShardedAdmitter::Decide(Core& core, const Operation& op) {
  Tracer* const tracer = &core.tracer;
  const std::size_t gid = indexer_.GlobalId(op);
  const TxnId txn = op.txn;
  ++core.ops_routed;
  const std::uint8_t state = TxnState(txn);
  if (state != kStateLive) {
    // Died (abort/cascade/timeout) with this operation in flight, or a
    // feeding-contract violation against a committed transaction.
    // The submission may also have RE-registered the transaction: an
    // asynchronous kill clears txn_open_ before the client learns the
    // verdict, so the client's next submit sees txn_open_ == 0 and
    // registers a dead transaction. Clear it here — this operation is
    // the registration's only in-flight work (one submitter, blocking
    // feeding), so nobody re-increments behind us — or open_txns_ never
    // drains and InstallRouter's quiescence wait deadlocks.
    if (txn_open_[txn].exchange(0, std::memory_order_relaxed) != 0) {
      open_txns_.fetch_sub(1, std::memory_order_acq_rel);
    }
    const AdmitOutcome outcome =
        state == kStateCommitted
            ? AdmitOutcome::kReject
            : static_cast<AdmitOutcome>(state - kStateDead);
    Publish(gid, txn, outcome);
    if (tracer->counting()) tracer->RecordReject(op, core.core_steps, 0);
    return;
  }
  if (core.seen[txn] == 0) {
    core.seen[txn] = 1;
    if (options_.shed_high_water > 0) {
      core.seen_order.push_back(txn);
      CountLive(txn);
    }
    if (plan_->spans().MultiShard(txn)) {
      tracer->RecordShardRoute(
          txn, static_cast<std::uint32_t>(plan_->spans().ShardsOf(txn).size()),
          core.core_steps);
    }
  }
  const Operation projected = core.slice.Project(op);
  AdmitResult result = core.checker.TryAppendIsolated(projected);
  if (result.ok()) {
    ++core.fast_path;
  } else {
    result = core.checker.TryAppend(projected);
  }
  if (!result.ok()) {
    // Shard-local certification rejection. Projected arcs map to global
    // RSG paths (shard/projection.h), so this is never spurious: the
    // transaction dies exactly as under the single checker.
    Publish(gid, txn, AdmitOutcome::kReject);
    if (tracer->counting()) tracer->RecordReject(op, core.core_steps, 0);
    GlobalKill(core, txn, AdmitOutcome::kAborted, /*cascade=*/false);
    return;
  }

  // Locally accepted. Derive the direct-conflict arcs this operation
  // creates from the pre-operation frontier, record them in the local
  // conflict DAG, and mirror whatever the taint discipline requires.
  core.mirror_buf.clear();
  core.newly_tainted.clear();
  const TxnId writer = core.obj_writer[op.object];
  const auto conflict = [&](TxnId other) {
    // Dead frontier entries (killed globally, not yet withdrawn here)
    // still get arcs: the durable-arc discipline routes surviving
    // conflict chains through them (shard/coordinator.h).
    if (other == kNoTxn || other == txn) return;
    InsertArc(core, other, txn);
  };
  conflict(writer);
  if (op.is_write()) {
    for (const TxnId reader : core.obj_readers[op.object]) conflict(reader);
  }

  if (!core.mirror_buf.empty()) {
    std::pair<TxnId, TxnId> witness{0, 0};
    const CrossShardCoordinator::ArcResult verdict =
        coordinator_.AddArcs(txn, core.mirror_buf, &witness);
    if (verdict != CrossShardCoordinator::ArcResult::kOk) {
      // Nothing was retained coordinator-side: unwind the speculative
      // mirror marks and taints so the local invariant (mirrored bit ⇔
      // arc present in coordinator) holds.
      for (const auto& arc : core.mirror_buf) {
        std::uint8_t* arc_state = core.arc_state.Find(
            (static_cast<std::uint64_t>(arc.first) << 32) | arc.second);
        if (arc_state != nullptr) *arc_state = 1;
      }
      for (const TxnId undo : core.newly_tainted) core.tainted[undo] = 0;
      if (verdict == CrossShardCoordinator::ArcResult::kCycle) {
        // Cross-shard conflict: the mirrored batch would close a
        // transaction-level cycle. Withdraw the local accept by killing
        // the transaction — the same all-or-nothing semantics a local
        // rejection has.
        Publish(gid, txn, AdmitOutcome::kReject);
        if (tracer->counting()) {
          TraceCause cause;
          cause.kind = TraceCauseKind::kConflictArc;
          cause.holder = witness.second;
          cause.note = "coordinator cycle";
          tracer->AttachCause(std::move(cause));
          tracer->RecordReject(op, core.core_steps, 0);
        }
        GlobalKill(core, txn, AdmitOutcome::kAborted, /*cascade=*/false);
      } else {  // kDead: another shard killed this transaction mid-flight
        const std::uint8_t dead_state = TxnState(txn);
        const AdmitOutcome outcome =
            dead_state >= kStateDead
                ? static_cast<AdmitOutcome>(dead_state - kStateDead)
                : AdmitOutcome::kAborted;
        Publish(gid, txn, outcome);
        if (tracer->counting()) tracer->RecordReject(op, core.core_steps, 0);
        if (!core.local_dead[txn]) KillLocal(core, txn);
      }
      return;
    }
    core.escalations += core.newly_tainted.size();
    if (tracer->counting()) {
      for (std::size_t i = 0; i < core.newly_tainted.size(); ++i) {
        tracer->CountEscalation();
      }
    }
  }

  // Frontier + recoverability bookkeeping (original txn ids). A read of
  // an uncommitted frontier write is dirty: if that writer dies, the
  // reader cascades. "Not committed" rather than "live" because a
  // globally-dead writer may not have been withdrawn from this shard
  // yet — registering keeps the late withdrawal's cascade complete.
  if (op.is_write()) {
    core.obj_writer[op.object] = txn;
    core.obj_readers[op.object].clear();
  } else {
    if (writer != kNoTxn && writer != txn &&
        TxnState(writer) != kStateCommitted) {
      core.readers_of[writer].push_back(txn);
    }
    core.obj_readers[op.object].push_back(txn);
  }

  const bool last_op = op.index + 1 == txns_.txn(txn).size();
  bool committed = false;
  if (last_op) {
    // Blocking program-order feeding: this accept means every operation
    // of the transaction (on every shard) was accepted — commit, unless
    // a concurrent kill wins the CAS.
    std::uint8_t expected = kStateLive;
    if (txn_state_[txn].compare_exchange_strong(expected, kStateCommitted,
                                                std::memory_order_acq_rel,
                                                std::memory_order_acquire)) {
      committed = true;
      UncountLive(txn);
      if (tracer->counting()) tracer->RecordCommit(txn, core.core_steps);
    }
  }
  const std::uint64_t stamp =
      admission_stamp_.fetch_add(1, std::memory_order_relaxed);
  core.accept_log.emplace_back(stamp, op);
  ++core.accepts_total;
  // NoteCommit strictly AFTER the last operation's stamp draw: a
  // snapshot reader observes the release decrement, so its own stamp
  // (SubmitAndWait fast path) lands after every stamp of this writer.
  if (committed && store_ != nullptr) store_->NoteCommit(txn);
  if (committed) {
    if (txn_open_[txn].exchange(0, std::memory_order_relaxed) != 0) {
      open_txns_.fetch_sub(1, std::memory_order_acq_rel);
    }
    // All of this transaction's arcs were noted before its last accept
    // (program-order blocking feeding), so the finish is final word.
    epochs_.NoteFinish(txn);
  }
  Publish(gid, txn, AdmitOutcome::kAccept);
  if (tracer->counting()) tracer->RecordAdmit(op, core.core_steps, 0);
}

// Shedding's live count: +1 when a core first sees a live transaction,
// -1 when a counted one commits or dies. shed_mark_ arbitrates with
// RMWs (0 unseen, 1 counted, 2 terminal), so neither a second core's
// sighting nor a kill racing the first one can double-count or leak;
// the increment comes first, so the count never underflows.
void ShardedAdmitter::CountLive(TxnId txn) {
  if (shed_mark_[txn].load(std::memory_order_relaxed) != 0) return;
  live_uncommitted_.fetch_add(1, std::memory_order_relaxed);
  if (shed_mark_[txn].exchange(1, std::memory_order_acq_rel) != 0) {
    live_uncommitted_.fetch_sub(1, std::memory_order_relaxed);
  }
}

void ShardedAdmitter::UncountLive(TxnId txn) {
  if (shed_mark_.empty()) return;
  if (shed_mark_[txn].exchange(2, std::memory_order_acq_rel) == 1) {
    live_uncommitted_.fetch_sub(1, std::memory_order_relaxed);
  }
}

void ShardedAdmitter::InsertArc(Core& core, TxnId from, TxnId to) {
  const std::uint64_t key =
      (static_cast<std::uint64_t>(from) << 32) | static_cast<std::uint64_t>(to);
  const auto [state, inserted] = core.arc_state.Upsert(key);
  if (inserted) {
    *state = 1;
    core.arc_neighbors[from].push_back(to);
    core.arc_neighbors[to].push_back(from);
    // Every transaction-level dependency — local or mirrored — surfaces
    // here exactly once; the coordinator's arcs are a subset of these
    // pairs, so this single feed covers the whole settlement graph.
    epochs_.NoteDep(from, to);
  }
  if (*state == 1 && (core.tainted[from] != 0 || core.tainted[to] != 0)) {
    *state = 2;
    core.mirror_buf.emplace_back(from, to);
    Taint(core, from);
    Taint(core, to);
  }
}

void ShardedAdmitter::Taint(Core& core, TxnId txn) {
  if (core.tainted[txn] != 0) return;
  core.flood_stack.clear();
  core.flood_stack.push_back(txn);
  while (!core.flood_stack.empty()) {
    const TxnId current = core.flood_stack.back();
    core.flood_stack.pop_back();
    if (core.tainted[current] != 0) continue;
    core.tainted[current] = 1;
    core.newly_tainted.push_back(current);
    // Flush every not-yet-mirrored local arc incident to `current` and
    // spread the taint across it: after the flood, the whole undirected
    // conflict component is coordinator-visible.
    for (const TxnId other : core.arc_neighbors[current]) {
      bool linked = false;
      const std::uint64_t out_key =
          (static_cast<std::uint64_t>(current) << 32) | other;
      const std::uint64_t in_key =
          (static_cast<std::uint64_t>(other) << 32) | current;
      if (std::uint8_t* s = core.arc_state.Find(out_key);
          s != nullptr && *s == 1) {
        *s = 2;
        core.mirror_buf.emplace_back(current, other);
        linked = true;
      }
      if (std::uint8_t* s = core.arc_state.Find(in_key);
          s != nullptr && *s == 1) {
        *s = 2;
        core.mirror_buf.emplace_back(other, current);
        linked = true;
      }
      if (linked && core.tainted[other] == 0) {
        core.flood_stack.push_back(other);
      }
    }
  }
}

void ShardedAdmitter::GlobalKill(Core& core, TxnId root, AdmitOutcome outcome,
                                 bool cascade) {
  std::uint8_t expected = kStateLive;
  const auto dead_word = static_cast<std::uint8_t>(
      kStateDead + static_cast<std::uint8_t>(outcome));
  if (!txn_state_[root].compare_exchange_strong(expected, dead_word,
                                                std::memory_order_acq_rel,
                                                std::memory_order_acquire)) {
    // Lost the race: already dead (its owner runs the withdrawal) or
    // committed (irrevocable). A committed dirty reader is exactly the
    // unrecoverable-read case the cascade cannot fix.
    if (cascade && expected == kStateCommitted) {
      unrecoverable_reads_.fetch_add(1, std::memory_order_relaxed);
    }
    return;
  }
  UncountLive(root);
  if (store_ != nullptr) store_->NoteAbort(root);
  if (txn_open_[root].exchange(0, std::memory_order_relaxed) != 0) {
    open_txns_.fetch_sub(1, std::memory_order_acq_rel);
  }
  Tracer* const tracer = &core.tracer;
  if (tracer->counting()) {
    if (outcome == AdmitOutcome::kShed) {
      tracer->RecordShed(root, core.core_steps);
    } else if (outcome == AdmitOutcome::kTimeout) {
      tracer->RecordTimeout(root, core.core_steps);
    }
    tracer->RecordAbort(root, core.core_steps, cascade);
  }
  const auto& shards = plan_->spans().ShardsOf(root);
  // The epoch finish waits for the LAST resident shard to apply its
  // withdrawal (KillLocal's countdown): settling a half-withdrawn
  // transaction would let a checker truncate rows a sibling shard is
  // about to restore around. Initialized before MarkDead, so any core
  // that observes kDead (and thus may run KillLocal) sees the count.
  kill_remaining_[root].store(static_cast<std::uint32_t>(shards.size()),
                              std::memory_order_release);
  if (shards.empty()) epochs_.NoteFinish(root);
  coordinator_.MarkDead(root);
  for (const std::uint32_t shard : shards) {
    if (shard == core.shard_id) {
      KillLocal(core, root);
    } else {
      PostControl(shard, root, RequestKind::kKill);
    }
  }
}

void ShardedAdmitter::KillLocal(Core& core, TxnId txn) {
  RELSER_DCHECK(core.local_dead[txn] == 0);
  core.local_dead[txn] = 1;
  if (core.checker.TxnHasExecuted(txn)) {
    core.checker.RemoveTransactionExact(txn);
  }
  // The local conflict DAG keeps the withdrawn transaction's arcs: they
  // are the durable waypoints surviving conflict chains route through
  // (a writer chain Ta -> Tdead -> Tc must still read as Ta => Tc after
  // the withdrawal, exactly as the restored checker orders the
  // surviving operations). Only the frontier is re-derived, so FUTURE
  // conflicts link against survivors.
  // Re-derive the conflict frontier of every owned object the
  // transaction touched from the checker (the authority on survivors).
  core.touched_buf.clear();
  for (const Operation& owned : core.slice.txns.txn(txn).ops()) {
    core.touched_buf.push_back(owned.object);
  }
  std::sort(core.touched_buf.begin(), core.touched_buf.end());
  core.touched_buf.erase(
      std::unique(core.touched_buf.begin(), core.touched_buf.end()),
      core.touched_buf.end());
  const OpIndexer& projected_indexer = core.checker.indexer();
  for (const ObjectId object : core.touched_buf) {
    const std::size_t writer_gid = core.checker.FrontierWriterGid(object);
    core.obj_writer[object] = writer_gid == OnlineRsrChecker::kNoOp
                                  ? kNoTxn
                                  : projected_indexer.TxnOf(writer_gid);
    core.gid_buf.clear();
    core.checker.FrontierReaders(object, &core.gid_buf);
    core.obj_readers[object].clear();
    for (const std::size_t reader_gid : core.gid_buf) {
      core.obj_readers[object].push_back(projected_indexer.TxnOf(reader_gid));
    }
  }
  // Recoverability cascade: live dirty readers of the withdrawn writes
  // die with it, wherever their other operations live.
  for (const TxnId reader : core.readers_of[txn]) {
    const std::uint8_t reader_state = TxnState(reader);
    if (reader_state == kStateLive) {
      GlobalKill(core, reader, AdmitOutcome::kAborted, /*cascade=*/true);
    } else if (reader_state == kStateCommitted) {
      unrecoverable_reads_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  core.readers_of[txn].clear();
  if (kill_remaining_[txn].fetch_sub(1, std::memory_order_acq_rel) == 1) {
    epochs_.NoteFinish(txn);
  }
}

namespace {

void FetchMax(std::atomic<std::uint64_t>& slot, std::uint64_t value) {
  std::uint64_t seen = slot.load(std::memory_order_relaxed);
  while (seen < value && !slot.compare_exchange_weak(
                             seen, value, std::memory_order_relaxed)) {
  }
}

}  // namespace

ShardedAdmitter::LiveHighWater ShardedAdmitter::live_high_water() const {
  LiveHighWater hw;
  hw.pool_rows = hw_pool_rows_.load(std::memory_order_relaxed);
  hw.pool_bytes = hw_pool_bytes_.load(std::memory_order_relaxed);
  hw.retained_ops = hw_retained_ops_.load(std::memory_order_relaxed);
  hw.memo_entries = hw_memo_entries_.load(std::memory_order_relaxed);
  hw.accept_entries = hw_accept_entries_.load(std::memory_order_relaxed);
  hw.coordinator_arcs = hw_coordinator_arcs_.load(std::memory_order_relaxed);
  hw.versions = hw_versions_.load(std::memory_order_relaxed);
  hw.dep_arcs = hw_dep_arcs_.load(std::memory_order_relaxed);
  return hw;
}

void ShardedAdmitter::MaybeGcCore(Core& core) {
  // The settle log is the doorbell: it grows with every sweep that
  // settles something.
  const std::size_t log_end = epochs_.settle_log_size();
  if (log_end == core.gc_cursor) return;
  // High-water sampling at the pre-truncation local maximum.
  FetchMax(hw_pool_rows_, core.checker.pool_rows());
  FetchMax(hw_pool_bytes_, core.checker.pool_bytes());
  FetchMax(hw_retained_ops_, core.checker.retained_ops());
  FetchMax(hw_memo_entries_, core.checker.memo_entries());
  FetchMax(hw_accept_entries_, core.accept_log.size());
  FetchMax(hw_coordinator_arcs_, coordinator_.arc_count());
  if (store_ != nullptr) FetchMax(hw_versions_, store_->retained_versions());
  FetchMax(hw_dep_arcs_, epochs_.dep_arcs_live());
  const std::atomic<std::uint8_t>* settled = epochs_.settled_view();
  const auto is_settled = [settled](TxnId txn) {
    return settled[txn].load(std::memory_order_relaxed) != 0;
  };
  // Settled accept-log entries leave the live log (archived when the
  // full CommittedLog is wanted, dropped when capping memory). All
  // survivors are committed: kills withdrew dead transactions before
  // they could settle, and a settled transaction is finished.
  std::size_t kept = 0;
  for (auto& entry : core.accept_log) {
    if (is_settled(entry.second.txn)) {
      if (options_.committed_log) core.archived_accepts.push_back(entry);
    } else {
      core.accept_log[kept++] = entry;
    }
  }
  core.accept_log.resize(kept);
  // Checker truncation: drop the settled rows, silently replay the
  // unsettled suffix — bit-identical future decisions (core/online.h).
  const std::size_t dropped = core.checker.Truncate(settled);
  // Scrub the newly settled (the settle log past this core's cursor).
  // Local conflict DAG: every arc out of a settled transaction goes; its
  // incoming arcs have settled sources (settledness is predecessor-
  // closed), so the node ends up isolated. Frontier: a settled entry
  // could only ever source settled arcs again — decision-neutral, since
  // no future arc can enter a finished transaction. Settled writers
  // committed, so their dirty-reader lists are moot.
  core.gc_txn_buf.clear();
  for (; core.gc_cursor < log_end; ++core.gc_cursor) {
    const TxnId txn = epochs_.settle_log(core.gc_cursor);
    for (const TxnId other : core.arc_neighbors[txn]) {
      core.arc_state.Erase((static_cast<std::uint64_t>(txn) << 32) | other);
      if (!is_settled(other)) core.gc_txn_buf.push_back(other);
    }
    std::vector<TxnId>().swap(core.arc_neighbors[txn]);
    for (const Operation& op : core.slice.txns.txn(txn).ops()) {
      TxnId& writer = core.obj_writer[op.object];
      if (writer == txn) writer = kNoTxn;
      std::erase(core.obj_readers[op.object], txn);
    }
    std::vector<TxnId>().swap(core.readers_of[txn]);
  }
  std::sort(core.gc_txn_buf.begin(), core.gc_txn_buf.end());
  core.gc_txn_buf.erase(
      std::unique(core.gc_txn_buf.begin(), core.gc_txn_buf.end()),
      core.gc_txn_buf.end());
  for (const TxnId txn : core.gc_txn_buf) {
    std::erase_if(core.arc_neighbors[txn], is_settled);
  }
  checkpoints_.fetch_add(1, std::memory_order_relaxed);
  if (core.tracer.counting()) {
    core.tracer.RecordCheckpoint(dropped, core.core_steps);
  }
  // Shared structures once per settle-log length: the first core to
  // notice claims the coordinator collect and the version-chain prune.
  std::uint64_t prev = gc_claim_.load(std::memory_order_relaxed);
  while (prev < log_end && !gc_claim_.compare_exchange_weak(
                               prev, log_end, std::memory_order_acq_rel,
                               std::memory_order_relaxed)) {
  }
  if (prev < log_end) {
    coordinator_.CollectSettled(settled);
    if (store_ != nullptr) {
      const std::uint64_t pruned =
          store_->PruneBelow(store_->SafePruneFloor(settled));
      if (pruned > 0 && core.tracer.counting()) {
        core.tracer.RecordVersionPrune(pruned, core.core_steps);
      }
    }
    if (core.tracer.counting()) {
      core.tracer.RecordEpochAdvance(epochs_.settled_count(),
                                     epochs_.watermark(), core.core_steps);
    }
  }
}

void ShardedAdmitter::InstallRouter(ShardRouter router) {
  RELSER_CHECK_MSG(!stopped_, "InstallRouter after Stop");
  bool expected = false;
  RELSER_CHECK_MSG(reshard_pending_.compare_exchange_strong(
                       expected, true, std::memory_order_acq_rel),
                   "concurrent InstallRouter calls");
  // Drain to the quiescent cut: reshard_pending_ refuses every NEW
  // transaction registration (kRetry), so the open set only shrinks;
  // started transactions run to a terminal state (their clients keep
  // feeding under the blocking contract). The unique gate then excludes
  // the instant between a client's registration check and its enqueue.
  std::unique_lock<std::shared_mutex> gate(swap_gate_, std::defer_lock);
  const auto quiescent = [&] {
    return open_txns_.load(std::memory_order_acquire) == 0 &&
           decided_.load(std::memory_order_acquire) ==
               submitted_.load(std::memory_order_acquire);
  };
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(decide_mu_);
      decided_cv_.wait(lock, quiescent);
    }
    gate.lock();
    if (quiescent()) break;
    gate.unlock();
  }
  // decided == submitted means every control channel drained, so no
  // kill is half-applied across shards, and the unique gate means no
  // drain is running: the old cores are idle for good.
  // At the cut nothing unfinished has ever appended (unstarted
  // transactions have no arcs), so this sweep settles ALL history: the
  // swap is a full-history GC tick, and empty fresh cores are exactly
  // what truncation would leave behind.
  epochs_.Sweep();
  const std::atomic<std::uint8_t>* settled = epochs_.settled_view();
  coordinator_.CollectSettled(settled);
  if (store_ != nullptr) store_->PruneBelow(store_->SafePruneFloor(settled));
  for (auto& core : cores_) {
    archived_tracer_.MergeFrom(core->tracer);
    if (options_.committed_log) {
      swap_archive_.insert(swap_archive_.end(),
                           core->archived_accepts.begin(),
                           core->archived_accepts.end());
      swap_archive_.insert(swap_archive_.end(), core->accept_log.begin(),
                           core->accept_log.end());
    }
  }
  // Cores hold references into the old plan's slices: destroy them
  // strictly before the plan swap.
  cores_.clear();
  plan_ = std::make_unique<ShardPlan>(txns_, spec_, std::move(router));
  BuildCores();
  if (archived_tracer_.counting()) {
    archived_tracer_.RecordRouterSwap(
        decided_.load(std::memory_order_relaxed));
  }
  router_swaps_.fetch_add(1, std::memory_order_release);
  reshard_pending_.store(false, std::memory_order_release);
}

void ShardedAdmitter::Publish(std::size_t gid, TxnId txn,
                              AdmitOutcome outcome) {
  if (outcome == AdmitOutcome::kAccept) {
    accepted_.fetch_add(1, std::memory_order_relaxed);
  } else {
    rejected_.fetch_add(1, std::memory_order_relaxed);
  }
  decision_[gid].store(
      static_cast<std::uint8_t>(1 + static_cast<std::uint8_t>(outcome)),
      std::memory_order_release);
  pending_[txn].fetch_sub(1, std::memory_order_release);
}

}  // namespace relser
