// ShardedAdmitter: the multi-client, fault-tolerant admission front-end
// — N shard cores, each a sequential OnlineRsrChecker over its projected
// sub-schedule, glued by a transaction-level CrossShardCoordinator.
//
// Certification mutates one relative serialization graph, so each
// checker needs one decider at a time. A shard core is that state — a
// bounded MPSC ring (exec/mpsc_queue.h), a control channel, the
// checker and its bookkeeping — plus a try-acquire drain token, and no
// thread of its own. Admission is caller-runs (flat combining, Hendler
// et al., SPAA 2010): a client enqueues its operation, and whichever
// thread takes the token drains the shard — controls, shedding, one
// batch of decisions, one decision word published per operation, one
// wake-up per batch, then the GC pass — on behalf of every client whose
// request is queued there. Usually that is the client itself, so an
// uncontended operation is decided on its own thread with no hand-off.
// A client that finds the token taken waits until its word is published
// or the shard is free again. Two rules replace a core thread as the
// reason every request is handled:
//
//  * every submitter, and every poster of a control (kills, aborts,
//    timeouts), tries the token after publishing its request;
//  * a drainer re-checks ring and controls after releasing the token
//    (both sides publish, then check, through read-modify-writes of the
//    token) and drains again if either is non-empty.
//
// Flush also drains every shard it finds free. Drains run under the
// shared side of the reshard gate, so InstallRouter excludes them by
// taking it unique. ShardRouter(object_count, 1, kRange) is the
// single-core configuration. With more shards the object space is
// partitioned (shard/router.h): conflicts are per-object, so every
// direct conflict is resident on exactly one shard, and each shard core
// certifies its own projected sub-schedule (shard/projection.h) with a
// private checker — no locks on the admission hot path. Global relative
// serializability is recovered as
//
//     (every shard-local projected RSG acyclic)
//   ∧ (coordinator transaction-level graph acyclic)
//     ⇒ global RSG acyclic,
//
// where the coordinator graph receives the cross-shard glue: conflict
// arcs incident to multi-shard transactions, extended by *taint
// flooding* — multi-shard transactions are born tainted on every shard
// they touch; mirroring an arc taints both endpoints; tainting a
// transaction flushes all its local conflict arcs to the coordinator,
// recursively. Any transaction-level conflict walk that crosses shards
// therefore lies entirely inside tainted components and is visible to
// the coordinator, while purely local structure stays local — the
// relative-atomicity relaxation keeps its value inside each shard, and
// a single-shard configuration never escalates anything: it makes the
// serial policy's decisions (tests/serial_oracle.h, gated in
// shard_test). docs/sharding.md develops the full argument. Inside a
// core, OnlineRsrChecker::TryAppendIsolated skips the F/B memo scan for
// operations whose transaction never carried a cross-transaction arc
// and whose object frontier is private.
//
// Robustness (docs/robustness.md):
//
//  * Every verdict speaks AdmitOutcome (core/admit.h).
//  * Aborts are first class. A certification rejection kills the whole
//    transaction: a kill CASes it dead, withdraws it from its resident
//    shards (RemoveTransactionExact, exact restoration), tombstones it
//    at the coordinator (its transaction-level arcs stay behind as
//    conservative constraints — the durable-arc discipline,
//    shard/coordinator.h), and cascades to live dirty readers wherever
//    they live, via unbounded per-core control channels (so a drainer
//    never blocks on another shard's ring). Clients can abort voluntarily
//    (AbortTxn). Committed readers of aborted writers cannot be
//    cascaded; they are counted as unrecoverable_reads().
//  * A transaction commits the moment its program-order-last operation
//    is accepted; committed transactions are immune to abort, cascade
//    and shedding.
//  * Backpressure is a verdict, not a stall: SubmitAndWait returns
//    kRetry when the ring is full; SubmitWithBackoff wraps that in
//    jittered exponential backoff (exec/backoff.h).
//  * Deadlines: on expiry SubmitAndWait posts a timeout-abort to the
//    operation's shard and returns kTimeout.
//  * Load shedding: with shed_high_water > 0, a core whose drain starts
//    while more than that many transactions are live and uncommitted
//    sheds the live transaction it saw most recently (newest-first keeps
//    the most-invested work alive), at most one per drain.
//  * Deterministic fault injection: options.faults pauses each core
//    after chosen decision steps (exec/faultplan.h); the drainer sleeps
//    holding the token, so the shard stalls as a whole.
//
// Feeding contract: all operations of one transaction must be submitted
// by one thread, in program order, through the blocking entry points
// (SubmitAndWait / SubmitWithBackoff) — at most one operation of a
// transaction in flight at a time. That is what lets a transaction
// commit the moment its program-order-last operation is accepted, and
// what keeps the per-shard projected feeds consistent with one global
// interleaving. Distinct transactions may be submitted from distinct
// threads concurrently. A client that receives a terminal verdict
// (kReject/kAborted/kShed/kTimeout) should stop submitting the
// transaction; stragglers are answered with its death outcome.
#ifndef RELSER_SHARD_SHARDED_ADMITTER_H_
#define RELSER_SHARD_SHARDED_ADMITTER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <utility>
#include <vector>

#include "core/admit.h"
#include "core/mvcc/version_store.h"
#include "core/online.h"
#include "epoch/epoch.h"
#include "exec/backoff.h"
#include "exec/mpsc_queue.h"
#include "obs/trace.h"
#include "shard/coordinator.h"
#include "shard/projection.h"
#include "shard/router.h"
#include "util/flat_map.h"

namespace relser {

class FaultPlan;

/// Knobs for ShardedAdmitter.
struct ShardedAdmitterOptions {
  std::size_t queue_capacity = 1024;  ///< per-shard MPSC ring size
  std::size_t max_batch = 64;         ///< max operations per drain batch
  /// Observability sink. Each shard core and the coordinator record
  /// into private tracers (single-writer preserved); Stop merges them
  /// all into this one.
  Tracer* tracer = nullptr;
  /// Deterministic per-core pause schedule (exec/faultplan.h), keyed by
  /// each shard core's own decision count. Must outlive the admitter.
  const FaultPlan* faults = nullptr;
  /// Overload control: when > 0, a core drain that starts with more
  /// than this many live uncommitted transactions (seen by a core, not
  /// yet committed or dead) sheds the newest live one that core saw.
  std::size_t shed_high_water = 0;
  /// MVCC snapshot-read fast path (core/mvcc/version_store.h): when on,
  /// read-only transactions whose read set is settled (every static
  /// writer finished) commit on the CLIENT thread against the committed
  /// watermark — no ring hop, no shard core, no checker arcs, no
  /// coordinator traffic. Unsettled read-only transactions escalate to
  /// the normal sharded path unchanged. Off by default: the flag is a
  /// relaxation knob, and decision bit-identity with the flag off is
  /// the differential baseline (tests/mvcc_test.cc, bench_mvcc).
  bool snapshot_reads = false;
  /// NoteFinish calls between sweeps of the always-on epoch GC
  /// (epoch/epoch.h, MaybeGcCore); 0 never sweeps, so the history stays
  /// unbounded. GC is decision-identical to that — a settled transaction
  /// can never lie on a future cycle in any shard checker or the
  /// coordinator graph (tests/epoch_gc_differential_test.cc).
  std::uint32_t gc_interval = 64;
  /// Keep GC'd settled accept-log entries in a per-core archive so
  /// CommittedLog/AdmittedLog still cover the full history. Turn off to
  /// cap memory at the unsettled suffix (the long-lived bench does); the
  /// logs then cover only the unarchived survivors.
  bool committed_log = true;
};

/// Partitioned, fault-tolerant admission front-end: one checker per
/// shard plus a cross-shard coordinator.
class ShardedAdmitter {
 public:
  /// `txns` and `spec` must outlive the admitter; `router` must
  /// partition exactly `txns.object_count()` objects. Starts no thread:
  /// the calling threads decide (see the file comment).
  ShardedAdmitter(const TransactionSet& txns, const AtomicitySpec& spec,
                  ShardRouter router, ShardedAdmitterOptions options = {});
  ShardedAdmitter(const TransactionSet&, AtomicitySpec&&, ShardRouter,
                  ShardedAdmitterOptions = {}) = delete;
  ~ShardedAdmitter();

  ShardedAdmitter(const ShardedAdmitter&) = delete;
  ShardedAdmitter& operator=(const ShardedAdmitter&) = delete;

  /// Routes `op` to the shard owning its object and blocks until that
  /// shard decides it, draining the shard itself whenever it is free.
  /// Outcomes: kAccept / kReject (this op failed certification; the
  /// transaction is being aborted) / a death outcome (kAborted, kShed,
  /// kTimeout: the transaction died before this op was decided) /
  /// kRetry (ring full, nothing enqueued; back off and resubmit) /
  /// kTimeout (the deadline expired first; a timeout-abort was
  /// scheduled). timeout zero waits forever.
  AdmitResult SubmitAndWait(
      const Operation& op,
      std::chrono::microseconds timeout = std::chrono::microseconds::zero());

  /// SubmitAndWait in a jittered-exponential retry loop on kRetry.
  AdmitResult SubmitWithBackoff(
      const Operation& op, Backoff& backoff,
      std::chrono::microseconds timeout = std::chrono::microseconds::zero());

  /// Client-initiated abort; blocks until the transaction is resolved.
  /// kReject when it had already committed (commits are irrevocable),
  /// otherwise its death outcome.
  AdmitResult AbortTxn(TxnId txn);

  /// The published decision for `op`; nullopt until its shard got to it.
  std::optional<AdmitOutcome> OpOutcome(const Operation& op) const;

  /// Commit barrier over all shards: blocks until every submitted
  /// operation of `txn` is decided; kAccept when unscathed, otherwise
  /// the death outcome.
  AdmitResult TxnVerdict(TxnId txn);

  /// True once `txn` committed (program-order-last operation accepted).
  bool TxnCommitted(TxnId txn) const {
    return txn_state_[txn].load(std::memory_order_acquire) == kStateCommitted;
  }

  /// Blocks until every request submitted so far has been decided,
  /// draining every shard it finds free.
  void Flush();

  /// Flushes, waits out every drain still running, and folds the
  /// per-core and coordinator tracers into options.tracer. Idempotent;
  /// called by the destructor. No submissions may race with or follow
  /// Stop.
  void Stop();

  std::size_t accepted() const {
    return accepted_.load(std::memory_order_acquire);
  }
  std::size_t rejected() const {
    return rejected_.load(std::memory_order_acquire);
  }
  /// Client submissions refused by ring backpressure.
  std::uint64_t retries() const {
    return retry_count_.load(std::memory_order_acquire);
  }
  /// Committed transactions caught reading from a later-aborted writer:
  /// the cascade could not reach them (commits are final), so the read
  /// stands unrecoverable — a recoverability metric, not a
  /// serializability violation.
  std::uint64_t unrecoverable_reads() const {
    return unrecoverable_reads_.load(std::memory_order_acquire);
  }

  /// Every operation of every committed transaction, in global
  /// admission order (per-shard accept logs merged by the global
  /// admission stamp). This is the schedule the differential tests
  /// replay through a full single-checker; safe once Stop returned.
  std::vector<Operation> CommittedLog() const;

  /// All accepted operations in global admission order, including those
  /// of transactions that later aborted. Safe once Stop returned.
  std::vector<Operation> AdmittedLog() const;

  const ShardPlan& plan() const { return *plan_; }
  /// Shard `shard`'s checker (over plan().slice(shard); at one shard the
  /// projection is the identity). Read-only; safe once Stop returned.
  const OnlineRsrChecker& shard_checker(std::uint32_t shard) const {
    return cores_[shard]->checker;
  }
  const CrossShardCoordinator& coordinator() const { return coordinator_; }

  /// Live reshard: atomically replaces the object partition with
  /// `router` at a watermark boundary, without
  /// stopping admission — clients keep submitting throughout. Protocol:
  /// new transactions are refused with kRetry (their SubmitWithBackoff
  /// loops ride it out) while every started transaction drains to a
  /// terminal state; at that quiescent cut a settlement sweep settles
  /// ALL history (nothing unfinished remains that ever appended), so
  /// every checker row, coordinator arc and accept-log entry is
  /// reclaimable, and fresh per-shard cores over the new partition are
  /// sound by the same argument that justifies truncation — the swap IS
  /// a full-history GC tick. Old core tracers and accept logs are
  /// archived so observability and CommittedLog span the swap. Blocks
  /// until the new cores are installed; safe to call from any thread that
  /// is not mid-transaction; must not race Stop or another
  /// InstallRouter. `router` must partition the same object universe.
  void InstallRouter(ShardRouter router);

  /// Completed InstallRouter swaps.
  std::uint64_t router_swaps() const {
    return router_swaps_.load(std::memory_order_relaxed);
  }
  /// The epoch manager driving stable-prefix GC.
  const EpochManager* epochs() const { return &epochs_; }
  /// Per-core GC passes (checker truncations); 0 when gc_interval is 0.
  std::uint64_t checkpoints() const {
    return checkpoints_.load(std::memory_order_relaxed);
  }

  /// Read-only transactions admitted arc-free from the committed
  /// watermark (0 unless options.snapshot_reads).
  std::uint64_t snapshot_admits() const {
    return store_ != nullptr ? store_->snapshot_admits() : 0;
  }
  /// Read-only transactions that failed the settled-read-set test at
  /// classification and took the normal sharded path instead.
  std::uint64_t snapshot_escalations() const {
    return store_ != nullptr ? store_->snapshot_escalations() : 0;
  }
  /// The version store backing the fast path; nullptr when off.
  const VersionStore* version_store() const { return store_.get(); }

  /// Race-free live-state high-water marks, sampled by the drainers
  /// at every GC tick just BEFORE truncation — i.e. at local maxima of
  /// retained state — so readers never race core-private structures.
  /// Per-core gauges (pool rows, feed entries, memos, accept-log) take
  /// the max over cores; shared gauges (coordinator arcs, versions, dep
  /// arcs) are instantaneous retained counts. All zeros until the first
  /// GC tick.
  struct LiveHighWater {
    std::uint64_t pool_rows = 0;         ///< ancestor rows (max core)
    std::uint64_t pool_bytes = 0;        ///< ancestor-row slab (max core)
    std::uint64_t retained_ops = 0;      ///< checker feed rows (max core)
    std::uint64_t memo_entries = 0;      ///< F/B memo entries (max core)
    std::uint64_t accept_entries = 0;    ///< live accept-log (max core)
    std::uint64_t coordinator_arcs = 0;  ///< retained coordinator arcs
    std::uint64_t versions = 0;          ///< version-arena retained
    std::uint64_t dep_arcs = 0;          ///< epoch-manager dep arcs live
  };
  LiveHighWater live_high_water() const;

  /// Per-shard roll-up; safe once Stop returned.
  struct ShardStats {
    std::size_t ops_routed = 0;     ///< operations decided by this core
    std::size_t accepted = 0;
    std::size_t rejected = 0;       ///< non-accept decisions published
    std::size_t fast_path = 0;      ///< TryAppendIsolated accepts
    std::uint64_t escalations = 0;  ///< txns taint-flooded to coordinator
  };
  ShardStats shard_stats(std::uint32_t shard) const;

 private:
  enum class RequestKind : std::uint8_t { kOp = 0, kAbort, kTimeoutAbort,
                                          kKill };
  struct Request {
    Operation op{};  // controls use only op.txn (the target)
    RequestKind kind = RequestKind::kOp;
  };

  // txn_state_ encoding. Writers CAS from kStateLive (several shard
  // cores may race on a kill/commit).
  static constexpr std::uint8_t kStateLive = 0;
  static constexpr std::uint8_t kStateCommitted = 1;
  static constexpr std::uint8_t kStateDead = 2;  // kStateDead + outcome

  static constexpr TxnId kNoTxn = ~static_cast<TxnId>(0);

  /// One shard core: ring, control channel, drain token, projected
  /// checker, conflict bookkeeping, taint state, private tracer. Every
  /// member below `controls_posted` belongs to the token holder. Owned
  /// via unique_ptr so addresses stay stable across cores_ growth.
  struct Core {
    Core(const ShardSlice& slice, std::size_t object_count,
         std::size_t txn_count, std::size_t queue_capacity,
         TraceLevel trace_level);

    MpscQueue<Request> queue;
    // True while a thread drains this core. Taken and released with
    // acq_rel exchanges: a failed take is a release that the holder's
    // releasing exchange acquires, which is what makes the holder's
    // re-check see every request published before that take.
    std::atomic<bool> draining{false};
    std::mutex control_mu;
    std::vector<Request> controls;  // unbounded cross-core channel
    std::atomic<bool> controls_posted{false};  // controls non-empty

    const ShardSlice& slice;
    OnlineRsrChecker checker;  // over slice.txns / slice.spec
    Tracer tracer;             // private; merged into the user's at Stop

    // Per-object conflict frontier mirror (original txn ids): the last
    // writer and the readers since it, for arc generation. Rebuilt from
    // the checker after withdrawals.
    std::vector<TxnId> obj_writer;
    std::vector<std::vector<TxnId>> obj_readers;
    std::vector<std::vector<TxnId>> readers_of;  // dirty readers (cascade)

    // Local transaction-level conflict DAG + taint state. arc_state
    // values: 1 = recorded locally, 2 = also mirrored to coordinator.
    FlatMap64<std::uint8_t> arc_state;
    std::vector<std::vector<TxnId>> arc_neighbors;  // undirected
    std::vector<std::uint8_t> tainted;
    std::vector<std::uint8_t> local_dead;  // withdrawn from this checker
    std::vector<std::uint8_t> seen;        // first-op-seen (route events)
    std::vector<TxnId> seen_order;  // first-seen order (shedding only)

    // Scratch, reused across decisions.
    std::vector<Request> batch;          // one drain pass's ring share
    std::vector<Request> control_batch;  // one drain pass's controls
    std::vector<std::pair<TxnId, TxnId>> mirror_buf;
    std::vector<TxnId> flood_stack;
    std::vector<TxnId> newly_tainted;  // per-decision taint undo log
    std::vector<std::size_t> gid_buf;
    std::vector<ObjectId> touched_buf;
    std::vector<TxnId> gc_txn_buf;  // unsettled arc neighbours per GC pass

    std::uint32_t shard_id = 0;

    // (global admission stamp, original operation) per accept.
    std::vector<std::pair<std::uint64_t, Operation>> accept_log;
    // Settled entries moved out of accept_log by GC (committed_log).
    std::vector<std::pair<std::uint64_t, Operation>> archived_accepts;
    std::size_t gc_cursor = 0;  // epochs_ settle-log entries collected

    std::uint64_t core_steps = 0;  // decisions taken (fault key, tick)
    std::size_t ops_routed = 0;
    std::size_t fast_path = 0;
    std::size_t accepts_total = 0;  // survives GC (accept_log shrinks)
    std::uint64_t escalations = 0;
  };

  /// Builds one core per shard of the current plan and applies
  /// born-taint (constructor + InstallRouter).
  void BuildCores();
  /// Drains `core` for as long as this thread can take its token and it
  /// has work, re-checking after every release. The caller holds
  /// swap_gate_ shared (a drain reached through PostControl from inside
  /// another drain runs under that drain's hold).
  void TryDrain(Core& core);
  /// One drain pass (token held): controls, shedding, one ring batch,
  /// publish and wake, then the GC tick.
  void DrainPass(Core& core);
  static bool HasWork(const Core& core) {
    return core.queue.Ready() ||
           core.controls_posted.load(std::memory_order_acquire);
  }
  /// Wakes decided_cv_ waiters (lock-then-notify: no lost wake-ups).
  void WakeWaiters();
  /// GC tick (token holder only): when the settled set advanced,
  /// archive/drop settled accept-log entries, truncate the checker and
  /// scrub the newly settled transactions' bookkeeping; the generation's
  /// claim winner also collects coordinator arcs and prunes versions.
  void MaybeGcCore(Core& core);
  void Decide(Core& core, const Operation& op);
  void ProcessControl(Core& core, const Request& request);
  /// CASes `root` dead with `outcome`; on winning, drops its
  /// coordinator arcs, withdraws it from the calling core's shard
  /// synchronously, and posts kKill controls to its other resident
  /// shards. No-op when the CAS loses (already dead or committed).
  void GlobalKill(Core& core, TxnId root, AdmitOutcome outcome, bool cascade);
  /// This shard's share of a kill: withdraw from the checker, scrub
  /// local arcs and frontiers, cascade local dirty readers.
  void KillLocal(Core& core, TxnId txn);
  /// Records conflict pair u -> v in the local DAG; mirrors + floods
  /// taint when either endpoint is tainted.
  void InsertArc(Core& core, TxnId from, TxnId to);
  void Taint(Core& core, TxnId txn);
  /// Shedding's live-uncommitted count (shed_high_water > 0 only):
  /// CountLive on a core's first sighting, UncountLive at commit/kill.
  void CountLive(TxnId txn);
  void UncountLive(TxnId txn);
  void Publish(std::size_t gid, TxnId txn, AdmitOutcome outcome);
  /// Queues a control on `shard` and tries to drain it (the poster
  /// rule). Caller holds swap_gate_ shared.
  void PostControl(std::uint32_t shard, TxnId txn, RequestKind kind);
  std::uint8_t TxnState(TxnId txn) const {
    return txn_state_[txn].load(std::memory_order_acquire);
  }

  const TransactionSet& txns_;
  const AtomicitySpec& spec_;  // retained for InstallRouter re-planning
  OpIndexer indexer_;  // over the ORIGINAL set (decision words, logs)
  // Behind a pointer so InstallRouter can replace it wholesale (cores
  // hold references into the plan's slices; they are destroyed first).
  std::unique_ptr<ShardPlan> plan_;
  ShardedAdmitterOptions options_;
  /// Version store for the snapshot-read fast path; null when off.
  /// Snapshot admits draw their merge stamp from admission_stamp_, the
  /// same counter the shard cores stamp accepts with, so CommittedLog
  /// can splice whole read-only blocks between stamped operations.
  std::unique_ptr<VersionStore> store_;
  CrossShardCoordinator coordinator_;
  Tracer coordinator_tracer_;
  // Stable-prefix GC authority.
  EpochManager epochs_;
  // Load shedding (sized iff options_.shed_high_water > 0): txn -> 0
  // unseen / 1 counted live / 2 terminal, and the live count itself.
  std::vector<std::atomic<std::uint8_t>> shed_mark_;
  std::atomic<std::size_t> live_uncommitted_{0};
  // txn -> resident-shard withdrawals still outstanding after a kill;
  // the last KillLocal reports the fully-applied abort to epochs_.
  std::vector<std::atomic<std::uint32_t>> kill_remaining_;
  // Longest settle log whose shared work (coordinator collect + version
  // prune) some core has claimed.
  std::atomic<std::uint64_t> gc_claim_{0};
  std::atomic<std::uint64_t> checkpoints_{0};
  // live_high_water() marks, fed by MaybeGcCore (CAS-max).
  std::atomic<std::uint64_t> hw_pool_rows_{0};
  std::atomic<std::uint64_t> hw_pool_bytes_{0};
  std::atomic<std::uint64_t> hw_retained_ops_{0};
  std::atomic<std::uint64_t> hw_memo_entries_{0};
  std::atomic<std::uint64_t> hw_accept_entries_{0};
  std::atomic<std::uint64_t> hw_coordinator_arcs_{0};
  std::atomic<std::uint64_t> hw_versions_{0};
  std::atomic<std::uint64_t> hw_dep_arcs_{0};

  // InstallRouter machinery. Clients take swap_gate_ shared around
  // registration + routing + enqueue + drain (never around waits); the
  // swapper takes it unique while it rebuilds plan_ and cores_.
  // txn_open_ is the registration flag (CAS 0 -> 1 under the shared
  // gate; a pending swap refuses new registrations with kRetry),
  // open_txns_ counts registered transactions not yet terminal.
  mutable std::shared_mutex swap_gate_;
  std::atomic<bool> reshard_pending_{false};
  std::vector<std::atomic<std::uint8_t>> txn_open_;
  std::atomic<std::size_t> open_txns_{0};
  std::atomic<std::uint64_t> router_swaps_{0};
  Tracer archived_tracer_;  // pre-swap core tracers, merged at swap time
  // Pre-swap stamped accepts, rescued from destroyed cores
  // (committed_log only); merged into CommittedLog/AdmittedLog.
  std::vector<std::pair<std::uint64_t, Operation>> swap_archive_;

  std::vector<std::unique_ptr<Core>> cores_;

  std::vector<std::atomic<std::uint8_t>> decision_;  // gid -> 1 + outcome
  std::vector<std::atomic<std::uint8_t>> txn_state_;
  std::vector<std::atomic<std::uint32_t>> pending_;  // txn -> undecided

  std::atomic<std::uint64_t> admission_stamp_{0};  // global accept order
  std::atomic<std::size_t> submitted_{0};  // ops + control messages
  std::atomic<std::size_t> decided_{0};
  std::atomic<std::size_t> accepted_{0};
  std::atomic<std::size_t> rejected_{0};
  std::atomic<std::uint64_t> retry_count_{0};
  std::atomic<std::uint64_t> unrecoverable_reads_{0};

  std::mutex decide_mu_;
  std::condition_variable decided_cv_;
  // Drain-token releases on any shard: a waiter that snapshots it before
  // failing to take its shard's token wakes once that shard is free.
  std::atomic<std::uint64_t> drain_releases_{0};

  bool stopped_ = false;  // caller-side (Stop is not thread-safe)
};

}  // namespace relser

#endif  // RELSER_SHARD_SHARDED_ADMITTER_H_
