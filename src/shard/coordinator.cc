#include "shard/coordinator.h"

#include <algorithm>

#include "obs/trace.h"
#include "util/check.h"

namespace relser {

CrossShardCoordinator::CrossShardCoordinator(std::size_t txn_count,
                                             Tracer* tracer)
    : txn_count_(txn_count),
      topo_(txn_count),
      dead_(txn_count, 0),
      incident_(txn_count),
      rep_(txn_count),
      probe_visited_(txn_count, 0),
      tracer_(tracer) {
  pair_index_.Reserve(txn_count * 2);
  for (std::size_t t = 0; t < txn_count; ++t) rep_[t] = static_cast<TxnId>(t);
}

TxnId CrossShardCoordinator::Find(TxnId txn) const {
  TxnId root = txn;
  while (rep_[root] != root) root = rep_[root];
  while (rep_[txn] != root) {
    const TxnId next = rep_[txn];
    rep_[txn] = root;
    txn = next;
  }
  return root;
}

void CrossShardCoordinator::Union(TxnId a, TxnId b) {
  const TxnId ra = Find(a);
  const TxnId rb = Find(b);
  if (ra == rb) return;
  // Smaller id wins the root, so the partition's representatives do not
  // depend on the order cycles were discovered in.
  if (ra < rb) {
    rep_[rb] = ra;
  } else {
    rep_[ra] = rb;
  }
}

bool CrossShardCoordinator::IssuerOnCycleLocked(TxnId issuer_rep) {
  // DFS from the issuer over topology ∪ batch arcs; a path back to the
  // issuer is a cycle through it. Batches are small, so their arcs are
  // scanned linearly per expansion.
  std::fill(probe_visited_.begin(), probe_visited_.end(), 0);
  probe_stack_.clear();
  probe_stack_.push_back(static_cast<NodeId>(issuer_rep));
  const auto expand = [&](NodeId to) -> bool {
    if (to == static_cast<NodeId>(issuer_rep)) return true;
    if (probe_visited_[to] == 0) {
      probe_visited_[to] = 1;
      probe_stack_.push_back(to);
    }
    return false;
  };
  while (!probe_stack_.empty()) {
    const NodeId node = probe_stack_.back();
    probe_stack_.pop_back();
    for (const NodeId to : topo_.graph().OutNeighbors(node)) {
      if (expand(to)) return true;
    }
    for (const auto& [from, to] : batch_buf_) {
      if (from == node && expand(to)) return true;
    }
  }
  return false;
}

void CrossShardCoordinator::RebuildTopologyLocked() {
  topo_.Clear();
  rebuild_buf_.clear();
  pair_index_.ForEach([&](std::uint64_t key, std::uint8_t& /*state*/) {
    const TxnId from = Find(static_cast<TxnId>(key >> 32));
    const TxnId to = Find(static_cast<TxnId>(key & 0xFFFFFFFFu));
    if (from != to) {
      rebuild_buf_.emplace_back(static_cast<NodeId>(from),
                                static_cast<NodeId>(to));
    }
  });
  // Retained arcs mapped through representatives form the condensation
  // of a graph whose only cycles were absorbed — a DAG by construction.
  RELSER_CHECK_MSG(topo_.AddEdges(rebuild_buf_),
                   "condensed coordinator graph must be acyclic");
  rebuild_buf_.clear();
}

CrossShardCoordinator::ArcResult CrossShardCoordinator::AddArcs(
    TxnId issuer, const std::vector<std::pair<TxnId, TxnId>>& arcs,
    std::pair<TxnId, TxnId>* witness) {
  std::lock_guard<std::mutex> lock(mu_);
  if (dead_[issuer] != 0) return ArcResult::kDead;
  new_pairs_.clear();
  for (const auto& [from, to] : arcs) {
    RELSER_DCHECK(from < txn_count_ && to < txn_count_ && from != to);
    if (pair_index_.Find(PairKey(from, to)) != nullptr) continue;
    new_pairs_.emplace_back(from, to);
  }
  if (new_pairs_.empty()) return ArcResult::kOk;
  // Insert at the representative level; retry after each absorbed
  // phantom cycle (the failing arc's endpoints are on a common cycle
  // avoiding the issuer, so they belong to one condensed component).
  // Each retry merges two representatives, so the loop terminates.
  for (;;) {
    batch_buf_.clear();
    for (const auto& [from, to] : new_pairs_) {
      const TxnId rf = Find(from);
      const TxnId rt = Find(to);
      if (rf != rt) {
        batch_buf_.emplace_back(static_cast<NodeId>(rf),
                                static_cast<NodeId>(rt));
      }
    }
    if (batch_buf_.empty() || topo_.AddEdges(batch_buf_)) break;
    const auto [from, to] = topo_.last_rejected_edge();
    if (IssuerOnCycleLocked(Find(issuer))) {
      ++rejects_;
      if (witness != nullptr) {
        *witness = {static_cast<TxnId>(from), static_cast<TxnId>(to)};
      }
      if (tracer_ != nullptr) {
        tracer_->RecordCoordinatorReject(issuer, static_cast<TxnId>(from),
                                         static_cast<TxnId>(to),
                                         tracer_->tick());
      }
      return ArcResult::kCycle;
    }
    ++cycles_absorbed_;
    Union(static_cast<TxnId>(from), static_cast<TxnId>(to));
    RebuildTopologyLocked();
  }
  for (const auto& [from, to] : new_pairs_) {
    const std::uint64_t key = PairKey(from, to);
    // An arc inserted with an already-tombstoned endpoint is born dead:
    // it only exists as a conservative constraint (durable-arc
    // discipline lets dead transactions appear as endpoints).
    const bool dead_arc = dead_[from] != 0 || dead_[to] != 0;
    *pair_index_.Upsert(key).first = dead_arc ? kArcDead : kArcLive;
    incident_[from].push_back(key);
    incident_[to].push_back(key);
    ++arcs_mirrored_;
    ++(dead_arc ? arcs_dead_ : arcs_live_);
    if (tracer_ != nullptr) {
      tracer_->RecordCrossShardArc(from, to, tracer_->tick());
    }
  }
  return ArcResult::kOk;
}

void CrossShardCoordinator::MarkDead(TxnId txn) {
  // Tombstone only: the transaction's mirrored arcs stay behind as
  // conservative ordering constraints (see the header — scrubbing them
  // would sever conflict paths that route through the dead transaction,
  // paths the op-level shard checkers still enforce among survivors).
  std::lock_guard<std::mutex> lock(mu_);
  RELSER_DCHECK(txn < txn_count_);
  if (dead_[txn] != 0) return;
  dead_[txn] = 1;
  for (const std::uint64_t key : incident_[txn]) {
    std::uint8_t* state = pair_index_.Find(key);
    RELSER_DCHECK(state != nullptr);
    if (*state == kArcLive) {
      *state = kArcDead;
      --arcs_live_;
      ++arcs_dead_;
    }
  }
}

bool CrossShardCoordinator::Dead(TxnId txn) const {
  std::lock_guard<std::mutex> lock(mu_);
  return dead_[txn] != 0;
}

std::size_t CrossShardCoordinator::arc_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<std::size_t>(arcs_live_ + arcs_dead_);
}

std::size_t CrossShardCoordinator::CollectSettled(
    const std::atomic<std::uint8_t>* settled) {
  std::lock_guard<std::mutex> lock(mu_);
  // Partition retained arcs by the settledness of their source; the
  // survivors rebuild the index, incident lists and topology wholesale
  // (the arc population shrinks monotonically, so a rebuild keeps the
  // containers' high-water bounded by unsettled history).
  std::vector<std::pair<std::uint64_t, std::uint8_t>> kept;
  kept.reserve(pair_index_.size());
  std::size_t dropped = 0;
  pair_index_.ForEach([&](std::uint64_t key, std::uint8_t& state) {
    const TxnId from = static_cast<TxnId>(key >> 32);
    if (settled[from].load(std::memory_order_relaxed) != 0) {
      ++dropped;
    } else {
      kept.emplace_back(key, state);
    }
  });
  if (dropped == 0) return 0;
  pair_index_.Clear();
  for (auto& keys : incident_) keys.clear();
  arcs_live_ = 0;
  arcs_dead_ = 0;
  for (const auto& [key, state] : kept) {
    const auto from = static_cast<TxnId>(key >> 32);
    const auto to = static_cast<TxnId>(key & 0xFFFFFFFFu);
    *pair_index_.Upsert(key).first = state;
    incident_[from].push_back(key);
    incident_[to].push_back(key);
    ++(state == kArcDead ? arcs_dead_ : arcs_live_);
  }
  // A subgraph of a condensation-acyclic graph stays acyclic, so the
  // rebuild cannot reject.
  RebuildTopologyLocked();
  arcs_gcd_ += dropped;
  if (tracer_ != nullptr) {
    tracer_->RecordArcGc(dropped, tracer_->tick());
  }
  return dropped;
}

std::uint64_t CrossShardCoordinator::arcs_mirrored() const {
  std::lock_guard<std::mutex> lock(mu_);
  return arcs_mirrored_;
}

std::uint64_t CrossShardCoordinator::rejects() const {
  std::lock_guard<std::mutex> lock(mu_);
  return rejects_;
}

std::uint64_t CrossShardCoordinator::arcs_live() const {
  std::lock_guard<std::mutex> lock(mu_);
  return arcs_live_;
}

std::uint64_t CrossShardCoordinator::arcs_dead() const {
  std::lock_guard<std::mutex> lock(mu_);
  return arcs_dead_;
}

std::uint64_t CrossShardCoordinator::arcs_gcd() const {
  std::lock_guard<std::mutex> lock(mu_);
  return arcs_gcd_;
}

std::uint64_t CrossShardCoordinator::cycles_absorbed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cycles_absorbed_;
}

}  // namespace relser
