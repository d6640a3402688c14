#include "epoch/epoch.h"

#include <algorithm>

#include "util/check.h"

namespace relser {

EpochManager::EpochManager(std::size_t txn_count, std::uint32_t gc_interval)
    : txn_count_(txn_count),
      gc_interval_(gc_interval),
      succs_(txn_count),
      finished_(txn_count, 0),
      settled_(new std::atomic<std::uint8_t>[txn_count]),
      settle_log_(new TxnId[txn_count]),
      visit_stamp_(txn_count, 0) {
  for (std::size_t t = 0; t < txn_count; ++t) {
    settled_[t].store(0, std::memory_order_relaxed);
  }
  sweep_stack_.reserve(64);
}

void EpochManager::NoteDep(TxnId from, TxnId to) {
  if (from == to) return;
  if (Settled(from)) return;
  std::lock_guard<std::mutex> lock(mu_);
  NoteDepLocked(from, to);
}

void EpochManager::NoteDeps(const std::vector<TxnId>& froms, TxnId to) {
  if (froms.empty()) return;
  std::lock_guard<std::mutex> lock(mu_);
  for (const TxnId from : froms) {
    if (from == to) continue;
    NoteDepLocked(from, to);
  }
}

void EpochManager::NoteDepLocked(TxnId from, TxnId to) {
  RELSER_CHECK_MSG(from < txn_count_ && to < txn_count_,
                   "dependency endpoints must lie in the txn universe");
  if (settled_[from].load(std::memory_order_relaxed) != 0) return;
  std::vector<TxnId>& out = succs_[from];
  const auto it = std::lower_bound(out.begin(), out.end(), to);
  if (it != out.end() && *it == to) return;
  if (out.empty()) sources_.push_back(from);
  out.insert(it, to);
  dep_arcs_live_.fetch_add(1, std::memory_order_relaxed);
}

void EpochManager::NoteFinish(TxnId txn) {
  RELSER_CHECK_MSG(txn < txn_count_, "finish for unknown transaction");
  std::lock_guard<std::mutex> lock(mu_);
  if (finished_[txn] != 0 || Settled(txn)) return;
  finished_[txn] = 1;
  pending_.push_back(txn);
  finished_count_.fetch_add(1, std::memory_order_relaxed);
  if (gc_interval_ == 0) return;
  if (++finishes_since_sweep_ >= gc_interval_) {
    finishes_since_sweep_ = 0;
    SweepLocked();
  }
}

void EpochManager::NoteArcFreeFinish(TxnId txn) {
  RELSER_DCHECK(txn < txn_count_ && !Settled(txn));
  settled_[txn].store(1, std::memory_order_release);
  settled_count_.fetch_add(1, std::memory_order_relaxed);
}

std::size_t EpochManager::Sweep() {
  std::lock_guard<std::mutex> lock(mu_);
  finishes_since_sweep_ = 0;
  return SweepLocked();
}

std::size_t EpochManager::SweepLocked() {
  // Mark everything forward-reachable from an unfinished transaction;
  // the unreached part of pending_ is the newly settled batch (its
  // complement-closure makes it predecessor-closed: an arc u -> v with
  // v unreached and u reached is impossible, since u reached marks v
  // reached). Unfinished transactions without an outgoing arc reach
  // nothing and are never pending, so only sources_ can root the walk.
  ++visit_gen_;
  if (visit_gen_ == 0) {  // stamp wrap: reset and restart generations
    std::fill(visit_stamp_.begin(), visit_stamp_.end(), 0);
    visit_gen_ = 1;
  }
  sweep_stack_.clear();
  for (const TxnId t : sources_) {
    if (finished_[t] == 0) {
      visit_stamp_[t] = visit_gen_;
      sweep_stack_.push_back(t);
    }
  }
  while (!sweep_stack_.empty()) {
    const TxnId u = sweep_stack_.back();
    sweep_stack_.pop_back();
    for (const TxnId v : succs_[u]) {
      if (visit_stamp_[v] != visit_gen_ &&
          settled_[v].load(std::memory_order_relaxed) == 0) {
        visit_stamp_[v] = visit_gen_;
        sweep_stack_.push_back(v);
      }
    }
  }
  const std::size_t log_begin =
      settle_log_size_.load(std::memory_order_relaxed);
  std::size_t log_end = log_begin;
  std::size_t kept = 0;
  for (const TxnId t : pending_) {
    if (visit_stamp_[t] == visit_gen_) {  // frontier-reachable
      pending_[kept++] = t;
      continue;
    }
    settled_[t].store(1, std::memory_order_release);
    settle_log_[log_end++] = t;
    // Outgoing arcs of a settled source can never lie on a future
    // cycle; drop the adjacency wholesale.
    dep_arcs_live_.fetch_sub(succs_[t].size(), std::memory_order_relaxed);
    std::vector<TxnId>().swap(succs_[t]);
  }
  pending_.resize(kept);
  const std::size_t newly_settled = log_end - log_begin;
  if (newly_settled == 0) return 0;
  std::erase_if(sources_, [this](TxnId t) {
    return settled_[t].load(std::memory_order_relaxed) != 0;
  });
  settle_log_size_.store(log_end, std::memory_order_release);
  settled_count_.fetch_add(newly_settled, std::memory_order_relaxed);
  epochs_advanced_.fetch_add(1, std::memory_order_relaxed);
  TxnId w = watermark_.load(std::memory_order_relaxed);
  while (w < txn_count_ &&
         settled_[w].load(std::memory_order_relaxed) != 0) {
    ++w;
  }
  watermark_.store(w, std::memory_order_release);
  gc_generation_.fetch_add(1, std::memory_order_release);
  return newly_settled;
}

}  // namespace relser
