#include "core/mvcc/version_store.h"

#include <algorithm>

namespace relser {

void VersionStore::Append(FlatLists* lists, const std::vector<ObjectId>& objs) {
  lists->flat.insert(lists->flat.end(), objs.begin(), objs.end());
  lists->offsets.push_back(static_cast<std::uint32_t>(lists->flat.size()));
}

VersionStore::VersionStore(const TransactionSet& txns)
    : read_only_(txns.txn_count(), 0),
      unfinished_writers_(txns.object_count()),
      finished_(txns.txn_count()),
      escalated_(txns.txn_count()),
      heads_(txns.object_count(), 0),
      multi_mark_(txns.object_count(), 0),
      chain_len_(txns.object_count(), 0) {
  reads_.offsets.push_back(0);
  writes_.offsets.push_back(0);
  for (auto& counter : unfinished_writers_) {
    counter.store(0, std::memory_order_relaxed);
  }
  for (std::size_t t = 0; t < txns.txn_count(); ++t) {
    finished_[t].store(0, std::memory_order_relaxed);
    escalated_[t].store(0, std::memory_order_relaxed);
    std::vector<ObjectId> reads;
    std::vector<ObjectId> writes;
    for (const Operation& op : txns.txn(static_cast<TxnId>(t)).ops()) {
      (op.is_read() ? reads : writes).push_back(op.object);
    }
    auto dedupe = [](std::vector<ObjectId>* v) {
      std::sort(v->begin(), v->end());
      v->erase(std::unique(v->begin(), v->end()), v->end());
    };
    dedupe(&reads);
    dedupe(&writes);
    read_only_[t] = writes.empty() ? 1 : 0;
    for (ObjectId obj : writes) {
      unfinished_writers_[obj].fetch_add(1, std::memory_order_relaxed);
    }
    Append(&reads_, reads);
    Append(&writes_, writes);
  }
}

bool VersionStore::ReadSetSettled(TxnId txn) const {
  const std::uint32_t begin = reads_.offsets[txn];
  const std::uint32_t end = reads_.offsets[txn + 1];
  for (std::uint32_t i = begin; i < end; ++i) {
    if (unfinished_writers_[reads_.flat[i]].load(std::memory_order_acquire) !=
        0) {
      return false;
    }
  }
  return true;
}

void VersionStore::NoteCommit(TxnId txn) {
  if (finished_[txn].exchange(1, std::memory_order_acq_rel) != 0) return;
  const std::uint32_t begin = writes_.offsets[txn];
  const std::uint32_t end = writes_.offsets[txn + 1];
  {
    std::lock_guard<std::mutex> lock(arena_mutex_);
    // Epoch assignment and version appends share the mutex so per-object
    // chains are strictly epoch-descending from the head.
    const std::uint64_t epoch =
        watermark_.fetch_add(1, std::memory_order_release) + 1;
    for (std::uint32_t i = begin; i < end; ++i) {
      const ObjectId obj = writes_.flat[i];
      std::uint32_t v = free_head_;  // 1 + slot index, 0 = none free
      if (v != 0) {
        free_head_ = version_prev_[v - 1];
        --free_count_;
        version_epoch_[v - 1] = epoch;
        version_writer_[v - 1] = txn;
        version_prev_[v - 1] = heads_[obj];
      } else {
        version_epoch_.push_back(epoch);
        version_writer_.push_back(txn);
        version_prev_.push_back(heads_[obj]);
        v = static_cast<std::uint32_t>(version_epoch_.size());
      }
      if (heads_[obj] != 0 && multi_mark_[obj] == 0) {
        multi_mark_[obj] = 1;
        multi_.push_back(obj);
      }
      heads_[obj] = v;
      if (chain_len_[obj]++ == 0) ++objects_with_versions_;
      chain_hist_.Record(chain_len_[obj]);
      max_chain_ = std::max<std::uint64_t>(max_chain_, chain_len_[obj]);
    }
  }
  // The release decrement is what a classifying reader acquires: once it
  // reads zero, this commit's watermark bump (and arena state, behind
  // the mutex) is visible.
  for (std::uint32_t i = begin; i < end; ++i) {
    unfinished_writers_[writes_.flat[i]].fetch_sub(1,
                                                   std::memory_order_release);
  }
}

void VersionStore::NoteAbort(TxnId txn) {
  if (finished_[txn].exchange(1, std::memory_order_acq_rel) != 0) return;
  const std::uint32_t begin = writes_.offsets[txn];
  const std::uint32_t end = writes_.offsets[txn + 1];
  for (std::uint32_t i = begin; i < end; ++i) {
    unfinished_writers_[writes_.flat[i]].fetch_sub(1,
                                                   std::memory_order_release);
  }
}

void VersionStore::LogSnapshotAdmit(TxnId txn, std::uint64_t epoch,
                                    std::uint64_t stamp) {
  {
    std::lock_guard<std::mutex> lock(log_mutex_);
    admit_log_.push_back(SnapshotAdmitRecord{txn, epoch, stamp});
    unsettled_admits_.push_back(SnapshotAdmitRecord{txn, epoch, stamp});
  }
  snapshot_admits_.fetch_add(1, std::memory_order_relaxed);
}

std::vector<SnapshotAdmitRecord> VersionStore::SnapshotAdmits() const {
  std::vector<SnapshotAdmitRecord> out;
  {
    std::lock_guard<std::mutex> lock(log_mutex_);
    out = admit_log_;
  }
  std::sort(out.begin(), out.end(),
            [](const SnapshotAdmitRecord& a, const SnapshotAdmitRecord& b) {
              return a.stamp < b.stamp;
            });
  return out;
}

bool VersionStore::TryCountEscalation(TxnId txn) {
  if (escalated_[txn].exchange(1, std::memory_order_relaxed) != 0) {
    return false;
  }
  snapshot_escalations_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

std::uint32_t VersionStore::VisibleWriter(ObjectId object,
                                          std::uint64_t epoch) const {
  std::lock_guard<std::mutex> lock(arena_mutex_);
  for (std::uint32_t v = heads_[object]; v != 0; v = version_prev_[v - 1]) {
    if (version_epoch_[v - 1] <= epoch) return version_writer_[v - 1] + 1;
  }
  return 0;
}

std::uint64_t VersionStore::ChainLength(ObjectId object) const {
  std::lock_guard<std::mutex> lock(arena_mutex_);
  return chain_len_[object];
}

std::uint64_t VersionStore::PruneBelow(std::uint64_t floor) {
  std::lock_guard<std::mutex> lock(arena_mutex_);
  // Only chains of two or more versions can hold a dominated one. Per
  // such object, walk newest-first to the first version at or below the
  // floor (the resolution target of every floor-or-later snapshot) and
  // free everything older. Chains are strictly epoch-descending from
  // the head, so the freed suffix is exactly the dominated set.
  std::uint64_t pruned = 0;
  std::size_t kept = 0;
  for (const ObjectId obj : multi_) {
    std::uint32_t v = heads_[obj];
    while (version_epoch_[v - 1] > floor && version_prev_[v - 1] != 0) {
      v = version_prev_[v - 1];
    }
    if (version_epoch_[v - 1] <= floor) {
      for (std::uint32_t old = version_prev_[v - 1]; old != 0;) {
        const std::uint32_t next = version_prev_[old - 1];
        version_prev_[old - 1] = free_head_;
        free_head_ = old;
        ++free_count_;
        ++pruned;
        old = next;
      }
      version_prev_[v - 1] = 0;
    }
    if (version_prev_[heads_[obj] - 1] != 0) {
      multi_[kept++] = obj;
    } else {
      multi_mark_[obj] = 0;
    }
  }
  multi_.resize(kept);
  versions_pruned_ += pruned;
  return pruned;
}

std::uint64_t VersionStore::SafePruneFloor(
    const std::atomic<std::uint8_t>* settled) {
  std::uint64_t floor = watermark();
  std::lock_guard<std::mutex> lock(log_mutex_);
  // Settling is monotone, so a settled admission never bounds a floor
  // again: forget it, which keeps this walk to the unsettled ones.
  std::erase_if(unsettled_admits_, [&](const SnapshotAdmitRecord& rec) {
    return settled[rec.txn].load(std::memory_order_relaxed) != 0;
  });
  for (const SnapshotAdmitRecord& rec : unsettled_admits_) {
    floor = std::min(floor, rec.epoch);
  }
  return floor;
}

std::uint64_t VersionStore::versions_pruned() const {
  std::lock_guard<std::mutex> lock(arena_mutex_);
  return versions_pruned_;
}

std::uint64_t VersionStore::retained_versions() const {
  std::lock_guard<std::mutex> lock(arena_mutex_);
  return version_epoch_.size() - free_count_;
}

VersionChainStats VersionStore::ChainStats() const {
  std::lock_guard<std::mutex> lock(arena_mutex_);
  VersionChainStats stats;
  stats.versions = version_epoch_.size() - free_count_;
  stats.objects_with_versions = objects_with_versions_;
  stats.max_chain = max_chain_;
  stats.p50_chain = chain_hist_.Quantile(0.5);
  stats.p99_chain = chain_hist_.Quantile(0.99);
  return stats;
}

}  // namespace relser
