// UndoLog: an append-only log addressed by absolute position, whose
// oldest entries can be forgotten in amortized O(1).
//
// The exact-abort journals (graph/dynamic_topo.h, core/online.h) push one
// entry per state change, pop entries from the back to roll a suffix
// back, and forget a prefix once nothing can roll back past it. Entries
// keep their absolute position for life, so callers store positions as
// marks ("roll back to where the log ended when op p was admitted")
// without adjusting them when the prefix is dropped. Storage is one
// vector; the dropped prefix is compacted away once it outweighs the
// live part, so steady-state use allocates nothing.
#ifndef RELSER_UTIL_UNDO_LOG_H_
#define RELSER_UTIL_UNDO_LOG_H_

#include <cstddef>
#include <vector>

#include "util/check.h"

namespace relser {

template <typename T>
class UndoLog {
 public:
  /// Absolute position of the oldest retained entry.
  std::size_t begin() const { return base_ + front_; }
  /// Absolute position one past the newest entry.
  std::size_t end() const { return base_ + items_.size(); }
  std::size_t size() const { return end() - begin(); }
  bool empty() const { return begin() == end(); }

  void push_back(const T& item) { items_.push_back(item); }
  const T& back() const {
    RELSER_DCHECK(!empty());
    return items_.back();
  }
  void pop_back() {
    RELSER_DCHECK(!empty());
    items_.pop_back();
  }

  /// Entry at absolute position `pos` (begin() <= pos < end()).
  const T& at(std::size_t pos) const {
    RELSER_DCHECK(pos >= begin() && pos < end());
    return items_[pos - base_];
  }

  /// Forgets every entry before absolute position `pos` (clamped to
  /// end()).
  void DropBefore(std::size_t pos) {
    if (pos <= begin()) return;
    front_ = (pos < end() ? pos : end()) - base_;
    if (front_ * 2 >= items_.size()) {
      items_.erase(items_.begin(),
                   items_.begin() + static_cast<std::ptrdiff_t>(front_));
      base_ += front_;
      front_ = 0;
    }
  }

  /// Forgets everything and restarts numbering at absolute position
  /// `pos`.
  void Reset(std::size_t pos) {
    items_.clear();
    base_ = pos;
    front_ = 0;
  }

 private:
  std::vector<T> items_;   // items_[i] has absolute position base_ + i
  std::size_t base_ = 0;   // absolute position of items_[0]
  std::size_t front_ = 0;  // items_[0, front_) are forgotten
};

}  // namespace relser

#endif  // RELSER_UTIL_UNDO_LOG_H_
