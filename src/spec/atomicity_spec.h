// AtomicitySpec: the paper's relative atomicity specifications (Section 2).
//
// For every ordered pair (Ti, Tj), i != j, Atomicity(Ti, Tj) partitions
// Ti's operation sequence into contiguous *atomic units*; no operation of
// Tj may be interleaved within a unit (Definition 1). We store each
// Atomicity(Ti, Tj) as a *breakpoint set* over Ti's gaps — gap g lies
// between op g and op g+1; a breakpoint at g ends a unit — which is the
// Farrag–Özsu view and makes every published spec family (absolute,
// Garcia-Molina compatibility sets, Lynch multilevel, arbitrary
// breakpoints) a constructor over one representation.
//
// The default-constructed spec has no breakpoints anywhere: absolute
// atomicity, under which the theory collapses to classical conflict
// serializability (Lemma 1).
#ifndef RELSER_SPEC_ATOMICITY_SPEC_H_
#define RELSER_SPEC_ATOMICITY_SPEC_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "model/operation.h"
#include "model/transaction.h"
#include "util/status.h"

namespace relser {

/// An atomic unit of Ti relative to Tj: the closed op-index range
/// [first, last] within Ti. AtomicUnit(k, Ti, Tj) in the paper.
struct UnitRange {
  std::uint32_t first;
  std::uint32_t last;

  bool Contains(std::uint32_t index) const {
    return first <= index && index <= last;
  }
  friend bool operator==(const UnitRange& a, const UnitRange& b) = default;
};

/// Relative atomicity specifications over a fixed TransactionSet.
class AtomicitySpec {
 public:
  /// Empty spec over zero transactions (placeholder; assign before use).
  AtomicitySpec() = default;

  /// Creates the *absolute* spec over `txns` (no breakpoints: every
  /// transaction is one atomic unit relative to every other).
  explicit AtomicitySpec(const TransactionSet& txns);

  std::size_t txn_count() const { return txn_sizes_.size(); }

  /// Number of operations of Ti (snapshot taken at construction).
  std::size_t txn_size(TxnId i) const { return txn_sizes_[i]; }

  /// Declares a unit boundary in Ti between op `gap` and op `gap+1`, as
  /// seen by Tj. Requires i != j and gap < |Ti|-1.
  void SetBreakpoint(TxnId i, TxnId j, std::uint32_t gap);

  /// Removes a unit boundary.
  void ClearBreakpoint(TxnId i, TxnId j, std::uint32_t gap);

  /// True iff Atomicity(Ti,Tj) has a boundary at `gap`.
  bool HasBreakpoint(TxnId i, TxnId j, std::uint32_t gap) const;

  /// Declares every gap of Ti a boundary for Tj (Tj may interleave
  /// anywhere in Ti).
  void RelaxFully(TxnId i, TxnId j);

  /// Number of atomic units in Atomicity(Ti, Tj) (breakpoints + 1).
  std::size_t UnitCount(TxnId i, TxnId j) const;

  /// Index k of the unit of Ti (relative to Tj) containing op `index`.
  std::size_t UnitOfOp(TxnId i, TxnId j, std::uint32_t index) const;

  /// Bounds of AtomicUnit(k, Ti, Tj).
  UnitRange UnitBounds(TxnId i, TxnId j, std::size_t k) const;

  /// All units of Atomicity(Ti, Tj), in order.
  std::vector<UnitRange> Units(TxnId i, TxnId j) const;

  /// PushForward(o_{i,index}, Tj): index of the *last* operation of the
  /// unit of Ti (relative to Tj) containing op `index` (Section 3).
  std::uint32_t PushForward(TxnId i, TxnId j, std::uint32_t index) const;

  /// PullBackward(o_{i,index}, Tj): index of the *first* operation of the
  /// unit of Ti (relative to Tj) containing op `index` (Section 3).
  std::uint32_t PullBackward(TxnId i, TxnId j, std::uint32_t index) const;

  /// True iff no pair has any breakpoint (the traditional model).
  bool IsAbsolute() const;

  /// True iff every breakpoint of `other` is also a breakpoint of *this
  /// (this spec permits at least the interleavings `other` permits).
  bool AtLeastAsPermissiveAs(const AtomicitySpec& other) const;

  /// Total number of breakpoints across all pairs.
  std::size_t TotalBreakpoints() const;

  /// Verifies the spec shape matches `txns` (sizes unchanged). OK even if
  /// object names changed; only structure matters.
  Status ValidateAgainst(const TransactionSet& txns) const;

  friend bool operator==(const AtomicitySpec& a,
                         const AtomicitySpec& b) = default;

 private:
  /// Atomicity(Ti, Tj)'s stride_[i] gap-bit words (past the end of
  /// words_ when Ti has no gaps, so never dereferenced then).
  const std::uint64_t* PairBits(TxnId i, TxnId j) const {
    RELSER_DCHECK(i < txn_count() && j < txn_count() && i != j);
    return words_.data() + row_word_[i] +
           static_cast<std::size_t>(j) * stride_[i];
  }
  std::uint64_t* PairBits(TxnId i, TxnId j) {
    return const_cast<std::uint64_t*>(std::as_const(*this).PairBits(i, j));
  }
  /// Number of gaps of Ti (|Ti| - 1, or 0 for an empty transaction).
  std::uint32_t GapCount(TxnId i) const {
    return txn_sizes_[i] == 0 ? 0
                              : static_cast<std::uint32_t>(txn_sizes_[i] - 1);
  }

  std::vector<std::size_t> txn_sizes_;
  // Pair-major gap bits: Atomicity(Ti, Tj) occupies stride_[i] words from
  // PairBits(i, j); bit g set iff it breaks after op g. stride_[i] is the
  // word count of Ti's gaps, and the pairs of Ti lie consecutively from
  // row_word_[i], so the whole spec is one allocation. Diagonal pairs
  // (i == j) and every bit at or past GapCount(i) stay zero.
  std::vector<std::uint32_t> stride_;
  std::vector<std::size_t> row_word_;
  std::vector<std::uint64_t> words_;
};

}  // namespace relser

#endif  // RELSER_SPEC_ATOMICITY_SPEC_H_
