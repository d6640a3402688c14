#include "spec/atomicity_spec.h"

#include <bit>

#include "util/strings.h"

namespace relser {

namespace {

std::uint64_t Bit(std::uint32_t gap) { return std::uint64_t{1} << (gap & 63); }

}  // namespace

AtomicitySpec::AtomicitySpec(const TransactionSet& txns) {
  const std::size_t count = txns.txn_count();
  txn_sizes_.reserve(count);
  stride_.reserve(count);
  row_word_.reserve(count);
  std::size_t total = 0;
  for (const Transaction& txn : txns.txns()) {
    txn_sizes_.push_back(txn.size());
    const std::size_t gaps = txn.size() == 0 ? 0 : txn.size() - 1;
    stride_.push_back(static_cast<std::uint32_t>((gaps + 63) / 64));
    row_word_.push_back(total);
    total += count * stride_.back();
  }
  words_.assign(total, 0);
}

void AtomicitySpec::SetBreakpoint(TxnId i, TxnId j, std::uint32_t gap) {
  RELSER_CHECK_MSG(i != j, "Atomicity(Ti,Ti) is not defined");
  RELSER_CHECK_MSG(gap < GapCount(i), "gap " << gap << " out of range for T"
                                              << i + 1 << " (" << GapCount(i)
                                              << " gaps)");
  PairBits(i, j)[gap / 64] |= Bit(gap);
}

void AtomicitySpec::ClearBreakpoint(TxnId i, TxnId j, std::uint32_t gap) {
  RELSER_CHECK(i != j);
  RELSER_CHECK(gap < GapCount(i));
  PairBits(i, j)[gap / 64] &= ~Bit(gap);
}

bool AtomicitySpec::HasBreakpoint(TxnId i, TxnId j, std::uint32_t gap) const {
  RELSER_CHECK(i != j);
  RELSER_CHECK(gap < GapCount(i));
  return (PairBits(i, j)[gap / 64] & Bit(gap)) != 0;
}

void AtomicitySpec::RelaxFully(TxnId i, TxnId j) {
  RELSER_CHECK(i != j);
  const std::uint32_t gaps = GapCount(i);
  std::uint64_t* pair = PairBits(i, j);
  for (std::uint32_t w = 0; w < stride_[i]; ++w) pair[w] = ~std::uint64_t{0};
  // Bits past the last gap stay zero (the masked scans rely on it).
  if (gaps % 64 != 0) pair[stride_[i] - 1] = Bit(gaps) - 1;
}

std::size_t AtomicitySpec::UnitCount(TxnId i, TxnId j) const {
  RELSER_CHECK(i != j);
  const std::uint64_t* pair = PairBits(i, j);
  std::size_t count = 1;
  for (std::uint32_t w = 0; w < stride_[i]; ++w) {
    count += static_cast<std::size_t>(std::popcount(pair[w]));
  }
  return count;
}

std::size_t AtomicitySpec::UnitOfOp(TxnId i, TxnId j,
                                    std::uint32_t index) const {
  RELSER_CHECK(i != j);
  RELSER_CHECK_MSG(index < txn_sizes_[i],
                   "op index " << index << " out of range for T" << i + 1);
  // Breakpoints at gaps < index.
  const std::uint64_t* pair = PairBits(i, j);
  std::size_t unit = 0;
  for (std::uint32_t w = 0; w < index / 64; ++w) {
    unit += static_cast<std::size_t>(std::popcount(pair[w]));
  }
  if (index % 64 != 0) {
    unit += static_cast<std::size_t>(
        std::popcount(pair[index / 64] & (Bit(index) - 1)));
  }
  return unit;
}

std::vector<UnitRange> AtomicitySpec::Units(TxnId i, TxnId j) const {
  RELSER_CHECK(i != j);
  const std::uint64_t* pair = PairBits(i, j);
  std::vector<UnitRange> units;
  std::uint32_t first = 0;
  for (std::uint32_t w = 0; w < stride_[i]; ++w) {
    for (std::uint64_t bits = pair[w]; bits != 0; bits &= bits - 1) {
      const std::uint32_t g =
          64 * w + static_cast<std::uint32_t>(std::countr_zero(bits));
      units.push_back(UnitRange{first, g});
      first = g + 1;
    }
  }
  units.push_back(
      UnitRange{first, static_cast<std::uint32_t>(txn_sizes_[i] - 1)});
  return units;
}

UnitRange AtomicitySpec::UnitBounds(TxnId i, TxnId j, std::size_t k) const {
  const std::vector<UnitRange> units = Units(i, j);
  RELSER_CHECK_MSG(k < units.size(), "unit " << k << " out of range");
  return units[k];
}

std::uint32_t AtomicitySpec::PushForward(TxnId i, TxnId j,
                                         std::uint32_t index) const {
  RELSER_CHECK(i != j);
  RELSER_CHECK(index < txn_sizes_[i]);
  // Last op of the containing unit: the first breakpoint at a gap >=
  // index, or the transaction's last op when there is none.
  const std::uint64_t* pair = PairBits(i, j);
  std::uint32_t w = index / 64;
  if (w >= stride_[i]) return GapCount(i);
  std::uint64_t bits = pair[w] & ~(Bit(index) - 1);
  while (bits == 0) {
    if (++w == stride_[i]) return GapCount(i);
    bits = pair[w];
  }
  return 64 * w + static_cast<std::uint32_t>(std::countr_zero(bits));
}

std::uint32_t AtomicitySpec::PullBackward(TxnId i, TxnId j,
                                          std::uint32_t index) const {
  RELSER_CHECK(i != j);
  RELSER_CHECK(index < txn_sizes_[i]);
  // First op of the containing unit: one past the last breakpoint at a
  // gap < index, or op 0 when there is none.
  if (index == 0) return 0;
  const std::uint64_t* pair = PairBits(i, j);
  const std::uint32_t top = index - 1;  // highest gap to consider
  std::uint32_t w = top / 64;
  std::uint64_t bits = pair[w] & (~std::uint64_t{0} >> (63 - top % 64));
  while (bits == 0) {
    if (w == 0) return 0;
    bits = pair[--w];
  }
  return 64 * w + 64 - static_cast<std::uint32_t>(std::countl_zero(bits));
}

bool AtomicitySpec::IsAbsolute() const { return TotalBreakpoints() == 0; }

bool AtomicitySpec::AtLeastAsPermissiveAs(const AtomicitySpec& other) const {
  // Equal sizes mean equal layouts, so the pairs line up word for word.
  if (txn_sizes_ != other.txn_sizes_) return false;
  for (std::size_t w = 0; w < words_.size(); ++w) {
    if ((other.words_[w] & ~words_[w]) != 0) return false;
  }
  return true;
}

std::size_t AtomicitySpec::TotalBreakpoints() const {
  std::size_t total = 0;
  for (const std::uint64_t word : words_) {
    total += static_cast<std::size_t>(std::popcount(word));
  }
  return total;
}

Status AtomicitySpec::ValidateAgainst(const TransactionSet& txns) const {
  if (txns.txn_count() != txn_count()) {
    return Status::FailedPrecondition(
        StrCat("spec built for ", txn_count(), " transactions, set has ",
               txns.txn_count()));
  }
  for (TxnId i = 0; i < txn_count(); ++i) {
    if (txns.txn(i).size() != txn_sizes_[i]) {
      return Status::FailedPrecondition(
          StrCat("T", i + 1, " has ", txns.txn(i).size(),
                 " operations, spec expects ", txn_sizes_[i]));
    }
  }
  return Status::Ok();
}

}  // namespace relser
