#include "datalog/relation.h"

namespace dqsq {

// The masked helpers walk the set bits of the mask (ascending column
// order) rather than all columns: columns past bit 31 are unreachable by a
// 32-bit mask anyway, and for arities above 32 a full-column loop would
// shift out of range.
bool Relation::MaskedEquals(uint32_t row, uint32_t mask,
                            std::span<const TermId> key) const {
  size_t k = 0;
  for (uint32_t m = mask; m != 0; m &= m - 1) {
    if (columns_[SingleBitIndex(m)][row] != key[k++]) return false;
  }
  return true;
}

bool Relation::MaskedRowsEqual(uint32_t a, uint32_t b, uint32_t mask) const {
  for (uint32_t m = mask; m != 0; m &= m - 1) {
    const std::vector<TermId>& col = columns_[SingleBitIndex(m)];
    if (col[a] != col[b]) return false;
  }
  return true;
}

uint64_t Relation::MaskedHash(uint32_t row, uint32_t mask) const {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (uint32_t m = mask; m != 0; m &= m - 1) {
    h = (h ^ columns_[SingleBitIndex(m)][row]) * 0x100000001b3ULL;
  }
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 29;
  return h;
}

void Relation::Reserve(size_t rows) {
  if (rows <= num_rows_) return;
  for (auto& col : columns_) col.reserve(rows);
  dedup_.Reserve(rows);
}

RunIndex& Relation::BuildIndex(uint32_t mask) {
  indices_.emplace_back(mask, RunIndex());
  RunIndex& index = indices_.back().second;
  BuildRunIndex(columns_, num_rows_, mask, index);
  return index;
}

}  // namespace dqsq
