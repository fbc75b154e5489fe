// Relation storage: a deduplicated, insertion-ordered set of ground tuples.
// Insertion order is what makes semi-naive evaluation cheap: the delta of a
// round is simply the suffix of rows appended since the previous round.
//
// The store is columnar (DESIGN.md, "Columnar relation storage"): each
// tuple lives once, as one cell per struct-of-arrays column (contiguous
// per-column scans for the join kernel). Duplicate detection is a flat
// open-addressing table over full-tuple hashes whose probe compares a
// candidate column by column; per-mask indices are runs of ascending row
// ids in a shared chunk pool (datalog/columnar.h). Nothing on the hot path
// allocates per tuple or per probe.
#ifndef DQSQ_DATALOG_RELATION_H_
#define DQSQ_DATALOG_RELATION_H_

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "datalog/columnar.h"
#include "datalog/term.h"

namespace dqsq {

using Tuple = std::vector<TermId>;

class Relation {
 public:
  /// "No upper bound" sentinel for Probe's row range.
  static constexpr uint32_t kNoRowLimit = 0xffffffffu;

  explicit Relation(uint32_t arity) : arity_(arity), columns_(arity) {}

  uint32_t arity() const { return arity_; }
  size_t size() const { return num_rows_; }

  /// Inserts `tuple` (size must equal arity). Returns true if new.
  /// (Header-inlined: this and Probe are the two hottest calls in
  /// evaluation; out-of-line versions cost a measurable call overhead.)
  bool Insert(std::span<const TermId> tuple) {
    uint64_t h = HashTermSpan(tuple);
    uint32_t row = static_cast<uint32_t>(num_rows_);
    bool inserted = dedup_.InsertIfAbsent(
        h, row, [&](uint32_t r) { return RowEquals(r, tuple); });
    if (!inserted) return false;
    for (uint32_t c = 0; c < arity_; ++c) columns_[c].push_back(tuple[c]);
    ++num_rows_;
    // Keep existing indices current: append the new row to its key's run
    // (single-column indices skip the mask walk; the hash sequence is the
    // same either way).
    for (auto& [mask, index] : indices_) {
      if (mask != 0 && (mask & (mask - 1)) == 0) {
        const std::vector<TermId>& col = columns_[SingleBitIndex(mask)];
        const TermId v = col[row];
        index.Add(HashTermSpan({&v, 1}), row,
                  [&](uint32_t first_row) { return col[first_row] == v; });
      } else {
        index.Add(MaskedHash(row, mask), row, [&](uint32_t first_row) {
          return MaskedRowsEqual(first_row, row, mask);
        });
      }
    }
    return true;
  }

  /// True iff `tuple` is present.
  bool Contains(std::span<const TermId> tuple) const {
    uint64_t h = HashTermSpan(tuple);
    return dedup_.Find(h, [&](uint32_t row) {
             return RowEquals(row, tuple);
           }) != FlatTupleSet::kNotFound;
  }

  /// Row `i` in insertion order, gathered from the columns into a fresh
  /// Tuple. The copy is the caller's: later Inserts do not touch it. Code
  /// that reads single cells should use At(), which allocates nothing.
  Tuple Row(size_t i) const {
    Tuple t(arity_);
    for (uint32_t c = 0; c < arity_; ++c) t[c] = columns_[c][i];
    return t;
  }

  /// Column `c` of row `i` (struct-of-arrays read; safe to call while
  /// inserting because nothing is cached across calls).
  TermId At(size_t i, uint32_t c) const { return columns_[c][i]; }

  /// Column `c` as a contiguous span (invalidated by Insert).
  std::span<const TermId> Column(uint32_t c) const { return columns_[c]; }

  /// Pre-sizes storage (bulk-load paths such as snapshot restore).
  void Reserve(size_t rows);

  /// Rows whose columns selected by `mask` (bit c set = column c fixed)
  /// equal `key` (the fixed values, in ascending column order), intersected
  /// with the row range [lo, hi). Builds the index for `mask` on first use.
  ///
  /// The matching row ids are copied into `scratch` (cleared first) and the
  /// returned span views it, so the result is a snapshot: it stays valid —
  /// and unchanged — across subsequent Inserts and further index growth.
  /// Row ids are ascending (insertion order).
  std::span<const uint32_t> Probe(uint32_t mask, std::span<const TermId> key,
                                  std::vector<uint32_t>& scratch,
                                  uint32_t lo = 0, uint32_t hi = kNoRowLimit) {
    scratch.clear();
    RunIndex& index = GetIndex(mask);
    uint32_t run;
    if (mask != 0 && (mask & (mask - 1)) == 0) {
      // Single-column key (the common join shape): compare the column
      // value directly instead of walking the mask. Hash sequence is
      // identical to HashTermSpan over the one-element key.
      const TermId k0 = key[0];
      const std::vector<TermId>& col = columns_[SingleBitIndex(mask)];
      run = index.FindRun(HashTermSpan({&k0, 1}), [&](uint32_t first_row) {
        return col[first_row] == k0;
      });
    } else {
      run = index.FindRun(HashTermSpan(key), [&](uint32_t first_row) {
        return MaskedEquals(first_row, mask, key);
      });
    }
    if (run != RunIndex::kNoRun) index.CopyRun(run, lo, hi, scratch);
    return scratch;
  }

  /// Number of distinct indices built so far (introspection for tests).
  size_t num_indices() const { return indices_.size(); }

 private:
  static uint32_t SingleBitIndex(uint32_t mask) {
    return static_cast<uint32_t>(std::countr_zero(mask));
  }

  RunIndex& GetIndex(uint32_t mask) {
    for (auto& [m, index] : indices_) {
      if (m == mask) return index;
    }
    return BuildIndex(mask);
  }

  RunIndex& BuildIndex(uint32_t mask);

  /// True iff row `row` equals `tuple` in every column.
  bool RowEquals(uint32_t row, std::span<const TermId> tuple) const {
    for (uint32_t c = 0; c < arity_; ++c) {
      if (columns_[c][row] != tuple[c]) return false;
    }
    return true;
  }

  /// True iff row `row`'s columns selected by `mask` equal `key`.
  bool MaskedEquals(uint32_t row, uint32_t mask,
                    std::span<const TermId> key) const;

  /// Hash of row `row` restricted to `mask`'s columns.
  uint64_t MaskedHash(uint32_t row, uint32_t mask) const;

  /// True iff rows `a` and `b` agree on `mask`'s columns.
  bool MaskedRowsEqual(uint32_t a, uint32_t b, uint32_t mask) const;

  uint32_t arity_;
  size_t num_rows_ = 0;  // tracked separately so arity 0 works
  std::vector<std::vector<TermId>> columns_;  // struct-of-arrays, [c][row]
  FlatTupleSet dedup_;
  // Lazily built per-mask run indices; linear scan (a handful of masks per
  // relation, and a 4-entry vector beats any hash map at that size).
  std::vector<std::pair<uint32_t, RunIndex>> indices_;
};

}  // namespace dqsq

#endif  // DQSQ_DATALOG_RELATION_H_
