// Growable bitset used for the unfolding engine's concurrency relation and
// causal-ancestor sets, where dense pairwise queries dominate, and for the
// evaluator's dirty plans, scanned in ascending order.
#ifndef DQSQ_COMMON_BITSET_H_
#define DQSQ_COMMON_BITSET_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace dqsq {

class DynBitset {
 public:
  DynBitset() = default;
  explicit DynBitset(size_t bits) : words_((bits + 63) / 64, 0) {}

  void Resize(size_t bits) { words_.resize((bits + 63) / 64, 0); }

  void Set(size_t i) {
    EnsureWord(i / 64);
    words_[i / 64] |= (1ULL << (i % 64));
  }

  void Clear(size_t i) {
    if (i / 64 < words_.size()) words_[i / 64] &= ~(1ULL << (i % 64));
  }

  bool Test(size_t i) const {
    size_t w = i / 64;
    return w < words_.size() && (words_[w] & (1ULL << (i % 64)));
  }

  /// this &= other (missing words in either treated as zero).
  void IntersectWith(const DynBitset& other) {
    size_t n = std::min(words_.size(), other.words_.size());
    for (size_t i = 0; i < n; ++i) words_[i] &= other.words_[i];
    for (size_t i = n; i < words_.size(); ++i) words_[i] = 0;
  }

  /// this |= other.
  void UnionWith(const DynBitset& other) {
    if (other.words_.size() > words_.size()) {
      words_.resize(other.words_.size(), 0);
    }
    for (size_t i = 0; i < other.words_.size(); ++i) {
      words_[i] |= other.words_[i];
    }
  }

  /// True iff every set bit of `other` is set here.
  bool Contains(const DynBitset& other) const {
    for (size_t i = 0; i < other.words_.size(); ++i) {
      uint64_t w = (i < words_.size()) ? words_[i] : 0;
      if ((other.words_[i] & ~w) != 0) return false;
    }
    return true;
  }

  /// True iff no bit is set in both.
  bool DisjointFrom(const DynBitset& other) const {
    size_t n = std::min(words_.size(), other.words_.size());
    for (size_t i = 0; i < n; ++i) {
      if (words_[i] & other.words_[i]) return false;
    }
    return true;
  }

  static constexpr size_t npos = static_cast<size_t>(-1);

  /// The lowest set bit at or after `from`, or npos.
  size_t FindNext(size_t from) const {
    size_t w = from / 64;
    if (w >= words_.size()) return npos;
    uint64_t word = words_[w] & (~0ULL << (from % 64));
    while (word == 0) {
      if (++w == words_.size()) return npos;
      word = words_[w];
    }
    return w * 64 + static_cast<size_t>(__builtin_ctzll(word));
  }

  size_t PopCount() const {
    size_t count = 0;
    for (uint64_t w : words_) count += static_cast<size_t>(__builtin_popcountll(w));
    return count;
  }

  /// Indices of all set bits, ascending.
  std::vector<uint32_t> ToVector() const {
    std::vector<uint32_t> out;
    for (size_t w = 0; w < words_.size(); ++w) {
      uint64_t word = words_[w];
      while (word) {
        uint32_t bit = static_cast<uint32_t>(__builtin_ctzll(word));
        out.push_back(static_cast<uint32_t>(w * 64 + bit));
        word &= word - 1;
      }
    }
    return out;
  }

  friend bool operator==(const DynBitset& a, const DynBitset& b) {
    size_t n = std::max(a.words_.size(), b.words_.size());
    for (size_t i = 0; i < n; ++i) {
      uint64_t wa = (i < a.words_.size()) ? a.words_[i] : 0;
      uint64_t wb = (i < b.words_.size()) ? b.words_[i] : 0;
      if (wa != wb) return false;
    }
    return true;
  }

 private:
  void EnsureWord(size_t w) {
    if (w >= words_.size()) words_.resize(w + 1, 0);
  }

  std::vector<uint64_t> words_;
};

}  // namespace dqsq

#endif  // DQSQ_COMMON_BITSET_H_
