// Randomized differential test: the columnar Relation against a trivially
// correct row-major reference (linear scans over a vector of tuples).
// Seeded and deterministic; every seed mixes inserts, membership checks
// and windowed probes under random masks. Covers the degenerate arities —
// 0 (one possible tuple) and above 32 (mask bits cannot address every
// column) — alongside the common small ones.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "datalog/relation.h"

namespace dqsq {
namespace {

// Reference implementation: insertion-ordered rows, linear everything.
class ReferenceRelation {
 public:
  explicit ReferenceRelation(uint32_t arity) : arity_(arity) {}

  bool Insert(const Tuple& tuple) {
    for (const Tuple& row : rows_) {
      if (row == tuple) return false;
    }
    rows_.push_back(tuple);
    return true;
  }

  bool Contains(const Tuple& tuple) const {
    for (const Tuple& row : rows_) {
      if (row == tuple) return true;
    }
    return false;
  }

  size_t size() const { return rows_.size(); }
  const Tuple& Row(size_t i) const { return rows_[i]; }

  /// Ascending row ids in [lo, hi) whose mask-selected columns equal `key`.
  std::vector<uint32_t> Probe(uint32_t mask, const std::vector<TermId>& key,
                              uint32_t lo, uint32_t hi) const {
    std::vector<uint32_t> out;
    uint32_t end = hi < rows_.size() ? hi : static_cast<uint32_t>(rows_.size());
    for (uint32_t row = lo; row < end; ++row) {
      size_t k = 0;
      bool match = true;
      for (uint32_t c = 0; c < arity_ && c < 32; ++c) {
        if ((mask & (1u << c)) == 0) continue;
        if (rows_[row][c] != key[k++]) {
          match = false;
          break;
        }
      }
      if (match) out.push_back(row);
    }
    return out;
  }

 private:
  uint32_t arity_;
  std::vector<Tuple> rows_;
};

Tuple RandomTuple(Rng& rng, uint32_t arity, uint64_t domain) {
  Tuple t(arity);
  for (uint32_t c = 0; c < arity; ++c) {
    t[c] = static_cast<TermId>(rng.NextBelow(domain));
  }
  return t;
}

// One seeded run: interleaved inserts / membership checks / probes, with
// every observable result compared against the reference.
void RunCase(uint64_t seed, uint32_t arity, uint64_t domain, size_t ops) {
  Rng rng(seed * 1000003 + arity);
  Relation columnar(arity);
  ReferenceRelation reference(arity);
  std::vector<uint32_t> scratch;
  const uint32_t maskable = arity < 32 ? arity : 32;
  for (size_t op = 0; op < ops; ++op) {
    switch (rng.NextBelow(4)) {
      case 0:
      case 1: {  // insert (weighted: keep the relation growing)
        Tuple t = RandomTuple(rng, arity, domain);
        ASSERT_EQ(columnar.Insert(t), reference.Insert(t))
            << "seed=" << seed << " op=" << op;
        break;
      }
      case 2: {  // membership (random tuple: hits and misses)
        Tuple t = RandomTuple(rng, arity, domain);
        ASSERT_EQ(columnar.Contains(t), reference.Contains(t))
            << "seed=" << seed << " op=" << op;
        break;
      }
      default: {  // windowed probe under a random mask
        uint32_t mask = maskable == 0
                            ? 0
                            : static_cast<uint32_t>(rng.Next()) &
                                  ((maskable == 32 ? 0u : (1u << maskable)) - 1);
        std::vector<TermId> key;
        for (uint32_t m = mask; m != 0; m &= m - 1) {
          key.push_back(static_cast<TermId>(rng.NextBelow(domain)));
        }
        uint32_t n = static_cast<uint32_t>(reference.size());
        uint32_t lo = n == 0 ? 0 : static_cast<uint32_t>(rng.NextBelow(n + 1));
        uint32_t hi = rng.NextBool(0.3)
                          ? Relation::kNoRowLimit
                          : lo + static_cast<uint32_t>(rng.NextBelow(n + 1));
        std::span<const uint32_t> got =
            columnar.Probe(mask, key, scratch, lo, hi);
        std::vector<uint32_t> want = reference.Probe(mask, key, lo, hi);
        ASSERT_EQ(std::vector<uint32_t>(got.begin(), got.end()), want)
            << "seed=" << seed << " op=" << op << " mask=" << mask
            << " lo=" << lo << " hi=" << hi;
        break;
      }
    }
  }
  // Final state: same rows in the same order.
  ASSERT_EQ(columnar.size(), reference.size()) << "seed=" << seed;
  for (size_t i = 0; i < reference.size(); ++i) {
    ASSERT_EQ(columnar.Row(i), reference.Row(i))
        << "seed=" << seed << " row=" << i;
    for (uint32_t c = 0; c < arity; ++c) {
      ASSERT_EQ(columnar.At(i, c), reference.Row(i)[c]);
    }
  }
}

TEST(RelationPropertyTest, MatchesReferenceAcrossSeedsSmallArity) {
  // Tight domain: plenty of duplicate inserts and multi-row probe results.
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    RunCase(seed, /*arity=*/2, /*domain=*/5, /*ops=*/400);
  }
}

TEST(RelationPropertyTest, MatchesReferenceAcrossSeedsMidArity) {
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    RunCase(seed, /*arity=*/4, /*domain=*/3, /*ops=*/300);
  }
}

TEST(RelationPropertyTest, ZeroArityRelationBehaves) {
  // Arity 0 admits exactly one tuple; every operation must still agree.
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    RunCase(seed, /*arity=*/0, /*domain=*/1, /*ops=*/50);
  }
  Relation r(0);
  Tuple empty;
  EXPECT_FALSE(r.Contains(empty));
  EXPECT_TRUE(r.Insert(empty));
  EXPECT_FALSE(r.Insert(empty));
  EXPECT_TRUE(r.Contains(empty));
  EXPECT_EQ(r.size(), 1u);
  std::vector<uint32_t> scratch;
  auto rows = r.Probe(/*mask=*/0, {}, scratch);
  EXPECT_EQ(std::vector<uint32_t>(rows.begin(), rows.end()),
            (std::vector<uint32_t>{0}));
}

TEST(RelationPropertyTest, HighArityBeyondMaskWidthBehaves) {
  // Arity 40: columns past bit 31 exist but cannot be named by a probe
  // mask; inserts, dedup and probes over the low columns must still agree.
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    RunCase(seed, /*arity=*/40, /*domain=*/2, /*ops=*/150);
  }
}

}  // namespace
}  // namespace dqsq
