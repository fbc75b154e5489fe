#include "datalog/relation.h"

#include <gtest/gtest.h>

#include <vector>

namespace dqsq {
namespace {

TEST(RelationTest, InsertDeduplicates) {
  Relation rel(2);
  EXPECT_TRUE(rel.Insert(std::vector<TermId>{1, 2}));
  EXPECT_FALSE(rel.Insert(std::vector<TermId>{1, 2}));
  EXPECT_TRUE(rel.Insert(std::vector<TermId>{2, 1}));
  EXPECT_EQ(rel.size(), 2u);
  EXPECT_TRUE(rel.Contains(std::vector<TermId>{1, 2}));
  EXPECT_FALSE(rel.Contains(std::vector<TermId>{9, 9}));
}

TEST(RelationTest, RowsKeepInsertionOrder) {
  Relation rel(1);
  for (TermId t = 10; t < 20; ++t) rel.Insert(std::vector<TermId>{t});
  for (size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(rel.Row(i)[0], static_cast<TermId>(10 + i));
  }
}

TEST(RelationTest, ZeroArityRelationHoldsOneTuple) {
  Relation rel(0);
  EXPECT_EQ(rel.size(), 0u);
  EXPECT_FALSE(rel.Contains({}));
  EXPECT_TRUE(rel.Insert({}));
  EXPECT_FALSE(rel.Insert({}));
  EXPECT_EQ(rel.size(), 1u);
  EXPECT_TRUE(rel.Contains({}));
  EXPECT_TRUE(rel.Row(0).empty());
}

TEST(RelationTest, ColumnarAccessorsMirrorRows) {
  Relation rel(3);
  rel.Insert(std::vector<TermId>{1, 2, 3});
  rel.Insert(std::vector<TermId>{4, 5, 6});
  EXPECT_EQ(rel.At(0, 0), 1u);
  EXPECT_EQ(rel.At(1, 2), 6u);
  ASSERT_EQ(rel.Column(1).size(), 2u);
  EXPECT_EQ(rel.Column(1)[0], 2u);
  EXPECT_EQ(rel.Column(1)[1], 5u);
  for (size_t i = 0; i < rel.size(); ++i) {
    for (uint32_t c = 0; c < rel.arity(); ++c) {
      EXPECT_EQ(rel.Row(i)[c], rel.At(i, c));
    }
  }
}

TEST(RelationTest, RowCopySurvivesReallocatingInserts) {
  Relation rel(3);
  rel.Insert(std::vector<TermId>{7, 8, 9});
  const Tuple copy = rel.Row(0);
  const TermId* column0 = rel.Column(0).data();
  // Far past any initial capacity, so every column reallocates.
  for (TermId t = 100; t < 5100; ++t) {
    rel.Insert(std::vector<TermId>{t, t + 1, t + 2});
  }
  ASSERT_NE(rel.Column(0).data(), column0);
  EXPECT_EQ(copy, (Tuple{7, 8, 9}));
  EXPECT_EQ(copy, rel.Row(0));
  for (uint32_t c = 0; c < rel.arity(); ++c) EXPECT_EQ(copy[c], rel.At(0, c));
}

TEST(RelationTest, ProbeByMask) {
  Relation rel(2);
  rel.Insert(std::vector<TermId>{1, 10});
  rel.Insert(std::vector<TermId>{1, 11});
  rel.Insert(std::vector<TermId>{2, 10});
  std::vector<uint32_t> scratch;
  // Index on column 0.
  auto rows = rel.Probe(0b01, std::vector<TermId>{1}, scratch);
  EXPECT_EQ(rows.size(), 2u);
  auto rows2 = rel.Probe(0b10, std::vector<TermId>{10}, scratch);
  EXPECT_EQ(rows2.size(), 2u);
  auto rows3 = rel.Probe(0b11, std::vector<TermId>{2, 10}, scratch);
  ASSERT_EQ(rows3.size(), 1u);
  EXPECT_EQ(rows3[0], 2u);
  auto none = rel.Probe(0b01, std::vector<TermId>{7}, scratch);
  EXPECT_TRUE(none.empty());
}

TEST(RelationTest, ProbeHonorsRowRange) {
  Relation rel(2);
  for (TermId b = 0; b < 10; ++b) rel.Insert(std::vector<TermId>{1, b});
  std::vector<uint32_t> scratch;
  auto all = rel.Probe(0b01, std::vector<TermId>{1}, scratch);
  EXPECT_EQ(all.size(), 10u);
  auto window = rel.Probe(0b01, std::vector<TermId>{1}, scratch, 3, 7);
  ASSERT_EQ(window.size(), 4u);
  for (size_t i = 0; i < window.size(); ++i) {
    EXPECT_EQ(window[i], 3u + i);
  }
  auto empty = rel.Probe(0b01, std::vector<TermId>{1}, scratch, 10, 20);
  EXPECT_TRUE(empty.empty());
}

TEST(RelationTest, IndicesStayCurrentAcrossInserts) {
  Relation rel(2);
  rel.Insert(std::vector<TermId>{1, 10});
  std::vector<uint32_t> scratch;
  // Build the index, then insert more rows.
  EXPECT_EQ(rel.Probe(0b01, std::vector<TermId>{1}, scratch).size(), 1u);
  rel.Insert(std::vector<TermId>{1, 11});
  rel.Insert(std::vector<TermId>{1, 12});
  EXPECT_EQ(rel.Probe(0b01, std::vector<TermId>{1}, scratch).size(), 3u);
  EXPECT_EQ(rel.num_indices(), 1u);
}

// Regression for the dangling-probe bug: the old implementation returned a
// reference into the index, which an Insert (and the index growth it
// triggers) could reallocate. The span now views the caller's scratch and
// must stay valid and unchanged across arbitrary later inserts.
TEST(RelationTest, ProbeResultSurvivesInsertsAndIndexGrowth) {
  Relation rel(2);
  for (TermId b = 0; b < 8; ++b) rel.Insert(std::vector<TermId>{1, b});
  std::vector<uint32_t> scratch;
  auto rows = rel.Probe(0b01, std::vector<TermId>{1}, scratch);
  ASSERT_EQ(rows.size(), 8u);
  // Grow the relation enough to force index slot-table and chunk-pool
  // reallocation while the probe result is still live.
  for (TermId a = 2; a < 200; ++a) {
    for (TermId b = 0; b < 4; ++b) rel.Insert(std::vector<TermId>{a, b});
  }
  rel.Insert(std::vector<TermId>{1, 100});
  ASSERT_EQ(rows.size(), 8u);
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i], static_cast<uint32_t>(i));
    EXPECT_EQ(rel.Row(rows[i])[1], static_cast<TermId>(i));
  }
  // A fresh probe sees the newly inserted row.
  std::vector<uint32_t> scratch2;
  EXPECT_EQ(rel.Probe(0b01, std::vector<TermId>{1}, scratch2).size(), 9u);
}

TEST(RelationTest, ProbeRowsAreAscending) {
  Relation rel(2);
  for (TermId a = 0; a < 5; ++a) {
    for (TermId b = 0; b < 20; ++b) rel.Insert(std::vector<TermId>{a, b});
  }
  std::vector<uint32_t> scratch;
  for (TermId a = 0; a < 5; ++a) {
    auto rows = rel.Probe(0b01, std::vector<TermId>{a}, scratch);
    ASSERT_EQ(rows.size(), 20u);
    for (size_t i = 1; i < rows.size(); ++i) {
      EXPECT_LT(rows[i - 1], rows[i]);
    }
  }
}

TEST(RelationTest, ReservePreservesContents) {
  Relation rel(2);
  rel.Insert(std::vector<TermId>{1, 2});
  rel.Reserve(1000);
  EXPECT_EQ(rel.size(), 1u);
  EXPECT_TRUE(rel.Contains(std::vector<TermId>{1, 2}));
  for (TermId b = 0; b < 100; ++b) rel.Insert(std::vector<TermId>{2, b});
  EXPECT_EQ(rel.size(), 101u);
}

TEST(RelationTest, ManyTuplesStressDedup) {
  Relation rel(2);
  for (TermId a = 0; a < 50; ++a) {
    for (TermId b = 0; b < 50; ++b) {
      EXPECT_TRUE(rel.Insert(std::vector<TermId>{a, b}));
    }
  }
  EXPECT_EQ(rel.size(), 2500u);
  for (TermId a = 0; a < 50; ++a) {
    EXPECT_FALSE(rel.Insert(std::vector<TermId>{a, a}));
  }
}

}  // namespace
}  // namespace dqsq
