#include "common/bitset.h"

#include <gtest/gtest.h>

namespace dqsq {
namespace {

TEST(DynBitsetTest, SetTestClear) {
  DynBitset b;
  EXPECT_FALSE(b.Test(0));
  EXPECT_FALSE(b.Test(1000));
  b.Set(5);
  b.Set(64);
  b.Set(129);
  EXPECT_TRUE(b.Test(5));
  EXPECT_TRUE(b.Test(64));
  EXPECT_TRUE(b.Test(129));
  EXPECT_FALSE(b.Test(6));
  b.Clear(64);
  EXPECT_FALSE(b.Test(64));
  EXPECT_EQ(b.PopCount(), 2u);
}

TEST(DynBitsetTest, SetOps) {
  DynBitset a, b;
  a.Set(1);
  a.Set(70);
  a.Set(3);
  b.Set(70);
  b.Set(3);
  b.Set(200);

  DynBitset inter = a;
  inter.IntersectWith(b);
  EXPECT_EQ(inter.ToVector(), (std::vector<uint32_t>{3, 70}));

  DynBitset uni = a;
  uni.UnionWith(b);
  EXPECT_EQ(uni.ToVector(), (std::vector<uint32_t>{1, 3, 70, 200}));

  EXPECT_TRUE(uni.Contains(a));
  EXPECT_TRUE(uni.Contains(b));
  EXPECT_FALSE(a.Contains(b));
}

TEST(DynBitsetTest, DisjointAndEquality) {
  DynBitset a, b, c;
  a.Set(10);
  b.Set(11);
  c.Set(10);
  EXPECT_TRUE(a.DisjointFrom(b));
  EXPECT_FALSE(a.DisjointFrom(c));
  EXPECT_TRUE(a == c);
  EXPECT_FALSE(a == b);
  // Different word counts, same bits.
  DynBitset d(1000);
  d.Set(10);
  EXPECT_TRUE(a == d);
}

TEST(DynBitsetTest, ToVectorAscending) {
  DynBitset b;
  for (uint32_t i : {500u, 0u, 63u, 64u, 65u, 200u}) b.Set(i);
  EXPECT_EQ(b.ToVector(), (std::vector<uint32_t>{0, 63, 64, 65, 200, 500}));
}

TEST(DynBitsetTest, FindNextWalksSetBitsAscending) {
  DynBitset b(600);
  for (uint32_t i : {500u, 0u, 63u, 64u, 65u, 200u}) b.Set(i);
  std::vector<uint32_t> found;
  for (size_t i = b.FindNext(0); i != DynBitset::npos; i = b.FindNext(i + 1)) {
    found.push_back(static_cast<uint32_t>(i));
  }
  EXPECT_EQ(found, b.ToVector());
  EXPECT_EQ(b.FindNext(66), 200u);
  EXPECT_EQ(b.FindNext(501), DynBitset::npos);
  EXPECT_EQ(b.FindNext(100000), DynBitset::npos);
}

TEST(DynBitsetTest, IntersectShrinksLongerSide) {
  DynBitset a, b;
  a.Set(300);
  b.Set(3);
  a.IntersectWith(b);
  EXPECT_EQ(a.PopCount(), 0u);
  EXPECT_FALSE(a.Test(300));
}

}  // namespace
}  // namespace dqsq
