#include "common/status.h"

#include <gtest/gtest.h>

namespace dqsq {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = InvalidArgumentError("bad rule");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad rule");
  EXPECT_EQ(s.ToString(), "INVALID_ARGUMENT: bad rule");
}

TEST(StatusTest, AllErrorConstructors) {
  EXPECT_EQ(NotFoundError("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(AlreadyExistsError("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(FailedPreconditionError("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(ResourceExhaustedError("x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(InternalError("x").code(), StatusCode::kInternal);
  EXPECT_EQ(UnimplementedError("x").code(), StatusCode::kUnimplemented);
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = NotFoundError("missing");
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
}

// Counts copies; moves are free.
struct CopyCounter {
  explicit CopyCounter(int* copies) : copies(copies) {}
  CopyCounter(const CopyCounter& other) : copies(other.copies) { ++*copies; }
  CopyCounter(CopyCounter&&) = default;
  CopyCounter& operator=(const CopyCounter& other) {
    copies = other.copies;
    ++*copies;
    return *this;
  }
  CopyCounter& operator=(CopyCounter&&) = default;
  int* copies;
};

TEST(StatusOrTest, DereferencingAnRvalueMovesThePayload) {
  int copies = 0;
  StatusOr<CopyCounter> s = CopyCounter(&copies);
  ASSERT_EQ(copies, 0);
  CopyCounter taken = *std::move(s);
  EXPECT_EQ(taken.copies, &copies);
  EXPECT_EQ(copies, 0);
  CopyCounter assigned(&copies);
  StatusOr<CopyCounter> t = CopyCounter(&copies);
  assigned = *std::move(t);
  EXPECT_EQ(copies, 0);
  // An lvalue still copies.
  StatusOr<CopyCounter> u = CopyCounter(&copies);
  CopyCounter copied = *u;
  EXPECT_EQ(copied.copies, &copies);
  EXPECT_EQ(copies, 1);
}

StatusOr<int> Double(StatusOr<int> in) {
  DQSQ_ASSIGN_OR_RETURN(int x, std::move(in));
  return 2 * x;
}

TEST(StatusOrTest, AssignOrReturnPropagates) {
  EXPECT_EQ(*Double(21), 42);
  EXPECT_EQ(Double(InternalError("boom")).status().code(),
            StatusCode::kInternal);
}

Status FailIfNegative(int x) {
  if (x < 0) return InvalidArgumentError("negative");
  return Status::Ok();
}

Status Chain(int x) {
  DQSQ_RETURN_IF_ERROR(FailIfNegative(x));
  return Status::Ok();
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  EXPECT_TRUE(Chain(1).ok());
  EXPECT_FALSE(Chain(-1).ok());
}

}  // namespace
}  // namespace dqsq
