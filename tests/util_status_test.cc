#include "util/status.h"

#include <gtest/gtest.h>

namespace biorank {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, NamedConstructorsSetCodeAndMessage) {
  Status s = Status::InvalidArgument("bad p");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad p");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad p");
}

TEST(StatusTest, AllCodesHaveDistinctNames) {
  EXPECT_STREQ(StatusCodeToString(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kNotFound), "NotFound");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kFailedPrecondition),
               "FailedPrecondition");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kOutOfRange), "OutOfRange");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kUnimplemented),
               "Unimplemented");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kInternal), "Internal");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kDeadlineExceeded),
               "DeadlineExceeded");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kDataLoss), "DataLoss");
}

TEST(StatusTest, DataLossHasNamedConstructor) {
  Status s = Status::DataLoss("snapshot checksum mismatch");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kDataLoss);
  EXPECT_EQ(s.ToString(), "DataLoss: snapshot checksum mismatch");
  EXPECT_FALSE(Status::DataLoss("x") == Status::Internal("x"));
}

TEST(StatusTest, DeadlineExceededHasNamedConstructor) {
  Status deadline = Status::DeadlineExceeded("too slow");
  EXPECT_EQ(deadline.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(deadline.ToString(), "DeadlineExceeded: too slow");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
  EXPECT_FALSE(Status::NotFound("x") == Status::Internal("x"));
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(41);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 41);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, ValueOrReturnsValueOnSuccess) {
  Result<int> r(7);
  EXPECT_EQ(r.value_or(-1), 7);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r(std::string("hello"));
  std::string v = std::move(r).value();
  EXPECT_EQ(v, "hello");
}

Status FailingHelper() { return Status::OutOfRange("idx"); }

Status UsesReturnIfError() {
  BIORANK_RETURN_IF_ERROR(FailingHelper());
  return Status::OK();
}

TEST(ResultTest, ReturnIfErrorPropagates) {
  Status s = UsesReturnIfError();
  EXPECT_EQ(s.code(), StatusCode::kOutOfRange);
}

}  // namespace
}  // namespace biorank
