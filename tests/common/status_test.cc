#include "priste/common/status.h"

#include <expected>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

namespace priste {
namespace {

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_STREQ(StatusCodeToString(StatusCode::kOk), "ok");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kInvalidArgument), "invalid_argument");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kFailedPrecondition),
               "failed_precondition");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kOutOfRange), "out_of_range");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kNotFound), "not_found");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kResourceExhausted),
               "resource_exhausted");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kInternal), "internal");
}

TEST(ErrorTest, FormatsCodeAndMessage) {
  const Error e{StatusCode::kInvalidArgument, "bad lat field"};
  EXPECT_EQ(e.ToString(), "invalid_argument: bad lat field");
  std::ostringstream os;
  os << e;
  EXPECT_EQ(os.str(), "invalid_argument: bad lat field");
}

TEST(ErrorTest, EmptyMessageRendersCodeOnly) {
  const Error e{StatusCode::kNotFound, ""};
  EXPECT_EQ(e.ToString(), "not_found");
}

TEST(ResultTest, HoldsValue) {
  const Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  const Result<int> r = err::NotFound("missing");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, StatusCode::kNotFound);
  EXPECT_EQ(r.error().message, "missing");
  // status() is a never-throwing view of the same error.
  EXPECT_EQ(r.status(), r.error());
  EXPECT_EQ(r.status().ToString(), "not_found: missing");
}

TEST(ResultTest, StatusOfValueIsOk) {
  const Result<int> r = 7;
  EXPECT_EQ(r.status().code, StatusCode::kOk);
  EXPECT_TRUE(r.status().message.empty());
  EXPECT_EQ(r.status().ToString(), "ok");
}

// value() on an error is std::expected's contract: it throws, which is why
// the no-abort lint rule treats every value() call as a process abort.
TEST(ResultTest, ValueOnErrorThrows) {
  const Result<int> r = err::OutOfRange("cell 99");
  EXPECT_THROW((void)r.value(), std::bad_expected_access<Error>);
  const Result<int> good = 3;
  EXPECT_EQ(good.value(), 3);
}

TEST(ResultTest, VoidSpecializationWorks) {
  const Result<void> good{};
  EXPECT_TRUE(good.ok());
  const Result<void> bad = err::Internal("boom");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().code, StatusCode::kInternal);
}

Result<int> TryParsePositive(int x) {
  if (x <= 0) return err::InvalidArgument("not positive");
  return x;
}

Result<int> UseTry(int x) {
  PRISTE_TRY(const int value, TryParsePositive(x));
  return value * 2;
}

TEST(ResultMacrosTest, TryPropagatesError) {
  const Result<int> good = UseTry(3);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(*good, 6);
  const Result<int> bad = UseTry(-1);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().code, StatusCode::kInvalidArgument);
  EXPECT_EQ(bad.error().message, "not positive");
}

// PRISTE_TRY must propagate into a DIFFERENT Result<U> — the unexpected
// converts.
Result<std::string> UseTryAcrossTypes(int x) {
  PRISTE_TRY(const int value, TryParsePositive(x));
  return std::string(static_cast<size_t>(value), 'x');
}

TEST(ResultMacrosTest, TryConvertsAcrossValueTypes) {
  const Result<std::string> good = UseTryAcrossTypes(3);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(*good, "xxx");
  EXPECT_EQ(UseTryAcrossTypes(0).error().code, StatusCode::kInvalidArgument);
}

Result<void> UseTryVoid(int x) {
  PRISTE_TRY_VOID(TryParsePositive(x));
  return {};
}

TEST(ResultMacrosTest, TryVoidPropagatesError) {
  EXPECT_TRUE(UseTryVoid(1).ok());
  EXPECT_EQ(UseTryVoid(-2).error().message, "not positive");
}

// The validator shape: a Result<void> helper checked by PRISTE_TRY_VOID
// inside a function returning a value.
Result<void> ValidateEven(int x) {
  if (x % 2 != 0) return err::InvalidArgument("odd");
  return {};
}

Result<int> HalveEven(int x) {
  PRISTE_TRY_VOID(ValidateEven(x));
  return x / 2;
}

TEST(ResultMacrosTest, TryVoidPropagatesVoidHelperError) {
  const Result<int> good = HalveEven(8);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(*good, 4);
  const Result<int> bad = HalveEven(3);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error(), (Error{StatusCode::kInvalidArgument, "odd"}));
}

}  // namespace
}  // namespace priste
