// Contract macro tests — the machinery (handler hook, message formatting,
// lazy message evaluation) plus regression coverage for the call sites that
// replaced bare assert()s: Rng range preconditions and Dataset accessor
// bounds. Contracts are compiled out under NDEBUG, so in a Release suite
// these skip; the asan/tsan presets (Debug) exercise them on every run.

#include "util/contracts.hpp"

#include <gtest/gtest.h>

#include <string>

#include "rf/dataset.hpp"
#include "throwing_contract_scope.hpp"
#include "util/rng.hpp"

namespace pwu::util {
namespace {

#if PWU_CONTRACTS_ENABLED

TEST(Contracts, ViolationCarriesStructuredDiagnostic) {
  ThrowingHandlerScope scope;
  const int n = -3;
  try {
    PWU_REQUIRE(n >= 0, "n=" << n << " must be non-negative");
    FAIL() << "PWU_REQUIRE(false) did not fire";
  } catch (const ContractViolation& v) {
    EXPECT_EQ(v.kind(), "precondition");
    EXPECT_EQ(v.expression(), "n >= 0");
    EXPECT_EQ(v.message(), "n=-3 must be non-negative");
    EXPECT_NE(v.file().find("test_contracts.cpp"), std::string::npos);
    EXPECT_GT(v.line(), 0);
    EXPECT_NE(std::string(v.what()).find("precondition"), std::string::npos);
    EXPECT_NE(std::string(v.what()).find("n >= 0"), std::string::npos);
  }
}

TEST(Contracts, EachMacroReportsItsKind) {
  ThrowingHandlerScope scope;
  try {
    PWU_ENSURE(false, "post");
    FAIL();
  } catch (const ContractViolation& v) {
    EXPECT_EQ(v.kind(), "postcondition");
  }
  try {
    PWU_ASSERT(false);
    FAIL();
  } catch (const ContractViolation& v) {
    EXPECT_EQ(v.kind(), "invariant");
    EXPECT_TRUE(v.message().empty());  // the message chain is optional
  }
}

TEST(Contracts, PassingCheckEvaluatesNoMessage) {
  ThrowingHandlerScope scope;
  int evaluations = 0;
  auto expensive = [&evaluations] {
    ++evaluations;
    return std::string("never built");
  };
  PWU_REQUIRE(1 + 1 == 2, expensive());
  EXPECT_EQ(evaluations, 0);  // message streams only on failure
}

TEST(Contracts, HandlerInstallReturnsPrevious) {
  const ContractHandler thrower = [](const ContractViolation& v) -> void {
    throw v;
  };
  const ContractHandler before = set_contract_handler(thrower);
  EXPECT_EQ(set_contract_handler(before), thrower);
}

// ---- regression: the assert() call sites converted to contracts ----

TEST(Contracts, RngIndexRejectsEmptyRange) {
  ThrowingHandlerScope scope;
  Rng rng(7);
  EXPECT_THROW(rng.index(0), ContractViolation);
  EXPECT_LT(rng.index(5), 5u);  // in-range draws still work
}

TEST(Contracts, RngUniformIntRejectsReversedBounds) {
  ThrowingHandlerScope scope;
  Rng rng(7);
  try {
    rng.uniform_int(5, 2);
    FAIL() << "reversed bounds accepted";
  } catch (const ContractViolation& v) {
    EXPECT_EQ(v.kind(), "precondition");
    EXPECT_NE(v.message().find("lo=5"), std::string::npos);
    EXPECT_NE(v.message().find("hi=2"), std::string::npos);
  }
  const auto ok = rng.uniform_int(2, 5);
  EXPECT_GE(ok, 2);
  EXPECT_LE(ok, 5);
}

TEST(Contracts, DatasetAccessorsRejectOutOfRange) {
  ThrowingHandlerScope scope;
  rf::Dataset data(2);
  data.add(std::vector<double>{1.0, 2.0}, 3.0);
  EXPECT_DOUBLE_EQ(data.x(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(data.y(0), 3.0);
  EXPECT_THROW(data.x(1, 0), ContractViolation);  // row past size()
  EXPECT_THROW(data.x(0, 2), ContractViolation);  // col past width
  EXPECT_THROW(data.y(9), ContractViolation);
  EXPECT_THROW(data.row(1), ContractViolation);
}

#else  // !PWU_CONTRACTS_ENABLED

TEST(Contracts, CompiledOutInThisBuild) {
  GTEST_SKIP() << "contracts are compiled out (NDEBUG); run the asan or "
                  "tsan preset to exercise them";
}

#endif

}  // namespace
}  // namespace pwu::util
