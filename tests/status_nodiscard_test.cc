// Positive half of the [[nodiscard]] / check-macro policy tests.
//
// This file compiles under the repo-wide -Werror wall, so merely building it
// proves the sanctioned consumption patterns (CDB_RETURN_IF_ERROR,
// CDB_ASSIGN_OR_RETURN, ok() branches, explicit (void) discards) stay legal.
// The negative half — that silently discarding a Status or Result<T> is a
// compile error — cannot live in a .cc that must compile, so it runs as the
// `cdb_nodiscard` ctest (the nodiscard probe of
// tools/check_compile_probes.sh), a compile-fail probe under
// -Werror=unused-result.
//
// The runtime tests below cover the logging satellite work: CDB_CHECK_MSG
// accepting std::string, and the CDB_CHECK_{EQ,NE,LT,LE,GT,GE} macros
// printing both operand values on failure.

#include <string>
#include <type_traits>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/status.h"

namespace cdb {
namespace {

Status FailingStatus() { return Status::InvalidArgument("bad arg"); }
Result<int> FailingResult() { return Status::NotFound("no value"); }
Result<int> GoodResult() { return 42; }

Status PropagateStatus() {
  CDB_RETURN_IF_ERROR(FailingStatus());
  return Status::Ok();
}

Status PropagateResult() {
  CDB_ASSIGN_OR_RETURN(int v, FailingResult());
  (void)v;
  return Status::Ok();
}

TEST(StatusNodiscardTest, SanctionedConsumptionPatternsCompileAndWork) {
  EXPECT_EQ(PropagateStatus().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(PropagateResult().code(), StatusCode::kNotFound);

  if (Status s = FailingStatus(); !s.ok()) {
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  }
  // An explicit discard is visible at the call site and stays legal.
  (void)FailingStatus();

  // Consuming a Result in a void context: check, then use.
  auto r = GoodResult();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(*r, 42);
}

TEST(StatusNodiscardTest, StatusAndResultCarryNodiscardSemantics) {
  // The attribute itself is probed by tools/check_compile_probes.sh; here we
  // pin down the API shape it protects.
  static_assert(std::is_same_v<decltype(FailingStatus().ok()), bool>);
  static_assert(
      std::is_same_v<decltype(GoodResult().status()), const Status&>);
  Result<int> r = GoodResult();
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
}

TEST(CheckMacrosDeathTest, CheckMsgAcceptsStdString) {
  const std::string why = "built at runtime: id=" + std::to_string(17);
  EXPECT_DEATH(CDB_CHECK_MSG(1 == 2, why), "id=17");
  // C-string literals still work.
  EXPECT_DEATH(CDB_CHECK_MSG(false, "literal message"), "literal message");
  // Passing does not evaluate the failure path.
  CDB_CHECK_MSG(true, why);
}

TEST(CheckMacrosDeathTest, CheckOpMacrosPrintBothOperands) {
  const int lhs = 3;
  const int rhs = 4;
  EXPECT_DEATH(CDB_CHECK_EQ(lhs, rhs), "left=3 right=4");
  EXPECT_DEATH(CDB_CHECK_GT(lhs, rhs), "lhs > rhs");
  EXPECT_DEATH(CDB_CHECK_GE(lhs, rhs), "left=3 right=4");
  EXPECT_DEATH(CDB_CHECK_NE(lhs, 3), "left=3 right=3");

  const std::string a = "alpha";
  const std::string b = "beta";
  EXPECT_DEATH(CDB_CHECK_EQ(a, b), "left=alpha right=beta");

  // Passing comparisons are silent and evaluate operands exactly once.
  int evals = 0;
  auto once = [&evals] { return ++evals; };
  CDB_CHECK_EQ(once(), 1);
  EXPECT_EQ(evals, 1);
  CDB_CHECK_LT(1, 2);
  CDB_CHECK_LE(2, 2);
  CDB_CHECK_GT(3, 2);
  CDB_CHECK_GE(3, 3);
  CDB_CHECK_NE(1, 2);
}

struct Unprintable {
  int v;
  bool operator==(const Unprintable&) const = default;
};

TEST(CheckMacrosDeathTest, UnprintableOperandsDegradeGracefully) {
  Unprintable x{1};
  Unprintable y{2};
  EXPECT_DEATH(CDB_CHECK_EQ(x, y), "left=<unprintable> right=<unprintable>");
}

TEST(CheckMacrosTest, DcheckKeepsConditionVariablesAlive) {
  // Under NDEBUG, CDB_DCHECK(cond) expands to (void)sizeof((cond)): the
  // condition is never evaluated but its variables stay odr-used enough to
  // dodge -Werror=unused-variable. This test runs in both modes; in debug
  // builds the dcheck also actually fires.
  const int dcheck_only = 7;
  CDB_DCHECK(dcheck_only == 7);
  SUCCEED();
}

}  // namespace
}  // namespace cdb
