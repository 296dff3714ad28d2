#include "power/budget.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "itc02/builtin.hpp"

namespace nocsched::power {
namespace {

TEST(PowerBudget, UnconstrainedIsInfinite) {
  const PowerBudget b = PowerBudget::unconstrained();
  EXPECT_FALSE(b.is_constrained());
  EXPECT_GT(b.limit, 1e300);
}

TEST(PowerBudget, FractionOfTotalUsesSumOfCorePowers) {
  const itc02::Soc soc = itc02::builtin_d695();
  const PowerBudget half = PowerBudget::fraction_of_total(soc, 0.5);
  EXPECT_TRUE(half.is_constrained());
  EXPECT_DOUBLE_EQ(half.limit, 6472.0 * 0.5);  // the paper's 50% rule
  const PowerBudget full = PowerBudget::fraction_of_total(soc, 1.0);
  EXPECT_DOUBLE_EQ(full.limit, 6472.0);
}

TEST(PowerBudget, FractionCanExceedOne) {
  const itc02::Soc soc = itc02::builtin_d695();
  EXPECT_DOUBLE_EQ(PowerBudget::fraction_of_total(soc, 2.0).limit, 12944.0);
}

TEST(PowerBudget, RejectsBadFractions) {
  const itc02::Soc soc = itc02::builtin_d695();
  EXPECT_THROW((void)PowerBudget::fraction_of_total(soc, 0.0), Error);
  EXPECT_THROW((void)PowerBudget::fraction_of_total(soc, -0.5), Error);
  EXPECT_THROW((void)PowerBudget::fraction_of_total(soc, std::nan("")), Error);
}

TEST(PowerBudget, IncludesProcessorCorePower) {
  const itc02::Soc base = itc02::builtin_d695();
  const itc02::Soc with =
      itc02::with_processors(base, itc02::ProcessorKind::kLeon, 2);
  EXPECT_GT(PowerBudget::fraction_of_total(with, 0.5).limit,
            PowerBudget::fraction_of_total(base, 0.5).limit);
}

TEST(PowerBudget, WithinBudgetAdmitsUpToOneSharedTolerance) {
  // The planner's envelopes, the replay, the validator and the
  // cross-check all admit exactly up to limit + 1e-9 * (|limit| + 1).
  for (const double limit : {0.0, 0.5, 1.0, 3236.0, 4567.89, 12944.0, 1e6}) {
    const double edge = limit + 1e-9 * (std::abs(limit) + 1.0);
    EXPECT_TRUE(within_budget(edge, limit)) << limit;
    EXPECT_FALSE(within_budget(std::nextafter(edge, 2.0 * edge + 1.0), limit)) << limit;
  }
  EXPECT_TRUE(within_budget(1e300, PowerBudget::unconstrained().limit));
  EXPECT_FALSE(within_budget(0.0, std::nan("")));
}

}  // namespace
}  // namespace nocsched::power
