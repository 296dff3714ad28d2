#include "power/budget.hpp"

#include "common/error.hpp"

namespace nocsched::power {

PowerBudget PowerBudget::unconstrained() { return PowerBudget{}; }

PowerBudget PowerBudget::fraction_of_total(const itc02::Soc& soc, double fraction) {
  ensure(std::isfinite(fraction) && fraction > 0.0,
         "PowerBudget: fraction must be positive and finite, got ", fraction);
  return PowerBudget{soc.total_test_power() * fraction};
}

// Callers' tests pin this exact text, "PowerProfile:" prefix included.
void require_valid_draw(double value) {
  ensure(std::isfinite(value) && value >= 0.0, "PowerProfile: bad power value ", value);
}

}  // namespace nocsched::power
