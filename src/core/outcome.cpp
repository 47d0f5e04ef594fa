#include "core/outcome.h"

#include <algorithm>

#include "util/check.h"

namespace mcmc::core {

Outcome::Outcome(std::vector<Constraint> constraints) {
  // require()'s checks, in the same order.
  for (std::size_t i = 0; i < constraints.size(); ++i) {
    const Reg reg = constraints[i].first;
    MCMC_REQUIRE(reg >= 0);
    for (std::size_t j = 0; j < i; ++j) {
      MCMC_REQUIRE_MSG(constraints[j].first != reg,
                       "register constrained more than once");
    }
  }
  if (constraints.size() > kInlineCapacity) {
    spill_ = std::move(constraints);  // adopted, no second allocation
  } else {
    std::copy(constraints.begin(), constraints.end(), inline_.begin());
    inline_size_ = constraints.size();
  }
}

void Outcome::require(Reg reg, int value) {
  MCMC_REQUIRE(reg >= 0);
  MCMC_REQUIRE_MSG(!required(reg).has_value(),
                   "register constrained more than once");
  if (spill_.empty()) {
    if (inline_size_ < kInlineCapacity) {
      inline_[inline_size_++] = {reg, value};
      return;
    }
    spill_.assign(inline_.begin(), inline_.end());
    inline_size_ = 0;
  }
  spill_.emplace_back(reg, value);
}

std::optional<int> Outcome::required(Reg reg) const {
  for (const auto& [r, v] : constraints()) {
    if (r == reg) return v;
  }
  return std::nullopt;
}

std::string Outcome::to_string() const {
  std::string out;
  for (const auto& [reg, value] : constraints()) {
    if (!out.empty()) out += "; ";
    out += reg_name(reg) + " = " + std::to_string(value);
  }
  return out;
}

bool operator==(const Outcome& a, const Outcome& b) {
  const Outcome::Constraints x = a.constraints();
  const Outcome::Constraints y = b.constraints();
  return std::equal(x.begin(), x.end(), y.begin(), y.end());
}

}  // namespace mcmc::core
