#include "core/outcome.h"

#include "util/check.h"

namespace mcmc::core {

Outcome::Outcome(std::vector<std::pair<Reg, int>> constraints)
    : constraints_(std::move(constraints)) {
  // require()'s checks, in the same order, over the adopted vector (no
  // second allocation).
  for (std::size_t i = 0; i < constraints_.size(); ++i) {
    const Reg reg = constraints_[i].first;
    MCMC_REQUIRE(reg >= 0);
    for (std::size_t j = 0; j < i; ++j) {
      MCMC_REQUIRE_MSG(constraints_[j].first != reg,
                       "register constrained more than once");
    }
  }
}

void Outcome::require(Reg reg, int value) {
  MCMC_REQUIRE(reg >= 0);
  MCMC_REQUIRE_MSG(!required(reg).has_value(),
                   "register constrained more than once");
  constraints_.emplace_back(reg, value);
}

std::optional<int> Outcome::required(Reg reg) const {
  for (const auto& [r, v] : constraints_) {
    if (r == reg) return v;
  }
  return std::nullopt;
}

std::string Outcome::to_string() const {
  std::string out;
  for (std::size_t i = 0; i < constraints_.size(); ++i) {
    if (i) out += "; ";
    out += reg_name(constraints_[i].first) + " = " +
           std::to_string(constraints_[i].second);
  }
  return out;
}

}  // namespace mcmc::core
