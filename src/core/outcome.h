// Litmus-test outcomes: constraints on final register values.
//
// A litmus test asks "can the program end with these register values?"
// (e.g. Figure 1's `r1 = 0; r2 = 2; r3 = 0`).  Registers not mentioned are
// unconstrained.
#pragma once

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/instruction.h"

namespace mcmc::core {

/// A conjunction of register-equals-value constraints.
class Outcome {
 public:
  Outcome() = default;
  /// Adopts `constraints` (checked as require() checks each).
  explicit Outcome(std::vector<std::pair<Reg, int>> constraints);

  /// Adds `reg == value`; a register may be constrained at most once.
  void require(Reg reg, int value);

  /// The required value of `reg`, if constrained.
  [[nodiscard]] std::optional<int> required(Reg reg) const;

  [[nodiscard]] const std::vector<std::pair<Reg, int>>& constraints() const {
    return constraints_;
  }

  [[nodiscard]] bool empty() const { return constraints_.empty(); }

  /// Renders e.g. "r1 = 0; r2 = 2; r3 = 0".
  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const Outcome& a, const Outcome& b) {
    return a.constraints_ == b.constraints_;
  }

 private:
  std::vector<std::pair<Reg, int>> constraints_;
};

}  // namespace mcmc::core
