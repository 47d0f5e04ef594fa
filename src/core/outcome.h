// Litmus-test outcomes: constraints on final register values.
//
// A litmus test asks "can the program end with these register values?"
// (e.g. Figure 1's `r1 = 0; r2 = 2; r3 = 0`).  Registers not mentioned are
// unconstrained.
#pragma once

#include <array>
#include <cstddef>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/instruction.h"

namespace mcmc::core {

/// A conjunction of register-equals-value constraints.
///
/// Up to kInlineCapacity constraints live inside the object, so building,
/// copying and moving such an outcome allocates nothing.  The capacity
/// covers every outcome of the default naive space (at most six reads,
/// with or without dependencies).  A longer outcome keeps all of its
/// constraints in one heap vector instead.
class Outcome {
 public:
  using Constraint = std::pair<Reg, int>;
  static constexpr std::size_t kInlineCapacity = 6;

  /// A read-only view of the constraints, in the order they were added.
  class Constraints {
   public:
    [[nodiscard]] const Constraint* begin() const { return begin_; }
    [[nodiscard]] const Constraint* end() const { return end_; }
    [[nodiscard]] std::size_t size() const {
      return static_cast<std::size_t>(end_ - begin_);
    }

   private:
    friend class Outcome;
    Constraints(const Constraint* begin, std::size_t size)
        : begin_(begin), end_(begin + size) {}
    const Constraint* begin_;
    const Constraint* end_;
  };

  Outcome() = default;
  /// Adopts `constraints` (checked as require() checks each).
  explicit Outcome(std::vector<Constraint> constraints);

  /// Adds `reg == value`; a register may be constrained at most once.
  void require(Reg reg, int value);

  /// The required value of `reg`, if constrained.
  [[nodiscard]] std::optional<int> required(Reg reg) const;

  [[nodiscard]] Constraints constraints() const {
    return spill_.empty() ? Constraints(inline_.data(), inline_size_)
                          : Constraints(spill_.data(), spill_.size());
  }

  [[nodiscard]] bool empty() const {
    return inline_size_ == 0 && spill_.empty();
  }

  /// Renders e.g. "r1 = 0; r2 = 2; r3 = 0".
  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const Outcome& a, const Outcome& b);

 private:
  // The first kInlineCapacity constraints, while there are no more.
  std::array<Constraint, kInlineCapacity> inline_{};
  std::size_t inline_size_ = 0;  // 0 once spilled
  // Every constraint, once there are more than kInlineCapacity.  The
  // defaulted copy and move stay correct: a moved-from spilled outcome
  // is empty.
  std::vector<Constraint> spill_;
};

}  // namespace mcmc::core
