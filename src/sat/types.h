// Core SAT types: variables, literals, and the three-valued assignment.
//
// The solver in this directory is the library's stand-in for MiniSat, which
// the paper uses to decide whether a litmus test admits an acyclic
// happens-before order.  Conventions follow the MiniSat lineage:
// a variable is a dense non-negative index, a literal is `2*var + sign`
// with sign 1 meaning negated.
#pragma once

#include <cstdint>
#include <vector>

#include "util/check.h"

namespace mcmc::sat {

using Var = std::int32_t;

/// A literal: a variable together with a polarity.
class Lit {
 public:
  Lit() = default;
  Lit(Var v, bool negated) : code_(2 * v + (negated ? 1 : 0)) {
    MCMC_REQUIRE(v >= 0);
  }

  /// Positive literal of `v`.
  static Lit pos(Var v) { return Lit(v, false); }
  /// Negative literal of `v`.
  static Lit neg(Var v) { return Lit(v, true); }
  /// Reconstructs a literal from its dense code.
  static Lit from_code(std::int32_t code) {
    Lit l;
    l.code_ = code;
    return l;
  }

  [[nodiscard]] Var var() const { return code_ >> 1; }
  [[nodiscard]] bool negated() const { return (code_ & 1) != 0; }
  [[nodiscard]] std::int32_t code() const { return code_; }
  [[nodiscard]] Lit operator~() const { return from_code(code_ ^ 1); }

  friend bool operator==(Lit a, Lit b) { return a.code_ == b.code_; }
  friend bool operator!=(Lit a, Lit b) { return a.code_ != b.code_; }
  friend bool operator<(Lit a, Lit b) { return a.code_ < b.code_; }

 private:
  std::int32_t code_ = -2;  // invalid until assigned
};

/// Three-valued logic for partial assignments.
enum class LBool : std::uint8_t { False = 0, True = 1, Undef = 2 };

inline LBool lbool_from(bool b) { return b ? LBool::True : LBool::False; }

/// Negation that keeps Undef fixed.
inline LBool operator-(LBool v) {
  if (v == LBool::Undef) return v;
  return v == LBool::True ? LBool::False : LBool::True;
}

using Clause = std::vector<Lit>;

/// A CNF formula in portable form: `num_vars` variables (0-based) and a
/// list of clauses.
struct Cnf {
  int num_vars = 0;
  std::vector<Clause> clauses;
};

}  // namespace mcmc::sat
