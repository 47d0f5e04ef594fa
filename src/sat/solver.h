// A conflict-driven clause-learning (CDCL) SAT solver.
//
// This is the library's from-scratch replacement for MiniSat (the paper's
// Section 4.1 uses MiniSat to test litmus-test admissibility).  It
// implements the standard architecture:
//
//   * two-watched-literal unit propagation,
//   * first-UIP conflict analysis with clause minimization,
//   * VSIDS-style exponential variable activities,
//   * Luby-sequence restarts with phase saving,
//   * incremental solving under assumptions.
//
// The solver is deliberately compact: the happens-before instances produced
// by the checker have tens of variables and a few thousand clauses, so
// engineering for millions of clauses (garbage collection, clause database
// reduction, blocking literals) would be dead weight.  It is nevertheless a
// complete general-purpose solver and is differential-tested against a
// brute-force reference on random CNF.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "sat/types.h"

namespace mcmc::sat {

/// Aggregate statistics of one solver lifetime.
struct SolverStats {
  std::uint64_t decisions = 0;
  std::uint64_t propagations = 0;
  std::uint64_t conflicts = 0;
  std::uint64_t restarts = 0;
  std::uint64_t learned_clauses = 0;
  std::uint64_t learned_literals = 0;
};

/// CDCL SAT solver over variables created with `new_var`.
class Solver {
 public:
  Solver() = default;

  /// Creates a fresh variable and returns its index.
  Var new_var();

  /// Number of variables created so far.
  [[nodiscard]] int num_vars() const {
    return static_cast<int>(assign_.size());
  }

  /// Adds a clause (disjunction of literals).  Returns false if the clause
  /// makes the formula trivially unsatisfiable (empty after simplification
  /// at level 0).  All referenced variables must already exist.
  bool add_clause(Clause clause);

  /// Convenience overloads for short clauses.
  bool add_unit(Lit a) { return add_clause({a}); }
  bool add_binary(Lit a, Lit b) { return add_clause({a, b}); }

  /// Decides satisfiability of the clauses added so far, under optional
  /// assumptions.  May be called repeatedly; clauses persist between calls.
  [[nodiscard]] bool solve(const std::vector<Lit>& assumptions = {});

  /// Value of `v` in the satisfying assignment found by the last successful
  /// `solve` call.
  [[nodiscard]] bool model_value(Var v) const;

  /// The full model of the last successful solve.
  [[nodiscard]] const std::vector<LBool>& model() const { return model_; }

  [[nodiscard]] const SolverStats& stats() const { return stats_; }

  /// True if the formula was proven unsatisfiable at level 0 (no future
  /// solve can succeed regardless of assumptions).
  [[nodiscard]] bool conflicting() const { return !ok_; }

 private:
  // A clause stored in the arena; learned clauses carry an activity.
  struct StoredClause {
    std::vector<Lit> lits;
    bool learned = false;
    double activity = 0.0;
  };
  using ClauseRef = std::int32_t;
  static constexpr ClauseRef kNoReason = -1;

  struct Watcher {
    ClauseRef cref;
  };

  struct VarInfo {
    ClauseRef reason = kNoReason;
    int level = 0;
  };

  [[nodiscard]] LBool value(Lit l) const {
    const LBool v = assign_[static_cast<std::size_t>(l.var())];
    return l.negated() ? -v : v;
  }
  [[nodiscard]] LBool value(Var v) const {
    return assign_[static_cast<std::size_t>(v)];
  }

  void attach_clause(ClauseRef cref);
  void enqueue(Lit l, ClauseRef reason);
  [[nodiscard]] ClauseRef propagate();
  void analyze(ClauseRef conflict, Clause& learnt, int& backtrack_level);
  [[nodiscard]] bool lit_redundant(Lit l, std::uint32_t abstract_levels);
  void backtrack(int level);
  [[nodiscard]] Lit pick_branch_lit();
  void bump_var(Var v);
  void decay_var_activity();
  void rebuild_order_heap();

  // Order heap (binary max-heap on activity).
  void heap_insert(Var v);
  void heap_sift_up(std::size_t i);
  void heap_sift_down(std::size_t i);
  std::optional<Var> heap_pop();

  [[nodiscard]] int current_level() const {
    return static_cast<int>(trail_lim_.size());
  }

  static std::uint64_t luby(std::uint64_t i);

  std::vector<StoredClause> clauses_;
  std::vector<std::vector<Watcher>> watches_;  // indexed by literal code
  std::vector<LBool> assign_;
  std::vector<VarInfo> var_info_;
  std::vector<bool> saved_phase_;
  std::vector<double> activity_;
  std::vector<Lit> trail_;
  std::vector<int> trail_lim_;
  std::size_t propagate_head_ = 0;

  // Branching heap.
  std::vector<Var> heap_;
  std::vector<std::int32_t> heap_pos_;  // -1 if not in heap

  // Conflict-analysis scratch.
  std::vector<bool> seen_;
  std::vector<Lit> analyze_stack_;
  std::vector<Lit> analyze_clear_;

  std::vector<LBool> model_;
  SolverStats stats_;
  double var_inc_ = 1.0;
  bool ok_ = true;
};

}  // namespace mcmc::sat
