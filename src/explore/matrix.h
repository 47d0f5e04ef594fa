// Admissibility matrix: model x test -> allowed?
//
// Comparing all 90 models pairwise on the Corollary-1 suite only needs
// each (model, test) verdict once; precomputing the matrix turns the
// quadratic pairwise comparison of Section 4.2 into cheap row operations
// (the paper reports 20 minutes for the pairwise sweep; the matrix method
// finishes in seconds).
//
// The matrix is a thin wrapper over engine::VerdictEngine: construction
// is one batched, parallel engine run (run_matrix), rows are packed
// 64-bit words, and `compare` / `distinguishing_tests` are word-wise
// sweeps.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/model.h"
#include "engine/verdict_engine.h"
#include "litmus/test.h"

namespace mcmc::explore {

/// How two models relate on a test suite.
enum class Relation {
  Equivalent,     ///< same verdict on every test
  FirstWeaker,    ///< first allows a strict superset
  FirstStronger,  ///< first allows a strict subset
  Incomparable,   ///< each allows a test the other forbids
};

[[nodiscard]] std::string to_string(Relation r);

/// Precomputed verdicts for a set of models over a test suite.
class AdmissibilityMatrix {
 public:
  /// Runs every (model, test) check through a private VerdictEngine
  /// with default options.
  AdmissibilityMatrix(const std::vector<core::MemoryModel>& models,
                      const std::vector<litmus::LitmusTest>& tests);

  /// Runs every (model, test) check through `eng`, sharing its thread
  /// pool, options and attached store.
  AdmissibilityMatrix(engine::VerdictEngine& eng,
                      const std::vector<core::MemoryModel>& models,
                      const std::vector<litmus::LitmusTest>& tests);

  [[nodiscard]] int num_models() const { return bits_.rows(); }
  [[nodiscard]] int num_tests() const { return bits_.cols(); }

  /// Verdict of model `m` on test `t`.
  [[nodiscard]] bool allowed(int m, int t) const {
    MCMC_REQUIRE(m >= 0 && m < num_models());
    MCMC_REQUIRE(t >= 0 && t < num_tests());
    return bits_.get(m, t);
  }

  /// Relation of models `a` and `b` induced by the suite.
  [[nodiscard]] Relation compare(int a, int b) const;

  /// Indices of tests with different verdicts for `a` and `b`.
  [[nodiscard]] std::vector<int> distinguishing_tests(int a, int b) const;

  /// A test allowed by `a` and forbidden by `b` (first index), if any.
  [[nodiscard]] std::vector<int> allowed_by_first_only(int a, int b) const;

  /// The packed verdict rows (64 verdicts per word).
  [[nodiscard]] const engine::BitMatrix& bits() const { return bits_; }

  /// Engine statistics of the construction batch.
  [[nodiscard]] const engine::EngineStats& build_stats() const {
    return stats_;
  }

 private:
  engine::BitMatrix bits_;
  engine::EngineStats stats_;
};

}  // namespace mcmc::explore
