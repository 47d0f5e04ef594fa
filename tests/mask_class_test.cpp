// Differential tests of the engine's mask-class evaluation.  A batch
// compiles its models once (core::FormulaSet), groups a program's
// models by equal reorder mask, and decides each test with one search
// per distinct mask among its requested models.  Every run_matrix
// verdict must equal core::is_allowed per cell — with the tests in
// order, shuffled with duplicate copies, or followed by symmetric twins
// that (sharing their original's row) ask only for the custom-predicate
// models, which is the sparse request pattern; at any thread count,
// with the cache on and off, on both backends — while running fewer
// searches than cells.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/analysis.h"
#include "core/checker.h"
#include "core/program.h"
#include "engine/verdict_engine.h"
#include "enumeration/exhaustive.h"
#include "enumeration/suite.h"
#include "explore/space.h"
#include "litmus/test.h"
#include "models/special_fence.h"
#include "models/zoo.h"
#include "util/hash128.h"
#include "util/rng.h"

namespace mcmc {
namespace {

/// The 90-model space, the named zoo and two custom-predicate models.
std::vector<core::MemoryModel> mixed_models() {
  std::vector<core::MemoryModel> out;
  for (const auto& c : explore::model_space(true)) out.push_back(c.to_model());
  for (const auto& m : models::all_named_models()) out.push_back(m);
  out.push_back(models::special_fence_chain(1));
  out.push_back(models::special_fence_chain(3));
  return out;
}

/// The canonically novel tests of a 2-access slice, in stream order.
std::vector<litmus::LitmusTest> slice_novel_tests(bool deps) {
  enumeration::ExhaustiveOptions options;
  options.bounds.max_accesses_per_thread = 2;
  options.bounds.deps = deps;
  options.chunk_size = 1024;
  enumeration::ExhaustiveStream stream(options);
  std::unordered_set<util::Key128, util::Key128Hash> seen;
  litmus::KeyScratch scratch;
  std::vector<litmus::LitmusTest> novel;
  engine::for_each_test(stream, [&](litmus::LitmusTest& test) {
    if (seen.insert(litmus::canonical_fingerprint(test, scratch)).second) {
      novel.push_back(std::move(test));
    }
  });
  return novel;
}

/// oracle[t][m]: core::is_allowed per cell, one private Analysis per
/// test.
std::vector<std::vector<char>> per_cell_oracle(
    const std::vector<core::MemoryModel>& models,
    const std::vector<litmus::LitmusTest>& tests) {
  std::vector<std::vector<char>> oracle(tests.size());
  for (std::size_t t = 0; t < tests.size(); ++t) {
    const core::Analysis analysis(tests[t].program());
    for (const auto& model : models) {
      oracle[t].push_back(
          core::is_allowed(analysis, model, tests[t].outcome()) ? 1 : 0);
    }
  }
  return oracle;
}

/// Swaps the threads: a canonically equal, structurally distinct twin
/// over a program object of its own.
litmus::LitmusTest twin(const litmus::LitmusTest& test) {
  std::vector<core::Thread> threads = test.program().threads();
  std::reverse(threads.begin(), threads.end());
  return litmus::LitmusTest(test.name() + "~",
                            core::Program(std::move(threads)), test.outcome());
}

/// One run_matrix input, as indices into the oracle's models and tests.
struct MatrixInput {
  std::string name;
  std::vector<std::size_t> model_of;  ///< input model -> oracle model
  std::vector<std::size_t> test_of;   ///< input test -> oracle test
  std::size_t shared_tests = 0;       ///< tests that repeat an earlier
                                      ///  test's canonical class
};

/// Over an oracle of `num_tests` tests followed by their twins: the
/// tests in order; shuffled with a quarter of them copied; and each
/// test followed by its twin, with the models shuffled so the
/// custom-predicate ones sit among the others.  A twin shares its
/// original's row, so run_matrix asks it only about the custom models.
std::vector<MatrixInput> matrix_inputs(std::size_t num_models,
                                       std::size_t num_tests) {
  MatrixInput in_order{"in-order", {}, {}, 0};
  for (std::size_t m = 0; m < num_models; ++m) in_order.model_of.push_back(m);
  for (std::size_t t = 0; t < num_tests; ++t) in_order.test_of.push_back(t);

  util::Rng rng(17);
  MatrixInput shuffled{"shuffled+duplicates", in_order.model_of,
                       in_order.test_of, num_tests / 4};
  auto& tests = shuffled.test_of;
  for (std::size_t i = 0; i < shuffled.shared_tests; ++i) {
    tests.push_back(tests[rng.below(num_tests)]);
  }
  for (std::size_t i = tests.size(); i > 1; --i) {
    std::swap(tests[i - 1], tests[rng.below(i)]);
  }

  MatrixInput custom_mix{"custom-mix", in_order.model_of, {}, num_tests};
  auto& models = custom_mix.model_of;
  for (std::size_t i = models.size(); i > 1; --i) {
    std::swap(models[i - 1], models[rng.below(i)]);
  }
  for (std::size_t t = 0; t < num_tests; ++t) {
    custom_mix.test_of.push_back(t);
    custom_mix.test_of.push_back(num_tests + t);
  }
  return {in_order, shuffled, custom_mix};
}

/// Runs every input through a fresh engine per (cache, threads)
/// combination and compares each verdict with the oracle, computed
/// here over `tests` and their twins.
void expect_matches_oracle(const std::vector<core::MemoryModel>& models,
                           const std::vector<litmus::LitmusTest>& tests,
                           engine::Backend backend) {
  std::vector<litmus::LitmusTest> all = tests;
  for (const auto& test : tests) all.push_back(twin(test));
  const auto oracle = per_cell_oracle(models, all);
  std::size_t custom_free = 0;
  for (const auto& model : models) {
    if (!model.formula().has_custom()) ++custom_free;
  }
  ASSERT_LT(custom_free, models.size());

  for (const auto& input : matrix_inputs(models.size(), tests.size())) {
    std::vector<core::MemoryModel> in_models;
    for (const std::size_t m : input.model_of) in_models.push_back(models[m]);
    std::vector<litmus::LitmusTest> in_tests;
    for (const std::size_t t : input.test_of) in_tests.push_back(all[t]);
    for (const bool cache : {false, true}) {
      for (const int threads : {1, 4}) {
        engine::EngineOptions options;
        options.backend = backend;
        options.cache_enabled = cache;
        options.num_threads = threads;
        engine::VerdictEngine eng(options);
        const std::string where = input.name + " cache=" +
                                  std::to_string(cache) + " threads=" +
                                  std::to_string(threads) + " backend=" +
                                  engine::to_string(backend);
        const auto verdicts = eng.run_matrix(in_models, in_tests);
        for (std::size_t k = 0; k < in_tests.size(); ++k) {
          for (std::size_t i = 0; i < in_models.size(); ++i) {
            ASSERT_EQ(verdicts.get(static_cast<int>(i), static_cast<int>(k)),
                      oracle[input.test_of[k]][input.model_of[i]] != 0)
                << in_tests[k].name() << " under " << in_models[i].name()
                << " (" << where << ")";
          }
        }
        const auto& stats = eng.last_stats();
        EXPECT_EQ(stats.cells, in_models.size() * in_tests.size()) << where;
        EXPECT_GT(stats.searches, 0u) << where;
        EXPECT_LT(stats.searches, stats.checks_run) << where;
        if (cache) {
          // A test sharing an earlier test's row is asked only about
          // the custom-predicate models.
          EXPECT_GE(stats.dedup_hits, custom_free * input.shared_tests)
              << where;
        } else {
          EXPECT_EQ(stats.checks_run, stats.cells) << where;
          EXPECT_EQ(stats.dedup_hits, 0u) << where;
        }
      }
    }
  }
}

TEST(MaskClassEngine, MatchesPerCellOracleOnSuiteAndSlices) {
  const auto models = mixed_models();
  std::vector<litmus::LitmusTest> tests = enumeration::corollary1_suite(true);
  const std::size_t suite_size = tests.size();
  for (const bool deps : {false, true}) {
    for (auto& t : slice_novel_tests(deps)) tests.push_back(std::move(t));
  }
  ASSERT_GT(tests.size(), suite_size + 1253);
  expect_matches_oracle(models, tests, engine::Backend::Explicit);
}

TEST(MaskClassEngine, SatBackendMatchesPerCellOracleOnSuite) {
  const auto models = mixed_models();
  const auto suite = enumeration::corollary1_suite(true);
  expect_matches_oracle(models, suite, engine::Backend::Sat);
}

}  // namespace
}  // namespace mcmc
