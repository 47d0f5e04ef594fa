// Differential tests of the engine's mask-class evaluation.  A batch
// compiles its models once (core::FormulaSet), groups a program's
// models by equal reorder mask, and decides each test with one search
// per distinct mask among its requested models.  Every verdict must
// equal core::is_allowed per cell — in any request order, with
// duplicate cells, on sparse batches, at any thread count, on both
// backends, custom-predicate models included — while running fewer
// searches than cells on full model products.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/analysis.h"
#include "core/checker.h"
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

struct RequestOrder {
  std::string name;
  std::vector<engine::VerdictRequest> requests;
  bool full_product = false;  ///< every (model, test) cell is requested
};

/// Test-major; shuffled with a quarter of the cells duplicated; a
/// sparse random subset of about one cell in seven.
std::vector<RequestOrder> request_orders(std::size_t num_models,
                                         std::size_t num_tests) {
  RequestOrder test_major{"test-major", {}, true};
  for (std::size_t t = 0; t < num_tests; ++t) {
    for (std::size_t m = 0; m < num_models; ++m) {
      test_major.requests.push_back(
          {static_cast<int>(m), static_cast<int>(t)});
    }
  }
  util::Rng rng(17);
  RequestOrder shuffled{"shuffled+duplicates", test_major.requests, true};
  auto& cells = shuffled.requests;
  const std::size_t distinct = cells.size();
  for (std::size_t i = 0; i < distinct / 4; ++i) {
    cells.push_back(cells[rng.below(distinct)]);
  }
  for (std::size_t i = cells.size(); i > 1; --i) {
    std::swap(cells[i - 1], cells[rng.below(i)]);
  }
  RequestOrder sparse{"sparse", {}, false};
  for (const auto& r : test_major.requests) {
    if (rng.chance(1, 7)) sparse.requests.push_back(r);
  }
  return {test_major, shuffled, sparse};
}

/// Runs every request order through a fresh engine per (cache,
/// threads) combination and compares each verdict with the oracle.
void expect_matches_oracle(const std::vector<core::MemoryModel>& models,
                           const std::vector<litmus::LitmusTest>& tests,
                           const std::vector<std::vector<char>>& oracle,
                           engine::Backend backend) {
  const auto orders = request_orders(models.size(), tests.size());
  for (const bool cache : {false, true}) {
    for (const int threads : {1, 4}) {
      for (const auto& order : orders) {
        engine::EngineOptions options;
        options.backend = backend;
        options.cache_enabled = cache;
        options.num_threads = threads;
        engine::VerdictEngine eng(options);
        const std::string where = order.name + " cache=" +
                                  std::to_string(cache) + " threads=" +
                                  std::to_string(threads) + " backend=" +
                                  engine::to_string(backend);
        const auto verdicts = eng.run_batch(models, tests, order.requests);
        ASSERT_EQ(verdicts.size(), order.requests.size()) << where;
        for (std::size_t i = 0; i < verdicts.size(); ++i) {
          const auto& r = order.requests[i];
          ASSERT_EQ(verdicts[i] != 0,
                    oracle[static_cast<std::size_t>(r.test)]
                          [static_cast<std::size_t>(r.model)] != 0)
              << tests[static_cast<std::size_t>(r.test)].name() << " under "
              << models[static_cast<std::size_t>(r.model)].name() << " ("
              << where << ")";
        }
        const auto& stats = eng.last_stats();
        EXPECT_EQ(stats.cells, order.requests.size()) << where;
        EXPECT_LE(stats.searches, stats.checks_run) << where;
        if (order.full_product) {
          EXPECT_GT(stats.searches, 0u) << where;
          EXPECT_LT(stats.searches, stats.checks_run) << where;
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
  const auto oracle = per_cell_oracle(models, tests);
  expect_matches_oracle(models, tests, oracle, engine::Backend::Explicit);
}

TEST(MaskClassEngine, SatBackendMatchesPerCellOracleOnSuite) {
  const auto models = mixed_models();
  const auto suite = enumeration::corollary1_suite(true);
  expect_matches_oracle(models, suite, per_cell_oracle(models, suite),
                        engine::Backend::Sat);
}

}  // namespace
}  // namespace mcmc
