// VerdictEngine batch semantics: batched verdicts must equal per-call
// core::is_allowed, symmetric duplicate tests must share one check
// within a call (and no verdict may outlive it), and results must not
// depend on the thread count.
#include <gtest/gtest.h>

#include <stdexcept>

#include "core/analysis.h"
#include "core/checker.h"
#include "engine/verdict_engine.h"
#include "enumeration/naive.h"
#include "explore/matrix.h"
#include "explore/space.h"
#include "litmus/catalog.h"
#include "litmus/test.h"
#include "models/special_fence.h"
#include "models/zoo.h"
#include "util/hash128.h"

namespace mcmc {
namespace {

std::vector<core::MemoryModel> mixed_models() {
  std::vector<core::MemoryModel> models = {models::sc(), models::tso(),
                                           models::pso(), models::rmo()};
  models.push_back(explore::ModelChoices{1, 1, 1, 0}.to_model());
  models.push_back(explore::ModelChoices{1, 0, 3, 2}.to_model());
  return models;
}

TEST(VerdictEngineBatch, MatchesPerCallVerdicts) {
  enumeration::NaiveOptions options;
  options.num_locations = 2;
  const auto tests = enumeration::sample_naive_tests(options, 30, 2024);
  const auto models = mixed_models();

  engine::VerdictEngine eng;
  const auto matrix = eng.run_matrix(models, tests);

  for (std::size_t m = 0; m < models.size(); ++m) {
    for (std::size_t t = 0; t < tests.size(); ++t) {
      const core::Analysis an(tests[t].program());
      EXPECT_EQ(matrix.get(static_cast<int>(m), static_cast<int>(t)),
                core::is_allowed(an, models[m], tests[t].outcome()))
          << models[m].name() << " on test " << t;
    }
  }
  EXPECT_EQ(eng.last_stats().cells, models.size() * tests.size());
  // Analyses are built lazily, only for tests that reach evaluation:
  // one per canonical class of the sample, never more than the batch.
  EXPECT_GT(eng.last_stats().unique_analyses, 0u);
  EXPECT_LE(eng.last_stats().unique_analyses, tests.size());
}

TEST(VerdictEngineBatch, SymmetricDuplicatesHitTheCache) {
  // Store buffering, and its image under thread exchange + location
  // renaming: canonically identical, so one evaluation serves both.
  core::Program sb({{core::make_write(0, 1), core::make_read(1, 0)},
                    {core::make_write(1, 1), core::make_read(0, 1)}});
  core::Program sb_twin({{core::make_write(1, 1), core::make_read(0, 0)},
                         {core::make_write(0, 1), core::make_read(1, 1)}});
  core::Outcome both_stale({{0, 0}, {1, 0}});
  const std::vector<litmus::LitmusTest> tests = {
      litmus::LitmusTest("sb", sb, both_stale),
      litmus::LitmusTest("sb-twin", sb_twin, both_stale)};

  ASSERT_EQ(litmus::canonical_key(tests[0]), litmus::canonical_key(tests[1]));
  ASSERT_NE(litmus::structural_key(tests[0]), litmus::structural_key(tests[1]));

  const std::vector<core::MemoryModel> models = {models::tso()};
  engine::VerdictEngine eng;
  const auto matrix = eng.run_matrix(models, tests);
  EXPECT_EQ(matrix.get(0, 0), matrix.get(0, 1));
  EXPECT_TRUE(matrix.get(0, 0));  // TSO allows SB's stale outcome
  EXPECT_EQ(eng.last_stats().checks_run, 1u);
  EXPECT_GT(eng.last_stats().dedup_hits, 0u);

  // No verdict outlives a call: a later batch decides again.
  const auto again = eng.run_matrix(models, tests);
  EXPECT_EQ(again, matrix);
  EXPECT_EQ(eng.last_stats().checks_run, 1u);
  EXPECT_EQ(eng.last_stats().dedup_hits, 1u);
}

TEST(VerdictEngineBatch, CustomPredicateModelsSkipCanonicalSharing) {
  // Thread-swapped twins must NOT share verdicts under a model whose
  // formula carries an opaque custom predicate: the engine falls back to
  // structural keys, so the twins evaluate separately.
  core::Program sb({{core::make_write(0, 1), core::make_read(1, 0)},
                    {core::make_write(1, 1), core::make_read(0, 1)}});
  core::Program sb_twin({{core::make_write(1, 1), core::make_read(0, 0)},
                         {core::make_write(0, 1), core::make_read(1, 1)}});
  core::Outcome both_stale({{0, 0}, {1, 0}});
  const std::vector<litmus::LitmusTest> tests = {
      litmus::LitmusTest("sb", sb, both_stale),
      litmus::LitmusTest("sb-twin", sb_twin, both_stale)};

  const std::vector<core::MemoryModel> models = {
      models::special_fence_chain(1)};
  ASSERT_TRUE(models[0].formula().has_custom());
  engine::VerdictEngine eng;
  const auto matrix = eng.run_matrix(models, tests);
  EXPECT_EQ(eng.last_stats().checks_run, 2u);
  EXPECT_EQ(eng.last_stats().dedup_hits, 0u);
  // The twins are still semantically symmetric for this model's built-in
  // axioms, so the verdicts agree even though they were not shared.
  EXPECT_EQ(matrix.get(0, 0), matrix.get(0, 1));
}

TEST(VerdictEngineBatch, ResultsIdenticalAcrossThreadCounts) {
  enumeration::NaiveOptions options;
  const auto tests = enumeration::sample_naive_tests(options, 25, 7);
  const auto models = mixed_models();

  engine::EngineOptions serial;
  serial.num_threads = 1;
  engine::EngineOptions wide;
  wide.num_threads = 8;

  engine::VerdictEngine eng1(serial);
  engine::VerdictEngine engN(wide);
  const auto bits1 = eng1.run_matrix(models, tests);
  const auto bitsN = engN.run_matrix(models, tests);
  EXPECT_EQ(bits1, bitsN);
  EXPECT_EQ(eng1.last_stats().threads_used, 1);
  EXPECT_EQ(eng1.last_stats().checks_run, engN.last_stats().checks_run);

  // And with the cache off (every cell its own check).
  engine::EngineOptions raw_serial = serial;
  raw_serial.cache_enabled = false;
  engine::EngineOptions raw_wide = wide;
  raw_wide.cache_enabled = false;
  engine::VerdictEngine raw1(raw_serial);
  engine::VerdictEngine rawN(raw_wide);
  EXPECT_EQ(raw1.run_matrix(models, tests), bits1);
  EXPECT_EQ(rawN.run_matrix(models, tests), bits1);
  EXPECT_EQ(rawN.last_stats().checks_run, models.size() * tests.size());
}

TEST(VerdictEngineBatch, SatAndExplicitBackendsAgree) {
  enumeration::NaiveOptions options;
  options.num_locations = 2;
  options.max_accesses_per_thread = 2;
  const auto tests = enumeration::sample_naive_tests(options, 10, 99);
  const auto models = mixed_models();

  engine::EngineOptions sat;
  sat.backend = engine::Backend::Sat;
  engine::EngineOptions explicit_opts;
  explicit_opts.backend = engine::Backend::Explicit;

  engine::VerdictEngine sat_eng(sat);
  engine::VerdictEngine explicit_eng(explicit_opts);
  EXPECT_EQ(sat_eng.run_matrix(models, tests),
            explicit_eng.run_matrix(models, tests));
  EXPECT_GT(sat_eng.last_stats().sat_checks, 0u);
  EXPECT_EQ(sat_eng.last_stats().explicit_checks, 0u);
  EXPECT_GT(explicit_eng.last_stats().explicit_checks, 0u);
  EXPECT_EQ(explicit_eng.last_stats().sat_checks, 0u);
}

TEST(VerdictEngineBatch, RunRowsRejectsMisalignedKeys) {
  const std::vector<core::MemoryModel> models = {models::sc()};
  const std::vector<litmus::LitmusTest> tests = {litmus::store_buffering(),
                                                 litmus::message_passing()};
  const engine::RowModels rows(models, nullptr);
  litmus::KeyScratch scratch;
  std::vector<util::Key128> keys;
  for (const auto& test : tests) {
    keys.push_back(litmus::canonical_fingerprint(test, scratch));
  }
  engine::VerdictEngine eng;
  const engine::BitMatrix want = eng.run_rows(rows, tests, {});
  EXPECT_TRUE(eng.run_rows(rows, tests, keys) == want);

  // One key too few or too many is refused.
  const std::vector<util::Key128> short_keys(keys.begin(), keys.end() - 1);
  std::vector<util::Key128> long_keys = keys;
  long_keys.push_back(keys.front());
  EXPECT_THROW((void)eng.run_rows(rows, tests, short_keys),
               std::invalid_argument);
  EXPECT_THROW((void)eng.run_rows(rows, tests, long_keys),
               std::invalid_argument);
}

TEST(AdmissibilityMatrixBounds, AllowedRejectsOutOfRangeIndices) {
  const std::vector<core::MemoryModel> models = {models::sc(), models::tso()};
  const auto tests = litmus::figure3_tests();
  const explore::AdmissibilityMatrix matrix(models, tests);
  EXPECT_TRUE(matrix.allowed(1, 6));  // TSO allows L7 (store buffering)
  EXPECT_THROW((void)matrix.allowed(-1, 0), std::invalid_argument);
  EXPECT_THROW((void)matrix.allowed(0, -1), std::invalid_argument);
  EXPECT_THROW((void)matrix.allowed(2, 0), std::invalid_argument);
  EXPECT_THROW((void)matrix.allowed(0, 9), std::invalid_argument);
  EXPECT_THROW((void)matrix.compare(0, 2), std::invalid_argument);
  EXPECT_THROW((void)matrix.distinguishing_tests(-1, 0),
               std::invalid_argument);
}

TEST(AdmissibilityMatrixBounds, WordWiseOpsMatchPerCellLoops) {
  const auto space = explore::model_space(false);
  std::vector<core::MemoryModel> models;
  for (const auto& c : space) models.push_back(c.to_model());
  const auto tests = litmus::figure3_tests();
  const explore::AdmissibilityMatrix matrix(models, tests);

  for (int a = 0; a < matrix.num_models(); a += 5) {
    for (int b = a + 1; b < matrix.num_models(); b += 7) {
      bool first_extra = false;
      bool second_extra = false;
      std::vector<int> expected_diff;
      std::vector<int> expected_first_only;
      for (int t = 0; t < matrix.num_tests(); ++t) {
        const bool va = matrix.allowed(a, t);
        const bool vb = matrix.allowed(b, t);
        if (va && !vb) first_extra = true;
        if (vb && !va) second_extra = true;
        if (va != vb) expected_diff.push_back(t);
        if (va && !vb) expected_first_only.push_back(t);
      }
      explore::Relation expected = explore::Relation::Equivalent;
      if (first_extra && second_extra) {
        expected = explore::Relation::Incomparable;
      } else if (first_extra) {
        expected = explore::Relation::FirstWeaker;
      } else if (second_extra) {
        expected = explore::Relation::FirstStronger;
      }
      EXPECT_EQ(matrix.compare(a, b), expected);
      EXPECT_EQ(matrix.distinguishing_tests(a, b), expected_diff);
      EXPECT_EQ(matrix.allowed_by_first_only(a, b), expected_first_only);
    }
  }
}

}  // namespace
}  // namespace mcmc
