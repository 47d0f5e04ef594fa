// Randomized differential fuzzing of the check pipelines over generated
// tests: the prepared-explicit engine, the SAT backend, and the
// unbatched core::is_allowed reference must agree bit for bit on a
// seeded sample of the naive space, for a cross-section of the model
// zoo.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "core/analysis.h"
#include "core/checker.h"
#include "engine/audited_source.h"
#include "engine/test_stream.h"
#include "engine/verdict_engine.h"
#include "enumeration/naive.h"
#include "explore/space.h"
#include "models/zoo.h"

namespace mcmc {
namespace {

std::vector<core::MemoryModel> model_sample() {
  std::vector<core::MemoryModel> models = {models::sc(), models::tso(),
                                           models::pso(), models::ibm370(),
                                           models::rmo(),
                                           models::alpha_variant()};
  // Choice models exercising every digit kind, dependency digits
  // included (they are inert on the dependency-free naive space, which
  // is itself worth differential coverage).
  for (const auto& c :
       {explore::ModelChoices{1, 0, 1, 0}, explore::ModelChoices{1, 1, 3, 2},
        explore::ModelChoices{4, 1, 4, 3}, explore::ModelChoices{1, 0, 4, 2}}) {
    models.push_back(c.to_model());
  }
  return models;
}

/// Every cell of `bits` against the unbatched reference.
void expect_matches_reference(const engine::BitMatrix& bits,
                              const std::vector<core::MemoryModel>& models,
                              const std::vector<litmus::LitmusTest>& tests) {
  for (std::size_t t = 0; t < tests.size(); ++t) {
    const core::Analysis an(tests[t].program());
    for (std::size_t m = 0; m < models.size(); ++m) {
      EXPECT_EQ(bits.get(static_cast<int>(m), static_cast<int>(t)),
                core::is_allowed(an, models[m], tests[t].outcome()))
          << models[m].name() << " on " << tests[t].name();
    }
  }
}

TEST(EnumerationFuzz, BackendsAgreeBitForBitOnSampledTests) {
  // ~500 seeded naive-space tests through three independent pipelines.
  enumeration::NaiveOptions bounds;
  const auto tests = enumeration::sample_naive_tests(bounds, 500, 0xF00DF00D);
  const auto models = model_sample();

  engine::EngineOptions prepared_explicit;
  prepared_explicit.backend = engine::Backend::Explicit;
  engine::EngineOptions sat;
  sat.backend = engine::Backend::Sat;

  engine::VerdictEngine eng_explicit(prepared_explicit);
  engine::VerdictEngine eng_sat(sat);

  const auto bits_explicit = eng_explicit.run_matrix(models, tests);
  EXPECT_EQ(bits_explicit, eng_sat.run_matrix(models, tests));
  EXPECT_GT(eng_sat.last_stats().sat_checks, 0u);
  EXPECT_GT(eng_explicit.last_stats().explicit_checks, 0u);
  expect_matches_reference(bits_explicit, models, tests);
}

TEST(EnumerationFuzz, BackendsAgreeBitForBitOnDepSampledTests) {
  // The same three-pipeline differential, over the dependency-extended
  // sample space: DepConst chains, indirect reads, register-valued
  // writes, and branches flow through analysis, preparation, and SAT
  // encoding — and here the models' dependency digits are live, not
  // inert.
  enumeration::NaiveOptions bounds;
  bounds.deps = true;
  const auto tests = enumeration::sample_naive_tests(bounds, 300, 0x0DD5EED5);
  const auto models = model_sample();

  bool saw_dep = false;
  for (const auto& test : tests) {
    for (const auto& thread : test.program().threads()) {
      for (const auto& instr : thread) {
        saw_dep = saw_dep || instr.op == core::Op::DepConst ||
                  instr.op == core::Op::Branch;
      }
    }
  }
  EXPECT_TRUE(saw_dep);

  engine::EngineOptions prepared_explicit;
  prepared_explicit.backend = engine::Backend::Explicit;
  engine::EngineOptions sat;
  sat.backend = engine::Backend::Sat;

  engine::VerdictEngine eng_explicit(prepared_explicit);
  engine::VerdictEngine eng_sat(sat);

  const auto bits_explicit = eng_explicit.run_matrix(models, tests);
  EXPECT_EQ(bits_explicit, eng_sat.run_matrix(models, tests));
  expect_matches_reference(bits_explicit, models, tests);
}

TEST(EnumerationFuzz, CacheAndDedupDoNotChangeVerdicts) {
  // A deliberately tiny sample space (36 programs), so the sample is
  // full of canonically symmetric duplicates.
  enumeration::NaiveOptions bounds;
  bounds.num_locations = 1;
  bounds.max_accesses_per_thread = 2;
  bounds.fences = false;
  const auto tests = enumeration::sample_naive_tests(bounds, 200, 20260729);
  const auto models = model_sample();

  engine::VerdictEngine cached{engine::EngineOptions{}};
  engine::EngineOptions raw_options;
  raw_options.cache_enabled = false;
  engine::VerdictEngine raw(raw_options);

  const auto bits_cached = cached.run_matrix(models, tests);
  const engine::EngineStats first = cached.last_stats();
  EXPECT_EQ(bits_cached, raw.run_matrix(models, tests));
  // The duplicate-rich 2-location sample must actually exercise dedup.
  EXPECT_GT(first.dedup_hits, 0u);
  EXPECT_LT(first.checks_run, raw.last_stats().checks_run);
  // No verdict outlives a call: a rerun on the same engine decides
  // every row again.
  EXPECT_EQ(bits_cached, cached.run_matrix(models, tests));
  EXPECT_EQ(cached.last_stats().checks_run, first.checks_run);
}

TEST(EnumerationFuzz, StreamFingerprintDedupMatchesLegacyKeyClasses) {
  // The streamed dedup filter now runs on 128-bit canonical
  // fingerprints with no Analysis and no key string; on a
  // duplicate-rich sample its novel count must equal the number of
  // distinct legacy canonical_key strings, and the audit decorator
  // (which recomputes the strings and cross-checks both directions)
  // must pass throughout and see exactly the novel classes.
  enumeration::NaiveOptions bounds;
  bounds.num_locations = 2;
  bounds.max_accesses_per_thread = 2;
  auto tests = enumeration::sample_naive_tests(bounds, 400, 0xBEEF);

  std::set<std::string> legacy_classes;
  for (const auto& test : tests) {
    legacy_classes.insert(litmus::canonical_key(test));
  }

  const std::vector<core::MemoryModel> models = {models::sc(), models::tso()};
  engine::VectorSource source(std::move(tests), 64);
  engine::AuditedSource audited(source);
  engine::VerdictEngine eng;
  const auto stats = eng.run_stream(models, audited, nullptr);

  EXPECT_EQ(stats.novel_tests, legacy_classes.size());
  EXPECT_EQ(stats.novel_tests, audited.classes());
  EXPECT_GT(stats.duplicate_tests, 0u);
}

TEST(EnumerationFuzz, StreamFingerprintDedupMatchesLegacyKeyClassesWithDeps) {
  // The fingerprint/string-key audit over a dependency-carrying sample:
  // KeyFacts' dep bitmasks, DepConst constants, and indirect-address
  // resolution all feed canonical_fingerprint, so the novel count must
  // still equal the number of distinct legacy canonical_key strings,
  // with the two-direction audit decorator on throughout.
  enumeration::NaiveOptions bounds;
  bounds.num_locations = 2;
  bounds.max_accesses_per_thread = 2;
  bounds.deps = true;
  auto tests = enumeration::sample_naive_tests(bounds, 400, 0xDE9C0DE);

  std::set<std::string> legacy_classes;
  for (const auto& test : tests) {
    legacy_classes.insert(litmus::canonical_key(test));
  }

  const std::vector<core::MemoryModel> models = {models::sc(), models::tso()};
  engine::VectorSource source(std::move(tests), 64);
  engine::AuditedSource audited(source);
  engine::VerdictEngine eng;
  const auto stats = eng.run_stream(models, audited, nullptr);

  EXPECT_EQ(stats.novel_tests, legacy_classes.size());
  EXPECT_EQ(stats.novel_tests, audited.classes());
  EXPECT_GT(stats.duplicate_tests, 0u);
}

}  // namespace
}  // namespace mcmc
