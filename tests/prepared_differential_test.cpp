// Differential tests pinning the prepared fast path to the seed
// semantics: every verdict produced through core::PreparedTest (and
// through the engine's prepared routing) must be bit-for-bit identical
// to the per-cell core::is_allowed loop it replaced — across the full
// 90-model space x the Corollary-1 suite, both of the oracle's decision
// engines, custom predicates, the reorder masks core::FormulaSet
// compiles, and an Analysis and PreparedTest refilled in place.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/analysis.h"
#include "core/checker.h"
#include "core/formula.h"
#include "core/prepared.h"
#include "core/readfrom.h"
#include "engine/verdict_engine.h"
#include "enumeration/suite.h"
#include "explore/space.h"
#include "fence_padding.h"
#include "litmus/catalog.h"
#include "models/special_fence.h"
#include "models/zoo.h"

namespace mcmc {
namespace {

using core::Engine;
using core::PreparedTest;

TEST(PreparedDifferential, NinetyModelsTimesCorollary1SuiteBitForBit) {
  const auto suite = enumeration::corollary1_suite(true);
  const auto space = explore::model_space(true);
  ASSERT_EQ(space.size(), 90u);
  std::vector<core::MemoryModel> models;
  for (const auto& c : space) models.push_back(c.to_model());

  for (const auto& t : suite) {
    const PreparedTest prep(t.program(), t.outcome());
    for (const auto& m : models) {
      const bool oracle =
          core::is_allowed(prep.analysis(), m, t.outcome(), Engine::Explicit);
      ASSERT_EQ(prep.allowed(m), oracle) << t.name() << " under " << m.name();
    }
  }
}

TEST(PreparedDifferential, SatBackendAgreesOnTheCatalog) {
  for (const auto& t : litmus::full_catalog()) {
    const PreparedTest prep(t.program(), t.outcome());
    for (const auto& m : models::all_named_models()) {
      const bool oracle =
          core::is_allowed(prep.analysis(), m, t.outcome(), Engine::Sat);
      ASSERT_EQ(prep.allowed(m), oracle) << t.name() << " under " << m.name();
    }
  }
}

/// Asserts that every row of `mask` is F evaluated per pair on the po
/// pairs of `an`: bit y of row x iff x != y, po(x, y) and F(x, y); and
/// that the rows past the analysis are zero.
void expect_mask_matches_per_pair(const core::ReorderMask& mask,
                                  const core::Analysis& an,
                                  const core::MemoryModel& m,
                                  const std::string& test_name) {
  ASSERT_EQ(mask.num_events, an.num_events());
  for (core::EventId x = 0; x < an.num_events(); ++x) {
    for (core::EventId y = 0; y < an.num_events(); ++y) {
      const bool in_mask =
          (mask.rows[static_cast<std::size_t>(x)] & (1ULL << y)) != 0;
      const bool expected =
          x != y && an.po(x, y) && m.must_not_reorder(an, x, y);
      ASSERT_EQ(in_mask, expected) << test_name << " under " << m.name()
                                   << " pair (" << x << "," << y << ")";
    }
  }
  for (std::size_t x = static_cast<std::size_t>(an.num_events()); x < 64;
       ++x) {
    ASSERT_EQ(mask.rows[x], 0u) << test_name << " under " << m.name();
  }
}

TEST(PreparedDifferential, CustomPredicateModelsUsePerPairFallback) {
  for (int n = 1; n <= 3; ++n) {
    const auto model = models::special_fence_chain(n);
    ASSERT_TRUE(model.formula().has_custom());
    const core::FormulaSet set({model.formula()});
    for (int k = 0; k <= 3; ++k) {
      const auto t = models::lb_with_fence_chain(k);
      const PreparedTest prep(t.program(), t.outcome());
      const bool fast = prep.allowed(model);
      EXPECT_EQ(fast, core::is_allowed(prep.analysis(), model, t.outcome(),
                                       Engine::Explicit))
          << "n=" << n << " k=" << k;
      // Custom atoms cannot be compiled a row at a time; the set calls
      // the predicate on every po pair, which must give the per-pair
      // mask.
      std::vector<core::ReorderMask> masks;
      std::vector<std::uint64_t> scratch;
      set.compile(prep.analysis(), masks, scratch);
      ASSERT_EQ(masks.size(), 1u);
      expect_mask_matches_per_pair(masks[0], prep.analysis(), model,
                                   t.name());
    }
  }
}

TEST(PreparedDifferential, FormulaSetMasksMatchPerPairEvaluation) {
  // One list: the 90-model space, the named zoo and two custom-predicate
  // models, so subformulas are shared across very different formulas.
  std::vector<core::MemoryModel> models;
  for (const auto& c : explore::model_space(true)) {
    models.push_back(c.to_model());
  }
  for (const auto& m : models::all_named_models()) models.push_back(m);
  models.push_back(models::special_fence_chain(1));
  models.push_back(models::special_fence_chain(3));
  std::vector<core::Formula> formulas;
  std::size_t unshared_nodes = 0;
  for (const auto& m : models) {
    formulas.push_back(m.formula());
    unshared_nodes += core::FormulaSet({m.formula()}).num_nodes();
  }
  const core::FormulaSet set(formulas);
  ASSERT_EQ(set.size(), models.size());
  // Hash-consing shares the common subformulas.
  EXPECT_LT(set.num_nodes() * 4, unshared_nodes);

  // One pair of buffers across every analysis, as the engine's workers
  // reuse theirs: a mask must not keep rows of a larger analysis.
  std::vector<core::ReorderMask> masks;
  std::vector<std::uint64_t> scratch;
  for (const auto& t : litmus::full_catalog()) {
    const core::Analysis an(t.program());
    set.compile(an, masks, scratch);
    ASSERT_EQ(masks.size(), models.size());
    for (std::size_t i = 0; i < models.size(); ++i) {
      expect_mask_matches_per_pair(masks[i], an, models[i], t.name());
    }
  }
}

TEST(PreparedDifferential, EngineMatrixIdenticalWithAndWithoutPreparedPath) {
  const auto suite = enumeration::corollary1_suite(true);
  std::vector<core::MemoryModel> models;
  for (const auto& c : explore::model_space(true)) {
    models.push_back(c.to_model());
  }

  engine::EngineOptions prepared_options;
  prepared_options.num_threads = 2;
  engine::VerdictEngine prepared_engine(prepared_options);
  const auto a = prepared_engine.run_matrix(models, suite);

  // The per-cell core::is_allowed matrix the prepared path replaced.
  engine::BitMatrix b(static_cast<int>(models.size()),
                      static_cast<int>(suite.size()));
  for (std::size_t t = 0; t < suite.size(); ++t) {
    const core::Analysis an(suite[t].program());
    for (std::size_t m = 0; m < models.size(); ++m) {
      if (core::is_allowed(an, models[m], suite[t].outcome(),
                           Engine::Explicit)) {
        b.set(static_cast<int>(m), static_cast<int>(t), true);
      }
    }
  }
  EXPECT_TRUE(a == b);

  // Every cell was evaluated, by fewer searches than cells: the models
  // of a program collapse into a few mask classes.
  const auto& stats = prepared_engine.last_stats();
  EXPECT_EQ(stats.checks_run, models.size() * suite.size());
  EXPECT_GT(stats.searches, 0u);
  EXPECT_LT(stats.searches, stats.checks_run);
}

/// Expects `reused` (refilled by reset) to hold exactly what `fresh`
/// computed for the same program.
void expect_same_analysis(const core::Analysis& reused,
                          const core::Analysis& fresh,
                          const std::string& test_name) {
  const int n = fresh.num_events();
  ASSERT_EQ(reused.num_events(), n) << test_name;
  ASSERT_EQ(reused.num_locations(), fresh.num_locations()) << test_name;
  for (core::EventId a = 0; a < n; ++a) {
    for (core::EventId b = 0; b < n; ++b) {
      ASSERT_EQ(reused.po(a, b), fresh.po(a, b)) << test_name;
      ASSERT_EQ(reused.same_addr(a, b), fresh.same_addr(a, b)) << test_name;
      ASSERT_EQ(reused.data_dep(a, b), fresh.data_dep(a, b)) << test_name;
      ASSERT_EQ(reused.ctrl_dep(a, b), fresh.ctrl_dep(a, b)) << test_name;
    }
  }
  for (core::Loc loc = 0; loc < fresh.num_locations(); ++loc) {
    const core::EventRange got = reused.writes_to(loc);
    const core::EventRange want = fresh.writes_to(loc);
    ASSERT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()))
        << test_name << " location " << loc;
  }
  ASSERT_EQ(reused.reads(), fresh.reads()) << test_name;
  ASSERT_EQ(reused.masks_valid(), fresh.masks_valid()) << test_name;
  if (!fresh.masks_valid()) return;
  ASSERT_EQ(reused.reads_mask(), fresh.reads_mask()) << test_name;
  ASSERT_EQ(reused.writes_mask(), fresh.writes_mask()) << test_name;
  ASSERT_EQ(reused.fences_mask(), fresh.fences_mask()) << test_name;
  for (core::EventId x = 0; x < n; ++x) {
    ASSERT_EQ(reused.po_mask(x), fresh.po_mask(x)) << test_name;
    ASSERT_EQ(reused.same_addr_mask(x), fresh.same_addr_mask(x)) << test_name;
    ASSERT_EQ(reused.data_dep_mask(x), fresh.data_dep_mask(x)) << test_name;
    ASSERT_EQ(reused.ctrl_dep_mask(x), fresh.ctrl_dep_mask(x)) << test_name;
  }
}

TEST(PreparedDifferential, ReusedWorkspaceMatchesFreshPreparation) {
  // The engine's workers refill one Analysis per program run and one
  // PreparedTest per test.  Here one of each is refilled over the
  // with-dep Corollary-1 suite, the catalog and SB padded to 66 events
  // (the SAT path), ordered so that consecutive tests alternately grow
  // and shrink: nothing of a larger predecessor may survive a refill.
  std::vector<litmus::LitmusTest> tests = enumeration::corollary1_suite(true);
  for (const auto& t : litmus::full_catalog()) tests.push_back(t);
  tests.push_back(pad_with_fences(litmus::store_buffering(), 31));
  ASSERT_EQ(tests.back().program().size(), 66);
  std::stable_sort(tests.begin(), tests.end(),
                   [](const litmus::LitmusTest& a, const litmus::LitmusTest& b) {
                     return a.program().size() < b.program().size();
                   });
  std::vector<const litmus::LitmusTest*> order;
  for (std::size_t lo = 0, hi = tests.size(); lo < hi;) {
    order.push_back(&tests[--hi]);
    if (lo < hi) order.push_back(&tests[lo++]);
  }

  const auto named = models::all_named_models();
  core::Analysis reused;
  PreparedTest prepared;
  for (const litmus::LitmusTest* t : order) {
    reused.reset(t->program());
    prepared.prepare(reused, t->outcome());
    const core::Analysis fresh(t->program());
    expect_same_analysis(reused, fresh, t->name());

    const auto rfs = core::enumerate_read_from(fresh, t->outcome());
    ASSERT_EQ(prepared.num_rf_maps(), rfs.size()) << t->name();
    for (std::size_t m = 0; m < rfs.size(); ++m) {
      ASSERT_TRUE(std::equal(rfs[m].begin(), rfs[m].end(),
                             prepared.rf_map(m)))
          << t->name() << " rf map " << m;
    }
    const Engine oracle_engine =
        fresh.masks_valid() ? Engine::Explicit : Engine::Sat;
    for (const auto& m : named) {
      ASSERT_EQ(prepared.allowed(m),
                core::is_allowed(fresh, m, t->outcome(), oracle_engine))
          << t->name() << " under " << m.name();
    }
  }
}

TEST(PreparedDifferential, StaticallyImpossibleOutcomeIsDisallowed) {
  // An outcome no write can produce yields zero rf maps; the prepared
  // test must answer false, as the seed path does.
  const auto t = litmus::store_buffering();
  core::Outcome impossible;
  impossible.require(1, 42);
  const PreparedTest prep(t.program(), impossible);
  EXPECT_EQ(prep.num_rf_maps(), 0u);
  EXPECT_FALSE(prep.allowed(models::sc()));
}

}  // namespace
}  // namespace mcmc
