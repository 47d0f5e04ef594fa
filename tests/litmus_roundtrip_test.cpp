// Printer/parser round trips: parse_test(write_test(t)) must reproduce
// the program and the outcome for every Corollary-1 suite test and for
// generated corpora (sampled and exhaustively enumerated).  OutcomeSpill
// covers outcomes too long to be held inline.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/checker.h"
#include "core/outcome.h"
#include "engine/test_stream.h"
#include "engine/verdict_engine.h"
#include "enumeration/exhaustive.h"
#include "enumeration/naive.h"
#include "enumeration/suite.h"
#include "explore/space.h"
#include "litmus/catalog.h"
#include "litmus/parser.h"

namespace mcmc {
namespace {

void expect_roundtrip(const litmus::LitmusTest& test) {
  const std::string text = litmus::write_test(test);
  const litmus::LitmusTest back = litmus::parse_test(text);
  EXPECT_EQ(back.name(), test.name()) << text;
  EXPECT_TRUE(back.program() == test.program()) << text;
  EXPECT_TRUE(back.outcome() == test.outcome()) << text;
}

TEST(LitmusRoundTrip, Corollary1SuiteWithAndWithoutDeps) {
  for (const bool deps : {false, true}) {
    for (const auto& test : enumeration::corollary1_suite(deps)) {
      expect_roundtrip(test);
    }
  }
}

TEST(LitmusRoundTrip, NamedCatalog) {
  for (const auto& test : litmus::full_catalog()) {
    expect_roundtrip(test);
  }
}

TEST(LitmusRoundTrip, SampledNaiveTests) {
  // Includes read-free programs whose outcome line carries no items.
  const auto tests =
      enumeration::sample_naive_tests(enumeration::NaiveOptions{}, 300, 77);
  for (const auto& test : tests) expect_roundtrip(test);
}

TEST(LitmusRoundTrip, ExhaustiveStreamSlice) {
  enumeration::ExhaustiveOptions options;
  options.bounds.max_accesses_per_thread = 2;
  options.chunk_size = 512;
  enumeration::ExhaustiveStream stream(options);
  int seen = 0;
  engine::for_each_test(stream, [&](const litmus::LitmusTest& test) {
    expect_roundtrip(test);
    ++seen;
  });
  EXPECT_EQ(seen, 13086);  // the whole 2-access slice round-trips
}

TEST(LitmusRoundTrip, CorpusRoundTripsAsAWhole) {
  const auto suite = enumeration::corollary1_suite(true);
  const auto back = litmus::parse_corpus(litmus::write_corpus(suite));
  ASSERT_EQ(back.size(), suite.size());
  for (std::size_t i = 0; i < suite.size(); ++i) {
    EXPECT_EQ(back[i].name(), suite[i].name());
    EXPECT_TRUE(back[i].program() == suite[i].program());
    EXPECT_TRUE(back[i].outcome() == suite[i].outcome());
  }
}

// ---------------------------------------------------------------------------
// Outcomes longer than core::Outcome::kInlineCapacity keep their
// constraints on the heap; every use of an outcome behaves the same.
// ---------------------------------------------------------------------------

/// Store buffering with four reads per thread: eight constrained
/// registers, two more than an outcome holds inline.
constexpr const char* kEightReads = R"(
name: SB+4R
thread:
  Write X <- 1
  Read Y -> r1
  Read Y -> r2
  Read X -> r3
  Read X -> r4
thread:
  Write Y <- 1
  Read X -> r5
  Read X -> r6
  Read Y -> r7
  Read Y -> r8
outcome: r1=0 r2=0 r3=1 r4=1 r5=0 r6=0 r7=1 r8=1
)";

std::vector<core::Outcome::Constraint> eight_constraints() {
  return {{1, 0}, {2, 0}, {3, 1}, {4, 1}, {5, 0}, {6, 0}, {7, 1}, {8, 1}};
}

TEST(OutcomeSpill, ParseWriteParseRoundTrip) {
  const auto test = litmus::parse_test(kEightReads);
  ASSERT_GT(test.outcome().constraints().size(),
            core::Outcome::kInlineCapacity);
  EXPECT_EQ(test.outcome().to_string(),
            "r1 = 0; r2 = 0; r3 = 1; r4 = 1; r5 = 0; r6 = 0; r7 = 1; r8 = 1");
  expect_roundtrip(test);
}

TEST(OutcomeSpill, EqualityMatchesEveryConstructionPath) {
  const core::Outcome parsed = litmus::parse_test(kEightReads).outcome();
  core::Outcome required;
  for (const auto& [reg, value] : eight_constraints()) {
    required.require(reg, value);
  }
  EXPECT_TRUE(parsed == core::Outcome(eight_constraints()));
  EXPECT_TRUE(parsed == required);

  // Outcomes that differ in their last constraint, or in their length
  // (inline against spilled), compare unequal.
  auto changed = eight_constraints();
  changed.back().second = 0;
  EXPECT_FALSE(parsed == core::Outcome(changed));
  auto inline_prefix = eight_constraints();
  inline_prefix.resize(core::Outcome::kInlineCapacity);
  EXPECT_FALSE(parsed == core::Outcome(inline_prefix));
  EXPECT_FALSE(core::Outcome(inline_prefix) == parsed);
}

TEST(OutcomeSpill, CopiesMovesAndRequired) {
  const core::Outcome original(eight_constraints());
  core::Outcome copy = original;
  EXPECT_TRUE(copy == original);
  const core::Outcome moved = std::move(copy);
  EXPECT_TRUE(moved == original);
  core::Outcome assigned;
  assigned.require(1, 1);
  assigned = moved;
  EXPECT_TRUE(assigned == original);
  core::Outcome move_assigned;
  move_assigned = std::move(assigned);
  EXPECT_TRUE(move_assigned == original);

  for (const auto& [reg, value] : eight_constraints()) {
    EXPECT_EQ(move_assigned.required(reg), value) << "r" << reg;
  }
  EXPECT_FALSE(move_assigned.required(0).has_value());
  EXPECT_FALSE(move_assigned.required(9).has_value());
  EXPECT_FALSE(move_assigned.empty());
}

TEST(OutcomeSpill, RepeatedRegisterRejectedOnBothSidesOfTheCapacity) {
  for (const std::size_t held :
       {core::Outcome::kInlineCapacity - 1, core::Outcome::kInlineCapacity,
        core::Outcome::kInlineCapacity + 1}) {
    auto constraints = eight_constraints();
    constraints.resize(held);
    core::Outcome outcome(constraints);
    const core::Outcome before = outcome;
    try {
      outcome.require(constraints.front().first, 5);
      ADD_FAILURE() << "require accepted a repeated register at " << held;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("constrained more than once"),
                std::string::npos);
    }
    EXPECT_TRUE(outcome == before) << held;  // unchanged by the failure

    constraints.push_back(constraints.back());
    EXPECT_THROW(core::Outcome{constraints}, std::invalid_argument) << held;
  }
}

TEST(OutcomeSpill, EngineVerdictsMatchThePerCellOracle) {
  const auto test = litmus::parse_test(kEightReads);
  std::vector<core::MemoryModel> models;
  for (const auto& c : explore::model_space(true)) {
    models.push_back(c.to_model());
  }
  engine::EngineOptions options;
  options.num_threads = 2;
  engine::VerdictEngine eng(options);
  const engine::BitMatrix batch = eng.run_matrix(models, {test});
  // The stream path: canonical fingerprint, row path, delivered row.
  engine::VectorSource source({test}, 1);
  engine::BitMatrix streamed(1, static_cast<int>(models.size()));
  (void)eng.run_stream(
      models, source,
      [&](const std::vector<litmus::LitmusTest>& novel,
          const std::vector<util::Key128>&, const engine::BitMatrix& verdicts,
          const engine::StreamChunkStats&) {
        ASSERT_EQ(novel.size(), 1u);
        streamed = verdicts;
      });

  const core::Analysis analysis(test.program());
  int allowed = 0;
  for (std::size_t m = 0; m < models.size(); ++m) {
    const bool oracle = core::is_allowed(analysis, models[m], test.outcome());
    EXPECT_EQ(batch.get(static_cast<int>(m), 0), oracle) << models[m].name();
    EXPECT_EQ(streamed.get(0, static_cast<int>(m)), oracle)
        << models[m].name();
    allowed += oracle ? 1 : 0;
  }
  // The outcome separates the space: SC forbids it, TSO allows it.
  EXPECT_GT(allowed, 0);
  EXPECT_LT(allowed, static_cast<int>(models.size()));
}

}  // namespace
}  // namespace mcmc
