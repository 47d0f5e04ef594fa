// Tests for the forbidden-outcome explanation machinery.
#include <gtest/gtest.h>

#include "core/analysis.h"
#include "core/explain.h"
#include "fence_padding.h"
#include "litmus/catalog.h"
#include "models/zoo.h"

namespace mcmc::core {
namespace {

TEST(Explain, AllowedOutcomeIsReportedAsAllowed) {
  const auto t = litmus::store_buffering();
  const Analysis an(t.program());
  const auto explanation =
      explain_forbidden(an, models::tso(), t.outcome());
  EXPECT_TRUE(explanation.actually_allowed);
  EXPECT_TRUE(explanation.candidates.empty());
}

TEST(Explain, SbUnderScShowsTheClassicFourEdgeCycle) {
  const auto t = litmus::store_buffering();
  const Analysis an(t.program());
  const auto explanation = explain_forbidden(an, models::sc(), t.outcome());
  ASSERT_FALSE(explanation.actually_allowed);
  ASSERT_EQ(explanation.candidates.size(), 1u);  // rf is pinned (both 0)
  const auto& item = explanation.candidates[0];
  ASSERT_EQ(item.forced_cycle.size(), 4u);
  // Two program-order edges and two from-read edges.
  int po = 0;
  int fr = 0;
  for (const auto& line : item.forced_cycle) {
    po += line.find("program order") != std::string::npos;
    fr += line.find("from-read") != std::string::npos;
  }
  EXPECT_EQ(po, 2);
  EXPECT_EQ(fr, 2);
}

TEST(Explain, TestAUnderIbm370MentionsTheForwardingEdge) {
  const auto t = litmus::test_a();
  const Analysis an(t.program());
  const auto explanation =
      explain_forbidden(an, models::ibm370(), t.outcome());
  ASSERT_FALSE(explanation.actually_allowed);
  ASSERT_EQ(explanation.candidates.size(), 1u);
  const auto& item = explanation.candidates[0];
  ASSERT_FALSE(item.forced_cycle.empty());
  // The cycle runs through the same-address Write Y => Read Y edge that
  // IBM370 (unlike TSO) enforces.
  bool found = false;
  for (const auto& line : item.forced_cycle) {
    if (line.find("Write Y <- 2  =>  T2: Read Y -> r2") != std::string::npos) {
      found = true;
    }
  }
  EXPECT_TRUE(found) << item.forced_cycle[0];
}

TEST(Explain, UnwritableValueIsDiagnosed) {
  const auto t = litmus::store_buffering();
  const Analysis an(t.program());
  Outcome impossible;
  impossible.require(1, 99);
  const auto explanation =
      explain_forbidden(an, models::tso(), impossible);
  ASSERT_FALSE(explanation.actually_allowed);
  ASSERT_EQ(explanation.candidates.size(), 1u);
  EXPECT_NE(explanation.candidates[0].summary.find("no read-from map"),
            std::string::npos);
}

TEST(Explain, StaleLocalReadIsDiagnosedAsInfeasibleRf) {
  // T: Write X <- 1 ; Read X -> r1 with r1 = 0 has a candidate rf (the
  // initial value) that is coherence-infeasible.
  Program p;
  p.add_thread({make_write(0, 1), make_read(0, 1)});
  const Analysis an(p);
  Outcome stale;
  stale.require(1, 0);
  const auto explanation =
      explain_forbidden(an, MemoryModel("weakest", f_false()), stale);
  ASSERT_FALSE(explanation.actually_allowed);
  ASSERT_EQ(explanation.candidates.size(), 1u);
  EXPECT_NE(explanation.candidates[0].summary.find("infeasible"),
            std::string::npos);
}

TEST(Explain, DisjunctionDrivenFailureIsSummarized) {
  // L2 under TSO: the cycle runs through the read-from edge plus the
  // same-address read-read program-order edge; for the rf candidate the
  // forced edges alone may or may not close the cycle -- the explanation
  // must either show a forced cycle or report exhausted choices.
  const auto t = litmus::l2();
  const Analysis an(t.program());
  const auto explanation = explain_forbidden(an, models::tso(), t.outcome());
  ASSERT_FALSE(explanation.actually_allowed);
  ASSERT_FALSE(explanation.candidates.empty());
  for (const auto& item : explanation.candidates) {
    EXPECT_FALSE(item.summary.empty());
  }
}

TEST(Explain, TestsBeyondSixtyFourEventsAreExplainedBySat) {
  // SB padded to 66 events is past the explicit search's 64; its
  // explanation must match unpadded SB's.
  const auto small = litmus::store_buffering();
  const auto padded = pad_with_fences(small, 31);
  const Analysis small_an(small.program());
  const Analysis an(padded.program());
  ASSERT_EQ(an.num_events(), small_an.num_events() + 62);
  ASSERT_FALSE(an.masks_valid());

  const auto expected =
      explain_forbidden(small_an, models::sc(), small.outcome());
  const auto explanation =
      explain_forbidden(an, models::sc(), padded.outcome());
  ASSERT_FALSE(explanation.actually_allowed);
  ASSERT_EQ(explanation.candidates.size(), expected.candidates.size());
  for (std::size_t i = 0; i < expected.candidates.size(); ++i) {
    EXPECT_EQ(explanation.candidates[i].summary,
              expected.candidates[i].summary);
  }
  const auto under_tso = explain_forbidden(an, models::tso(), padded.outcome());
  EXPECT_TRUE(under_tso.actually_allowed);
}

TEST(Explain, EveryForbiddenCatalogVerdictHasAnExplanation) {
  for (const auto& t : litmus::full_catalog()) {
    const Analysis an(t.program());
    for (const auto& model : models::all_named_models()) {
      const auto explanation = explain_forbidden(an, model, t.outcome());
      if (explanation.actually_allowed) continue;
      ASSERT_FALSE(explanation.candidates.empty())
          << t.name() << " under " << model.name();
      for (const auto& item : explanation.candidates) {
        EXPECT_FALSE(item.summary.empty());
      }
    }
  }
}

}  // namespace
}  // namespace mcmc::core
