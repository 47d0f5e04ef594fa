// The full empirical Theorem-1 / Corollary-1 equivalence runs, part of
// tier-1 like every other test (exhaustive_equivalence_test.cpp checks
// bounded slices; the sanitizer jobs exclude these two, and the nightly
// job runs them alone):
//
//   1. stream all 5,160,270 naive-space tests through the VerdictEngine
//      in chunks, build the 90x90 model-pair distinguishability matrix,
//      and require it to be bit-for-bit identical to the matrix induced
//      by the 64-test no-dependency Corollary-1 suite;
//   2. stream all 25,435,926 dependency-extended naive-space tests the
//      same way and require the matrix to be bit-for-bit identical to
//      the 124-test with-dependency suite (3,997 of 4,005 pairs — every
//      pair except the paper's eight equivalent ones).
//
// The no-dep comparison uses the no-dependency suite because that space
// carries no dependency idioms: on such corpora the dependency digits
// collapse (option 2 behaves like 0, 3 like 1), identically on both
// sides of the comparison.  The dep-extended space makes the dependency
// digits live, which is exactly what closes the remaining
// 3,997 - 3,843 = 154 pairs.
#include <gtest/gtest.h>

#include "elision_tally.h"
#include "engine/audited_source.h"
#include "engine/verdict_engine.h"
#include "enumeration/exhaustive.h"
#include "enumeration/suite.h"
#include "explore/distinguish.h"
#include "explore/space.h"
#include "program_classes.h"

namespace mcmc {
namespace {

TEST(ExhaustiveFull, NaiveSpaceDistinguishabilityEqualsCorollary1Suite) {
  const auto space = explore::model_space(true);
  std::vector<core::MemoryModel> models;
  for (const auto& c : space) models.push_back(c.to_model());

  engine::VerdictEngine eng;
  const auto by_suite_nodep = explore::distinguishability(
      eng, models, enumeration::corollary1_suite(false));
  const auto by_suite_dep = explore::distinguishability(
      eng, models, enumeration::corollary1_suite(true));

  enumeration::ExhaustiveOptions options;  // the full default bounds
  options.chunk_size = 8192;
  enumeration::ExhaustiveStream stream(options);
  ElisionTally tally(stream);
  // Collision-audit the hash-based dedup over the whole 5.16M-test
  // space: every class's full canonical key is retained and checked
  // against its 128-bit hash, so the equivalence below also proves the
  // hash dedup changes nothing (a collision throws mid-stream).  The
  // audit also checks every repeat the stream elides, against a
  // full-build twin of the stream that builds every test.
  enumeration::ExhaustiveStream twin(options);
  engine::AuditedSource audited(tally, eng.effective_threads(), &twin);
  explore::TheoremHarnessReport report;
  const auto by_naive = explore::distinguishability_streamed(
      eng, models, audited, explore::TheoremHarnessOptions{}, &report);

  // ---- The headline equivalence, bit for bit. ----
  EXPECT_TRUE(by_naive == by_suite_nodep)
      << "naive-only pairs: " << by_naive.pairs_beyond(by_suite_nodep).size()
      << ", suite-only pairs: "
      << by_suite_nodep.pairs_beyond(by_naive).size();
  EXPECT_EQ(by_naive.distinguished_pairs(), 3843);
  EXPECT_TRUE(by_naive.subset_of(by_suite_dep));
  EXPECT_EQ(by_suite_dep.distinguished_pairs(), 4005 - 8);

  // ---- Stream accounting: the whole space went through, and the
  // canonical machinery reduced it by an order of magnitude. ----
  EXPECT_EQ(report.stream.tests_streamed, 5160270u);
  EXPECT_EQ(static_cast<long long>(report.stream.tests_streamed),
            stream.emitted().tests);
  EXPECT_EQ(report.stream.chunks, (5160270u + 8191u) / 8192u);
  EXPECT_EQ(stream.emitted().programs, 887364);
  EXPECT_EQ(canonical_program_classes(options), 74702);
  EXPECT_EQ(enumeration::ExhaustiveStream::count_orbits(options).programs,
            74702);
  EXPECT_EQ(report.stream.novel_tests, 445565u);  // canonical test classes
  // The engine's novel tests are exactly the audited classes.
  EXPECT_EQ(report.stream.novel_tests, audited.classes());
  // Every test of a program outside its orbit's least shape pair is
  // elided, checked by the audit and never built; the built programs
  // are one per program class.
  EXPECT_EQ(tally.elided_tests(), 4713317u);
  EXPECT_EQ(audited.elided_verified(), 4713317u);
  EXPECT_EQ(report.stream.repeat_tests, 4713317u);
  EXPECT_EQ(tally.built_tests() + tally.elided_tests(), 5160270u);
  EXPECT_EQ(tally.built_programs(), 74702u);
  EXPECT_EQ(static_cast<long long>(tally.built_tests()),
            enumeration::ExhaustiveStream::count_orbits(options).tests);
  EXPECT_EQ(report.candidate_tests + report.filtered_tests,
            report.stream.novel_tests);
  EXPECT_EQ(report.candidate_tests, 40817u);  // survive the extremes filter
  EXPECT_GT(report.stream.dedup_rate(), 0.9);
  // The sweep decides candidates x 90 cells by one search per distinct
  // (test, reorder mask) pair.
  EXPECT_EQ(report.sweep.checks_run, 40817u * 90u);
  EXPECT_EQ(report.sweep.searches, 365759u);
  // The stages, the sweep's sink among them, account for the wall: at
  // most 5% is left unattributed.
  EXPECT_GT(report.stream.stages.sink, 0.0);
  EXPECT_LE(report.stream.unattributed_seconds(),
            0.05 * report.stream.wall_seconds)
      << report.stream.to_string();
}

TEST(ExhaustiveFull, DepSpaceDistinguishabilityEqualsWithDepSuite) {
  const auto space = explore::model_space(true);
  std::vector<core::MemoryModel> models;
  for (const auto& c : space) models.push_back(c.to_model());

  engine::VerdictEngine eng;
  const auto by_suite_dep = explore::distinguishability(
      eng, models, enumeration::corollary1_suite(true));

  enumeration::ExhaustiveOptions options;  // the full default bounds...
  options.bounds.deps = true;              // ...plus dependency slots
  options.chunk_size = 8192;
  enumeration::ExhaustiveStream stream(options);
  ElisionTally tally(stream);
  explore::TheoremHarnessReport report;
  explore::TheoremHarnessOptions harness;
  // No collision audit here: the fingerprint/string-key cross-check
  // already runs nightly over the full no-dep space (above) and over
  // the dep-carrying 2-access slice in tier-1, and on this 25.4M-test
  // space retaining every class's key string costs ~800 MB of RSS and
  // ~5x keys-stage time for no additional dep-specific coverage.
  const auto by_naive = explore::distinguishability_streamed(
      eng, models, tally, harness, &report);

  // ---- The headline with-dep equivalence, bit for bit. ----
  EXPECT_TRUE(by_naive == by_suite_dep)
      << "naive-only pairs: " << by_naive.pairs_beyond(by_suite_dep).size()
      << ", suite-only pairs: " << by_suite_dep.pairs_beyond(by_naive).size();
  EXPECT_EQ(by_naive.distinguished_pairs(), 4005 - 8);

  // ---- Stream accounting, pinned from the audited reference run. ----
  EXPECT_EQ(report.stream.tests_streamed, 25435926u);
  EXPECT_EQ(static_cast<long long>(report.stream.tests_streamed),
            stream.emitted().tests);
  EXPECT_EQ(report.stream.chunks, (25435926u + 8191u) / 8192u);
  EXPECT_EQ(stream.emitted().programs, 4235364);
  EXPECT_EQ(canonical_program_classes(options), 355482);
  EXPECT_EQ(enumeration::ExhaustiveStream::count_orbits(options).programs,
            355482);
  EXPECT_EQ(report.stream.novel_tests, 2198389u);  // canonical test classes
  EXPECT_EQ(tally.elided_tests(), 23234315u);
  EXPECT_EQ(report.stream.repeat_tests, 23234315u);
  EXPECT_EQ(tally.built_tests() + tally.elided_tests(), 25435926u);
  EXPECT_EQ(tally.built_programs(), 355482u);
  EXPECT_EQ(static_cast<long long>(tally.built_tests()),
            enumeration::ExhaustiveStream::count_orbits(options).tests);
  EXPECT_EQ(report.candidate_tests + report.filtered_tests,
            report.stream.novel_tests);
  EXPECT_EQ(report.candidate_tests, 219517u);  // survive the extremes filter
  EXPECT_GT(report.stream.dedup_rate(), 0.9);
  EXPECT_EQ(report.sweep.checks_run, 219517u * 90u);
  EXPECT_EQ(report.sweep.searches, 2217344u);
}

}  // namespace
}  // namespace mcmc
