// Tier-1 slice of the empirical Theorem-1 harness: a bounded 2-access
// sub-space of the naive enumeration is streamed through the
// VerdictEngine and its model-pair distinguishability matrix is checked
// against the Corollary-1 suite's.  A strict sub-space cannot reach the
// suite's full distinguishing power, so the tier-1 assertion is
// containment; the full-space bit-for-bit equality lives in
// exhaustive_full_test.cpp under the ctest label `slow`.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "engine/test_stream.h"
#include "engine/verdict_engine.h"
#include "enumeration/exhaustive.h"
#include "enumeration/shapes.h"
#include "enumeration/suite.h"
#include "explore/distinguish.h"
#include "explore/space.h"
#include "models/special_fence.h"
#include "models/zoo.h"
#include "program_classes.h"
#include "util/hash128.h"

namespace mcmc {
namespace {

enumeration::ExhaustiveOptions slice_options() {
  enumeration::ExhaustiveOptions options;
  options.bounds.max_accesses_per_thread = 2;
  options.chunk_size = 1024;
  return options;
}

enumeration::ExhaustiveOptions dep_slice_options() {
  enumeration::ExhaustiveOptions options = slice_options();
  options.bounds.deps = true;
  return options;
}

std::vector<core::MemoryModel> ninety_models() {
  std::vector<core::MemoryModel> models;
  for (const auto& c : explore::model_space(true)) {
    models.push_back(c.to_model());
  }
  return models;
}

TEST(ExhaustiveStream, MaterializationMatchesCountingWalk) {
  const auto options = slice_options();
  const auto counted = enumeration::ExhaustiveStream::count(options);
  enumeration::ExhaustiveStream stream(options);
  std::vector<litmus::LitmusTest> chunk;
  long long chunks = 0;
  bool more = true;
  while (more) {
    chunk.clear();
    more = stream.next_chunk(chunk);
    EXPECT_LE(chunk.size(),
              static_cast<std::size_t>(options.chunk_size));
    for (const auto& test : chunk) {
      EXPECT_NO_THROW(test.program().validate());
      EXPECT_EQ(test.program().num_threads(), 2);
    }
    ++chunks;
  }
  EXPECT_TRUE(stream.done());
  EXPECT_EQ(stream.emitted().programs, counted.programs);
  EXPECT_EQ(stream.emitted().tests, counted.tests);
  // 78 shapes of length <= 2 -> 6084 programs; outcome products on top.
  EXPECT_EQ(counted.programs, 78LL * 78LL);
  EXPECT_EQ(counted.tests, 13086);
  EXPECT_GE(chunks, counted.tests / options.chunk_size);
}

TEST(ExhaustiveStream, FullSpaceCountsMatchNaiveCounts) {
  // The counting walk and count_naive share the generator core; the
  // full-space totals are the paper's "approximately a million tests".
  const enumeration::ExhaustiveCounts counts =
      enumeration::ExhaustiveStream::count(enumeration::ExhaustiveOptions{});
  const auto naive = enumeration::count_naive(enumeration::NaiveOptions{});
  EXPECT_EQ(counts.programs, naive.programs);
  EXPECT_EQ(counts.tests, naive.tests);
  EXPECT_EQ(counts.programs, 887364);
  EXPECT_EQ(counts.tests, 5160270);
  // The CAV'10-style baseline of Section 3.4: orbit-least communicating
  // programs and their outcome tests.
  EXPECT_EQ(naive.reduced_programs, 64329);
  EXPECT_EQ(naive.reduced_tests, 417544);
}

TEST(ExhaustiveStream, DepSliceMaterializationMatchesCountingWalk) {
  // The dependency-extended 2-access sub-space: 114 shapes (78 no-dep
  // plus 36 carrying a data/ctrl dep after a leading read).
  const auto options = dep_slice_options();
  const auto counted = enumeration::ExhaustiveStream::count(options);
  EXPECT_EQ(counted.programs, 114LL * 114LL);
  EXPECT_EQ(counted.tests, 28470);

  enumeration::ExhaustiveStream stream(options);
  std::vector<litmus::LitmusTest> chunk;
  bool more = true;
  while (more) {
    chunk.clear();
    more = stream.next_chunk(chunk);
    for (const auto& test : chunk) {
      EXPECT_NO_THROW(test.program().validate());
      EXPECT_EQ(test.program().num_threads(), 2);
    }
  }
  EXPECT_TRUE(stream.done());
  EXPECT_EQ(stream.emitted().programs, counted.programs);
  EXPECT_EQ(stream.emitted().tests, counted.tests);
}

TEST(ExhaustiveStream, DepFullSpaceCountsMatchNaiveCounts) {
  // The with-dep Theorem-1 space: ~25.4M tests, a ~5x blow-up over the
  // no-dep 5,160,270 (streamed end to end in the nightly slow suite).
  enumeration::ExhaustiveOptions options;
  options.bounds.deps = true;
  const auto counts = enumeration::ExhaustiveStream::count(options);
  enumeration::NaiveOptions naive_bounds;
  naive_bounds.deps = true;
  const auto naive = enumeration::count_naive(naive_bounds);
  EXPECT_EQ(counts.programs, naive.programs);
  EXPECT_EQ(counts.tests, naive.tests);
  EXPECT_EQ(counts.programs, 4235364);
  EXPECT_EQ(counts.tests, 25435926);
  EXPECT_EQ(naive.reduced_programs, 286857);
  EXPECT_EQ(naive.reduced_tests, 2036323);
}

TEST(ExhaustiveStream, CursorIsRejectedAcrossDepBoundaryChanges) {
  // A checkpoint cursor saved against one enumeration space must never
  // be adopted by a stream over a different one: the same (i, j,
  // outcome index) coordinates name a different program there, so a resume
  // would silently skip part of the space.  The cursor carries an
  // options digest; restore must fail cleanly in both directions and
  // leave the stream in a usable from-scratch state.
  enumeration::ExhaustiveStream nodep(slice_options());
  enumeration::ExhaustiveStream dep(dep_slice_options());
  std::vector<litmus::LitmusTest> chunk;
  (void)nodep.next_chunk(chunk);
  chunk.clear();
  (void)dep.next_chunk(chunk);

  std::vector<std::uint64_t> nodep_cursor;
  std::vector<std::uint64_t> dep_cursor;
  ASSERT_TRUE(nodep.snapshot_cursor(nodep_cursor));
  ASSERT_TRUE(dep.snapshot_cursor(dep_cursor));

  enumeration::ExhaustiveStream dep_restored(dep_slice_options());
  EXPECT_FALSE(dep_restored.restore_cursor(nodep_cursor));
  enumeration::ExhaustiveStream nodep_restored(slice_options());
  EXPECT_FALSE(nodep_restored.restore_cursor(dep_cursor));
  // Matching spaces still round-trip.
  EXPECT_TRUE(dep_restored.restore_cursor(dep_cursor));
  EXPECT_TRUE(nodep_restored.restore_cursor(nodep_cursor));

  // The rejected stream is reset, not wedged: draining it yields the
  // full slice.
  enumeration::ExhaustiveStream fresh(dep_slice_options());
  EXPECT_FALSE(fresh.restore_cursor(nodep_cursor));
  chunk.clear();
  while (fresh.next_chunk(chunk)) chunk.clear();
  EXPECT_EQ(fresh.emitted().tests, 28470);
}

TEST(ExhaustiveStream, CursorOutcomeIndexMustLieInsideTheLiveProgram) {
  // A cursor that lands inside a program carries the outcome index
  // within it (word 8; words 5 and 6 are the program's shape pair, word
  // 2 bit 1 says it has outcomes left), and the restore decodes the
  // index into the program's odometer: the last outcome resumes on that
  // outcome's test, one past it is rejected.
  enumeration::ExhaustiveOptions options = dep_slice_options();
  options.chunk_size = 1;
  enumeration::ExhaustiveStream stream(options);
  std::vector<litmus::LitmusTest> chunk;
  std::vector<std::uint64_t> cursor;
  do {
    chunk.clear();
    ASSERT_TRUE(stream.next_chunk(chunk));
    ASSERT_TRUE(stream.snapshot_cursor(cursor));
  } while ((cursor[2] & 2) == 0);
  const auto all = enumeration::shapes::all_thread_shapes(options.bounds);
  enumeration::shapes::WriteCounts writes;
  const auto outcomes =
      static_cast<std::uint64_t>(enumeration::shapes::outcome_count(
          all[cursor[5]], all[cursor[6]], writes));
  ASSERT_GT(outcomes, 1u);

  std::vector<std::uint64_t> last = cursor;
  last[8] = outcomes - 1;
  enumeration::ExhaustiveStream resumed(options);
  ASSERT_TRUE(resumed.restore_cursor(last));
  std::vector<litmus::LitmusTest> resumed_chunk;
  ASSERT_TRUE(resumed.next_chunk(resumed_chunk));
  const std::string name = "x" + std::to_string(cursor[7]) + "." +
                           std::to_string(outcomes - 1);
  do {
    chunk.clear();
    ASSERT_TRUE(stream.next_chunk(chunk));
  } while (chunk.front().name() != name);
  EXPECT_EQ(resumed_chunk.front().to_string(), chunk.front().to_string());

  std::vector<std::uint64_t> past = cursor;
  past[8] = outcomes;
  enumeration::ExhaustiveStream rejected(options);
  EXPECT_FALSE(rejected.restore_cursor(past));
  // Reset, not wedged: the next test is the space's first.
  chunk.clear();
  ASSERT_TRUE(rejected.next_chunk(chunk));
  EXPECT_EQ(chunk.front().name(), "x0.0");
}

TEST(ExhaustiveStream, ProgramClassesCountedFromTheSpaceMatchTheStream) {
  // canonical_program_classes walks the shape pairs without streaming;
  // it must count exactly the distinct empty-outcome fingerprints of
  // the programs a drained stream emits (each program is one shared
  // object, so a new object marks the next program; holding the last
  // one keeps its address from being reused by the next).  The orbits
  // of shape pairs, the programs an opted-in stream builds, are as
  // many.
  struct Case {
    enumeration::ExhaustiveOptions options;
    long long expected;  // pinned without the filter; -1 = not pinned
  };
  std::vector<Case> cases;
  for (const bool deps : {false, true}) {
    for (const bool communicating : {false, true}) {
      Case c{deps ? dep_slice_options() : slice_options(), -1};
      c.options.communicating_only = communicating;
      if (!communicating) c.expected = deps ? 1170 : 558;
      cases.push_back(c);
    }
  }
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string(c.options.bounds.deps ? "deps" : "no deps") +
                 (c.options.communicating_only ? ", communicating" : ""));
    enumeration::ExhaustiveStream stream(c.options);
    std::unordered_set<util::Key128, util::Key128Hash> classes;
    litmus::KeyScratch scratch;
    std::shared_ptr<const core::Program> last;
    long long programs = 0;
    std::vector<litmus::LitmusTest> chunk;
    bool more = true;
    while (more) {
      chunk.clear();
      more = stream.next_chunk(chunk);
      for (const auto& test : chunk) {
        if (test.shared_program() == last) continue;
        last = test.shared_program();
        ++programs;
        classes.insert(litmus::canonical_fingerprint(
            test.program(), core::Outcome{}, scratch));
      }
    }
    EXPECT_EQ(programs, stream.emitted().programs);
    const long long counted = canonical_program_classes(c.options);
    EXPECT_EQ(counted, static_cast<long long>(classes.size()));
    EXPECT_EQ(enumeration::ExhaustiveStream::count_orbits(c.options).programs,
              counted);
    EXPECT_LT(counted, programs);
    if (c.expected >= 0) {
      EXPECT_EQ(counted, c.expected);
    }
  }
}

TEST(RunStream, ChunkAccountingAndCrossChunkDedup) {
  const auto options = slice_options();
  enumeration::ExhaustiveStream stream(options);
  engine::VerdictEngine eng;
  const std::vector<core::MemoryModel> models = {
      explore::ModelChoices{4, 4, 4, 4}.to_model(),
      explore::ModelChoices{1, 0, 1, 0}.to_model()};

  std::size_t chunk_streamed = 0;
  std::size_t chunk_novel = 0;
  std::size_t delivered_tests = 0;
  const auto stats = eng.run_stream(
      models, stream,
      [&](const std::vector<litmus::LitmusTest>& novel,
          const std::vector<util::Key128>&, const engine::BitMatrix& verdicts,
          const engine::StreamChunkStats& cs) {
        EXPECT_EQ(cs.streamed, cs.novel + cs.duplicates);
        EXPECT_EQ(novel.size(), cs.novel);
        EXPECT_EQ(verdicts.rows(), static_cast<int>(novel.size()));
        EXPECT_EQ(verdicts.cols(), 2);
        chunk_streamed += cs.streamed;
        chunk_novel += cs.novel;
        delivered_tests += novel.size();
      });

  EXPECT_EQ(stats.tests_streamed, chunk_streamed);
  EXPECT_EQ(stats.novel_tests, chunk_novel);
  EXPECT_EQ(stats.tests_streamed,
            static_cast<std::size_t>(stream.emitted().tests));
  EXPECT_EQ(stats.novel_tests + stats.duplicate_tests, stats.tests_streamed);
  EXPECT_EQ(delivered_tests, stats.novel_tests);
  // The slice is symmetry-rich: the canonical filter must absorb most
  // of it (measured: 1253 of 13086 survive).
  EXPECT_GT(stats.dedup_rate(), 0.85);
  EXPECT_GT(stats.novel_tests, 1000u);
}

TEST(RunStream, StreamedVerdictsMatchMaterializedBatch) {
  // One suite corpus through VectorSource chunks vs one run_matrix call.
  const auto suite = enumeration::corollary1_suite(true);
  const auto models = ninety_models();

  // The batch decides every cell on its own (the cache off), sharing no
  // row code with the stream's run_rows.
  engine::EngineOptions cellwise;
  cellwise.cache_enabled = false;
  engine::VerdictEngine eng_batch(cellwise);
  const auto batch = eng_batch.run_matrix(models, suite);

  engine::VectorSource source(suite, 17);
  engine::VerdictEngine eng_stream;
  std::vector<std::pair<std::string, std::vector<bool>>> streamed;
  (void)eng_stream.run_stream(
      models, source,
      [&](const std::vector<litmus::LitmusTest>& novel,
          const std::vector<util::Key128>&, const engine::BitMatrix& verdicts,
          const engine::StreamChunkStats&) {
        for (std::size_t i = 0; i < novel.size(); ++i) {
          std::vector<bool> column;
          for (int m = 0; m < verdicts.cols(); ++m) {
            column.push_back(verdicts.get(static_cast<int>(i), m));
          }
          streamed.emplace_back(novel[i].name(), std::move(column));
        }
      });

  // The suite is already symmetry-reduced: nothing deduplicates, so
  // every suite test arrives with its batch verdict column.
  ASSERT_EQ(streamed.size(), suite.size());
  for (std::size_t t = 0; t < suite.size(); ++t) {
    EXPECT_EQ(streamed[t].first, suite[t].name());
    for (std::size_t m = 0; m < models.size(); ++m) {
      EXPECT_EQ(streamed[t].second[m],
                batch.get(static_cast<int>(m), static_cast<int>(t)))
          << suite[t].name() << " under model " << m;
    }
  }
}

TEST(TheoremSlice, DistinguishabilityContainedInSuiteMatrices) {
  const auto models = ninety_models();
  engine::VerdictEngine eng;
  const auto by_suite_nodep = explore::distinguishability(
      eng, models, enumeration::corollary1_suite(false));
  const auto by_suite_dep = explore::distinguishability(
      eng, models, enumeration::corollary1_suite(true));

  enumeration::ExhaustiveStream stream(slice_options());
  explore::TheoremHarnessReport report;
  const auto by_slice = explore::distinguishability_streamed(
      eng, models, stream, explore::TheoremHarnessOptions{}, &report);

  // Theorem 1: anything a bounded test separates, the suite separates.
  EXPECT_TRUE(by_slice.subset_of(by_suite_nodep));
  EXPECT_TRUE(by_slice.subset_of(by_suite_dep));
  EXPECT_TRUE(by_slice.pairs_beyond(by_suite_nodep).empty());
  // The 2-access slice already separates most pairs (measured: 3825 of
  // the suite's 3843).
  EXPECT_GT(by_slice.distinguished_pairs(), 3700);
  EXPECT_LT(by_slice.distinguished_pairs(),
            by_suite_nodep.distinguished_pairs());
  // With-dep suite: every pair except the paper's eight equivalent ones.
  EXPECT_EQ(by_suite_dep.distinguished_pairs(), 4005 - 8);
  // Harness accounting.
  EXPECT_EQ(report.stream.tests_streamed, 13086u);
  EXPECT_GT(report.candidate_tests, 0u);
  EXPECT_EQ(report.candidate_tests + report.filtered_tests,
            report.stream.novel_tests);
}

TEST(TheoremSlice, DepSliceDistinguishabilityContainedInDepSuite) {
  // The dependency-extended 2-access slice: still Theorem-1 bounded, so
  // its matrix must be contained in the with-dep suite's; and since its
  // space strictly includes the no-dep slice's, it separates at least
  // as many pairs (measured: 3,825 from the no-dep slice).
  const auto models = ninety_models();
  engine::VerdictEngine eng;
  const auto by_suite_dep = explore::distinguishability(
      eng, models, enumeration::corollary1_suite(true));

  enumeration::ExhaustiveStream stream(dep_slice_options());
  explore::TheoremHarnessReport report;
  const auto by_slice = explore::distinguishability_streamed(
      eng, models, stream, explore::TheoremHarnessOptions{}, &report);

  EXPECT_TRUE(by_slice.subset_of(by_suite_dep));
  EXPECT_TRUE(by_slice.pairs_beyond(by_suite_dep).empty());
  EXPECT_GE(by_slice.distinguished_pairs(), 3825);
  EXPECT_LE(by_slice.distinguished_pairs(),
            by_suite_dep.distinguished_pairs());
  EXPECT_EQ(report.stream.tests_streamed, 28470u);
  EXPECT_EQ(report.candidate_tests + report.filtered_tests,
            report.stream.novel_tests);
}

TEST(TheoremSlice, ExtremesPrefilterIsLossless) {
  // The monotone-class prefilter must not change the matrix: run the
  // same slice with and without it, and against the materialized-corpus
  // builder.
  const auto models = ninety_models();
  engine::VerdictEngine eng;

  enumeration::ExhaustiveStream filtered_stream(slice_options());
  explore::TheoremHarnessOptions with_filter;
  const auto filtered = explore::distinguishability_streamed(
      eng, models, filtered_stream, with_filter);

  enumeration::ExhaustiveStream direct_stream(slice_options());
  explore::TheoremHarnessOptions without_filter;
  without_filter.filter_extremes = false;
  const auto direct = explore::distinguishability_streamed(
      eng, models, direct_stream, without_filter);

  EXPECT_TRUE(filtered == direct);

  // And the fully materialized corpus agrees.
  enumeration::ExhaustiveStream all(slice_options());
  std::vector<litmus::LitmusTest> corpus;
  engine::for_each_test(
      all, [&](litmus::LitmusTest& t) { corpus.push_back(std::move(t)); });
  engine::VerdictEngine eng2;
  EXPECT_TRUE(explore::distinguishability(eng2, models, corpus) == filtered);
}

TEST(TheoremSlice, FilteredHarnessStaysSoundForCustomPredicateModels) {
  // A custom-predicate model may judge canonically-equal tests
  // differently, so the filtered harness must fall back to structural
  // stream dedup when such a model is swept — filtered and unfiltered
  // paths must still agree.
  std::vector<core::MemoryModel> models = {models::special_fence_chain(1),
                                           models::sc(), models::tso(),
                                           models::pso()};
  ASSERT_TRUE(models[0].formula().has_custom());

  enumeration::ExhaustiveOptions tiny = slice_options();
  tiny.bounds.num_locations = 2;  // keep the custom sweep small
  engine::VerdictEngine eng;

  enumeration::ExhaustiveStream filtered_stream(tiny);
  const auto filtered = explore::distinguishability_streamed(
      eng, models, filtered_stream, explore::TheoremHarnessOptions{});

  enumeration::ExhaustiveStream direct_stream(tiny);
  explore::TheoremHarnessOptions no_filter;
  no_filter.filter_extremes = false;
  const auto direct = explore::distinguishability_streamed(
      eng, models, direct_stream, no_filter);

  EXPECT_TRUE(filtered == direct);
}

}  // namespace
}  // namespace mcmc
