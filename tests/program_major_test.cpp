// Differential tests of the program-major pipeline.  The exhaustive
// stream shares one validated program object among all outcomes of a
// program, and three stages build their per-program state once per run
// of consecutive tests holding that object:
//
//   keys      litmus::load_key_facts + canonical_fingerprint_loaded,
//             against canonical_fingerprint(test) per test;
//   verdict   VerdictEngine's one core::Analysis per program run, in
//             the running thread's reused workspace, against
//             core::is_allowed per (model, test) — including a batch
//             whose program-sharing tests are interleaved, where no run
//             spans two tests, and a batch after one whose programs are
//             gone;
//   produce   shared program objects, "x<p>.<o>" names and cursor
//             restores in the middle of a program.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/analysis.h"
#include "core/checker.h"
#include "engine/verdict_engine.h"
#include "enumeration/exhaustive.h"
#include "explore/space.h"
#include "litmus/test.h"
#include "util/hash128.h"

namespace mcmc {
namespace {

enumeration::ExhaustiveOptions slice_options(bool deps) {
  enumeration::ExhaustiveOptions options;
  options.bounds.max_accesses_per_thread = 2;
  options.bounds.deps = deps;
  options.chunk_size = 1024;
  return options;
}

std::vector<core::MemoryModel> ninety_models() {
  std::vector<core::MemoryModel> models;
  for (const auto& c : explore::model_space(true)) {
    models.push_back(c.to_model());
  }
  return models;
}

/// The keys step's loop over one chunk: facts once per run of tests
/// sharing a program object, then one hash per outcome.
std::vector<util::Key128> per_program_fingerprints(
    const std::vector<litmus::LitmusTest>& chunk) {
  litmus::KeyScratch scratch;
  std::vector<util::Key128> out;
  const core::Program* loaded = nullptr;
  for (const auto& test : chunk) {
    if (&test.program() != loaded) {
      litmus::load_key_facts(test.program(), scratch);
      loaded = &test.program();
    }
    out.push_back(
        litmus::canonical_fingerprint_loaded(test.outcome(), scratch));
  }
  return out;
}

/// Streams up to `limit` tests of `options` (all when negative) and
/// counts the tests whose per-program fingerprint differs from the
/// per-test one; returns the number of tests compared.
long long compare_fingerprints(const enumeration::ExhaustiveOptions& options,
                               long long limit, long long& mismatches) {
  enumeration::ExhaustiveStream stream(options);
  litmus::KeyScratch oracle;
  std::vector<litmus::LitmusTest> chunk;
  long long compared = 0;
  mismatches = 0;
  bool more = true;
  while (more && (limit < 0 || compared < limit)) {
    chunk.clear();
    more = stream.next_chunk(chunk);
    const auto fps = per_program_fingerprints(chunk);
    for (std::size_t i = 0; i < chunk.size(); ++i) {
      if (limit >= 0 && compared == limit) break;
      if (!(fps[i] == litmus::canonical_fingerprint(chunk[i], oracle))) {
        ++mismatches;
      }
      ++compared;
    }
  }
  return compared;
}

/// The first test of every canonical class of the 2-access no-dep
/// slice, in stream order (what run_stream hands its verdict batches).
std::vector<litmus::LitmusTest> slice_novel_tests() {
  enumeration::ExhaustiveStream stream(slice_options(false));
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

/// Runs of consecutive tests sharing one program object.
std::size_t program_runs(const std::vector<litmus::LitmusTest>& tests) {
  std::size_t runs = 0;
  const core::Program* last = nullptr;
  for (const auto& test : tests) {
    if (&test.program() != last) ++runs;
    last = &test.program();
  }
  return runs;
}

/// Splits a name "x<p>.<o>" into its indices.
bool parse_name(const std::string& name, long long& program,
                long long& outcome) {
  if (name.size() < 4 || name[0] != 'x') return false;
  const auto dot = name.find('.');
  if (dot == std::string::npos) return false;
  char* end = nullptr;
  program = std::strtoll(name.c_str() + 1, &end, 10);
  if (end != name.c_str() + dot) return false;
  outcome = std::strtoll(name.c_str() + dot + 1, &end, 10);
  return *end == '\0';
}

TEST(ProgramMajor, PerProgramFingerprintsMatchPerTestOnTwoAccessSlices) {
  for (const bool deps : {false, true}) {
    long long mismatches = -1;
    const auto options = slice_options(deps);
    const long long compared = compare_fingerprints(options, -1, mismatches);
    EXPECT_EQ(compared, enumeration::ExhaustiveStream::count(options).tests)
        << "deps=" << deps;
    EXPECT_EQ(mismatches, 0) << "deps=" << deps;
  }
}

TEST(ProgramMajor, PerProgramFingerprintsMatchPerTestOnFullSpacePrefix) {
  long long mismatches = -1;
  const long long compared =
      compare_fingerprints(enumeration::ExhaustiveOptions{}, 200000,
                           mismatches);
  EXPECT_EQ(compared, 200000);
  EXPECT_EQ(mismatches, 0);
}

TEST(ProgramMajor, SharedAnalysesMatchIsAllowedInAnyTestOrder) {
  const auto models = ninety_models();
  const std::vector<litmus::LitmusTest> novel = slice_novel_tests();
  ASSERT_EQ(novel.size(), 1253u);
  const std::size_t runs = program_runs(novel);
  ASSERT_LT(runs, novel.size());  // programs really are shared

  // Interleave the program-sharing tests: round-robin over the program
  // runs, so consecutive tests (almost) never share a program object.
  std::vector<std::vector<std::size_t>> by_run;
  const core::Program* last = nullptr;
  for (std::size_t i = 0; i < novel.size(); ++i) {
    if (&novel[i].program() != last) by_run.emplace_back();
    last = &novel[i].program();
    by_run.back().push_back(i);
  }
  std::vector<std::size_t> order;
  for (std::size_t k = 0; order.size() < novel.size(); ++k) {
    for (const auto& run : by_run) {
      if (k < run.size()) order.push_back(run[k]);
    }
  }
  std::vector<litmus::LitmusTest> interleaved;
  for (const std::size_t i : order) interleaved.push_back(novel[i]);
  ASSERT_GT(program_runs(interleaved), runs);

  // The oracle: core::is_allowed per cell, one private Analysis per test.
  std::vector<std::vector<char>> oracle(novel.size());
  for (std::size_t t = 0; t < novel.size(); ++t) {
    const core::Analysis analysis(novel[t].program());
    for (const auto& model : models) {
      oracle[t].push_back(
          core::is_allowed(analysis, model, novel[t].outcome()) ? 1 : 0);
    }
  }

  for (const bool cache : {false, true}) {
    for (const int threads : {1, 4}) {
      engine::EngineOptions options;
      options.cache_enabled = cache;
      options.num_threads = threads;
      engine::VerdictEngine eng(options);

      const auto in_order = eng.run_matrix(models, novel);
      // Canonically unique tests: every one is evaluated, and the
      // tests of each program run share one Analysis.
      EXPECT_EQ(eng.last_stats().unique_analyses, runs);
      // No verdict outlives a call, so the interleaved tests are all
      // evaluated again, one Analysis per run of the new order.
      const auto shuffled = eng.run_matrix(models, interleaved);
      EXPECT_EQ(eng.last_stats().unique_analyses, program_runs(interleaved));
      for (std::size_t t = 0; t < novel.size(); ++t) {
        for (std::size_t m = 0; m < models.size(); ++m) {
          const bool want = oracle[t][m] != 0;
          ASSERT_EQ(in_order.get(static_cast<int>(m), static_cast<int>(t)),
                    want)
              << novel[t].name() << " model " << m << " cache=" << cache
              << " threads=" << threads;
        }
      }
      for (std::size_t k = 0; k < order.size(); ++k) {
        for (std::size_t m = 0; m < models.size(); ++m) {
          ASSERT_EQ(shuffled.get(static_cast<int>(m), static_cast<int>(k)),
                    oracle[order[k]][m] != 0)
              << interleaved[k].name() << " model " << m
              << " cache=" << cache << " threads=" << threads;
        }
      }
    }
  }
}

TEST(ProgramMajor, StreamTestsOfOneProgramShareOneProgramObject) {
  enumeration::ExhaustiveStream stream(slice_options(true));
  std::vector<litmus::LitmusTest> chunk;
  long long expect_program = 0;
  long long expect_outcome = 0;
  const core::Program* current = nullptr;
  long long tests = 0;
  long long shared_tests = 0;
  bool more = true;
  while (more) {
    // Keep the previous chunk alive while checking this one, so no
    // program address can be recycled under the comparison.
    std::vector<litmus::LitmusTest> next;
    more = stream.next_chunk(next);
    for (const auto& test : next) {
      long long p = -1;
      long long o = -1;
      ASSERT_TRUE(parse_name(test.name(), p, o)) << test.name();
      if (p != expect_program) {
        ASSERT_EQ(p, expect_program + 1) << test.name();
        ASSERT_EQ(o, 0) << test.name();
        EXPECT_NE(&test.program(), current) << test.name();
        expect_program = p;
        expect_outcome = 0;
        current = &test.program();
      } else if (o > 0) {
        EXPECT_EQ(&test.program(), current) << test.name();
        ++shared_tests;
      } else {
        current = &test.program();  // the stream's very first test
      }
      ASSERT_EQ(o, expect_outcome) << test.name();
      ++expect_outcome;
      EXPECT_EQ(test.name(), "x" + std::to_string(p) + "." +
                                 std::to_string(o));
      EXPECT_TRUE(test.description().empty());
      ++tests;
    }
    chunk = std::move(next);
  }
  EXPECT_EQ(tests, stream.emitted().tests);
  EXPECT_EQ(expect_program + 1, stream.emitted().programs);
  EXPECT_GT(shared_tests, tests / 2);
}

TEST(ProgramMajor, RestoredMidProgramStreamSharesProgramAndMatches) {
  auto options = slice_options(true);
  options.chunk_size = 7;
  enumeration::ExhaustiveStream original(options);
  std::vector<litmus::LitmusTest> chunk;
  // Advance until a chunk ends in the middle of a program: the next
  // two tests continue the last test's program.
  std::vector<std::uint64_t> cursor;
  std::vector<litmus::LitmusTest> rest;
  for (int guard = 0; guard < 10000 && cursor.empty(); ++guard) {
    chunk.clear();
    ASSERT_TRUE(original.next_chunk(chunk));
    std::vector<std::uint64_t> snapshot;
    ASSERT_TRUE(original.snapshot_cursor(snapshot));
    std::vector<litmus::LitmusTest> peek;
    ASSERT_TRUE(original.next_chunk(peek));
    if (guard > 3 && peek.size() > 1 &&
        &peek[0].program() == &chunk.back().program() &&
        &peek[1].program() == &chunk.back().program()) {
      cursor = snapshot;
      rest = std::move(peek);
    }
  }
  ASSERT_FALSE(cursor.empty());
  engine::for_each_test(original, [&](litmus::LitmusTest& test) {
    rest.push_back(std::move(test));
  });

  enumeration::ExhaustiveStream restored(options);
  ASSERT_TRUE(restored.restore_cursor(cursor));
  std::vector<litmus::LitmusTest> replay;
  engine::for_each_test(restored, [&](litmus::LitmusTest& test) {
    replay.push_back(std::move(test));
  });
  ASSERT_EQ(replay.size(), rest.size());
  long long p = -1;
  long long o = -1;
  ASSERT_TRUE(parse_name(replay.front().name(), p, o));
  EXPECT_GT(o, 0);  // the restore landed mid-program

  litmus::KeyScratch scratch;
  const auto replay_fps = per_program_fingerprints(replay);
  for (std::size_t i = 0; i < replay.size(); ++i) {
    ASSERT_EQ(replay[i].name(), rest[i].name());
    EXPECT_EQ(replay[i].outcome(), rest[i].outcome());
    EXPECT_TRUE(replay_fps[i] ==
                litmus::canonical_fingerprint(rest[i], scratch))
        << replay[i].name();
  }
  // The re-derived program is one shared object for the rest of its
  // outcomes, exactly as in an unrestored stream.
  std::size_t same = 1;
  while (same < replay.size() &&
         &replay[same].program() == &replay.front().program()) {
    ++same;
  }
  std::size_t same_original = 1;
  while (same_original < rest.size() &&
         &rest[same_original].program() == &rest.front().program()) {
    ++same_original;
  }
  EXPECT_GT(same, 1u);
  EXPECT_EQ(same, same_original);
  EXPECT_TRUE(replay.front().program() == rest.front().program());
}

TEST(ProgramMajor, PublicConstructorStillValidatesAndSiblingsShare) {
  // r0 defined twice: Program::validate rejects it.
  core::Program invalid({{core::make_read(0, 0), core::make_read(1, 0)},
                         {core::make_write(0, 1)}});
  EXPECT_THROW(litmus::LitmusTest("bad", invalid, core::Outcome{}),
               std::invalid_argument);

  const litmus::LitmusTest base(
      "SB", core::Program({{core::make_write(0, 1), core::make_read(1, 0)},
                           {core::make_write(1, 1), core::make_read(0, 1)}}),
      core::Outcome({{0, 0}, {1, 0}}), "store buffering");
  const litmus::LitmusTest sibling =
      base.with_outcome("SB.1", core::Outcome({{0, 1}}));
  EXPECT_EQ(&sibling.program(), &base.program());
  EXPECT_EQ(sibling.name(), "SB.1");
  EXPECT_TRUE(sibling.description().empty());
  EXPECT_EQ(sibling.outcome(), core::Outcome({{0, 1}}));
  const litmus::LitmusTest copy = base;  // copies share, too
  EXPECT_EQ(&copy.program(), &base.program());
  EXPECT_EQ(base.shared_program().use_count(), 3);
}

/// Up to `count` tests of the 2-access slice (with deps or not) whose
/// programs have `min_events` to `max_events` events, in stream order.
std::vector<litmus::LitmusTest> slice_tests(bool deps, int min_events,
                                            int max_events,
                                            std::size_t count) {
  enumeration::ExhaustiveStream stream(slice_options(deps));
  std::vector<litmus::LitmusTest> out;
  engine::for_each_test(stream, [&](litmus::LitmusTest& test) {
    const int events = test.program().size();
    if (out.size() < count && events >= min_events && events <= max_events) {
      out.push_back(std::move(test));
    }
  });
  return out;
}

/// Expects `verdicts`, tests x models as run_rows returns them, to be
/// core::is_allowed's, cell by cell.
void expect_oracle_verdicts(const std::vector<core::MemoryModel>& models,
                            const std::vector<litmus::LitmusTest>& tests,
                            const engine::BitMatrix& verdicts, int threads) {
  for (std::size_t t = 0; t < tests.size(); ++t) {
    const core::Analysis own(tests[t].program());
    for (std::size_t m = 0; m < models.size(); ++m) {
      ASSERT_EQ(verdicts.get(static_cast<int>(t), static_cast<int>(m)),
                core::is_allowed(own, models[m], tests[t].outcome()))
          << tests[t].name() << " under " << models[m].name() << " at "
          << threads << " threads";
    }
  }
}

TEST(ProgramMajor, WorkspaceKeepsNoProgramPastItsRun) {
  // Each evaluation thread refills one workspace (Analysis, prepared
  // test, mask classes) per program run and drops the run's program at
  // its end.  A chunk of larger with-dep programs is decided and then
  // destroyed, programs and all, and a chunk of smaller programs follows
  // on the same engine and threads: a workspace that kept an event, a
  // row or a pointer of the first chunk would misjudge the second or,
  // under ASan, read freed memory.
  const auto models = ninety_models();
  const engine::RowModels rows(models, nullptr);
  for (const int threads : {1, 4}) {
    engine::EngineOptions options;
    options.num_threads = threads;
    engine::VerdictEngine eng(options);
    {
      const auto large = slice_tests(true, 6, 6, 96);
      ASSERT_EQ(large.size(), 96u);
      expect_oracle_verdicts(models, large, eng.run_rows(rows, large, {}),
                             threads);
    }
    const auto small = slice_tests(false, 1, 3, 96);
    ASSERT_EQ(small.size(), 96u);
    expect_oracle_verdicts(models, small, eng.run_rows(rows, small, {}),
                           threads);
    EXPECT_GT(eng.total_stats().unique_analyses, 2u);
  }
}

}  // namespace
}  // namespace mcmc
