// The stream fingerprint audit (engine::AuditedSource): the two-way
// fingerprint/key check fails on a fake collision and on a fake split,
// a failing audit surfaces from run_stream through the producer thread,
// and a passing one forwards cursors and counts the stream's classes.
#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "engine/audited_source.h"
#include "engine/test_stream.h"
#include "engine/verdict_engine.h"
#include "enumeration/suite.h"
#include "models/zoo.h"

namespace mcmc {
namespace {

/// Runs `fn` and returns the std::logic_error message it throws ("" if
/// it throws none).
template <typename Fn>
std::string logic_error_of(Fn&& fn) {
  try {
    fn();
  } catch (const std::logic_error& e) {
    return e.what();
  }
  return "";
}

TEST(AuditedSource, ObserveRejectsFingerprintCollision) {
  engine::VectorSource empty({}, 1);
  engine::AuditedSource audit(empty);
  audit.observe({1, 2}, "key-a");
  audit.observe({1, 2}, "key-a");  // the same class again is fine
  const std::string error =
      logic_error_of([&] { audit.observe({1, 2}, "key-b"); });
  EXPECT_NE(error.find("128-bit fingerprint collision"), std::string::npos)
      << error;
}

TEST(AuditedSource, ObserveRejectsKeySplit) {
  engine::VectorSource empty({}, 1);
  engine::AuditedSource audit(empty);
  audit.observe({1, 2}, "key-a");
  const std::string error =
      logic_error_of([&] { audit.observe({3, 4}, "key-a"); });
  EXPECT_NE(error.find("canonical fingerprint split a key class"),
            std::string::npos)
      << error;
}

TEST(AuditedSource, ForwardsCursorAndCountsClasses) {
  // Two copies of the suite, streamed from the middle of the first:
  // every class arrives at least once, half of them twice.
  const auto suite = enumeration::corollary1_suite(false);
  std::set<std::string> keys;
  for (const auto& test : suite) keys.insert(litmus::canonical_key(test));
  const std::size_t n = suite.size();
  auto corpus = suite;
  corpus.insert(corpus.end(), suite.begin(), suite.end());

  engine::VectorSource source(corpus, 10);
  engine::AuditedSource audited(source);
  ASSERT_TRUE(audited.restore_cursor({n / 2}));
  std::size_t streamed = 0;
  engine::for_each_test(audited,
                        [&](const litmus::LitmusTest&) { ++streamed; });
  EXPECT_EQ(streamed, 2 * n - n / 2);
  EXPECT_EQ(audited.classes(), keys.size());
  std::vector<std::uint64_t> cursor;
  ASSERT_TRUE(audited.snapshot_cursor(cursor));
  EXPECT_EQ(cursor, std::vector<std::uint64_t>{2 * n});
}

TEST(AuditedSource, AuditFailureSurfacesFromRunStream) {
  // Seed the audit with a fake key for the last suite test's
  // fingerprint: when the stream reaches it, the producer thread finds
  // a collision, and run_stream rethrows it after the earlier chunks.
  const auto suite = enumeration::corollary1_suite(false);
  litmus::KeyScratch scratch;
  const util::Key128 last =
      litmus::canonical_fingerprint(suite.back(), scratch);
  for (const int threads : {1, 4}) {
    engine::VectorSource source(suite, 8);
    engine::AuditedSource audited(source);
    audited.observe(last, "not the key of " + suite.back().name());

    engine::EngineOptions options;
    options.num_threads = threads;
    engine::VerdictEngine eng(options);
    engine::StreamOptions stream_options;
    stream_options.overlap_production = true;
    std::size_t delivered_chunks = 0;
    const std::string error = logic_error_of([&] {
      (void)eng.run_stream(
          {models::sc()}, audited,
          [&](const std::vector<litmus::LitmusTest>&,
              const std::vector<util::Key128>&, const engine::BitMatrix&,
              const engine::StreamChunkStats&) { ++delivered_chunks; },
          stream_options);
    });
    EXPECT_NE(error.find("128-bit fingerprint collision"), std::string::npos)
        << "threads=" << threads << ": " << error;
    EXPECT_GT(delivered_chunks, 0u) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace mcmc
