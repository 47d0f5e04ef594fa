// The stream fingerprint audit (engine::AuditedSource): the two-way
// fingerprint/key check fails on a fake collision and on a fake split,
// an elided novel test, a chunk that does not span its full-build
// twin's and a class that spans two program runs of a source that
// accepted the opt-in fail too, a failing audit surfaces from
// run_stream through the producer thread, a passing one forwards
// cursors and counts the stream's classes, and only an audit with a
// twin forwards the opt-in to elide repeats.
#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "engine/audited_source.h"
#include "engine/test_stream.h"
#include "engine/verdict_engine.h"
#include "enumeration/exhaustive.h"
#include "enumeration/suite.h"
#include "litmus/catalog.h"
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
  engine::AuditedSource audit(empty, 1);
  audit.observe({1, 2}, "key-a");
  audit.observe({1, 2}, "key-a");  // the same class again is fine
  const std::string error =
      logic_error_of([&] { audit.observe({1, 2}, "key-b"); });
  EXPECT_NE(error.find("128-bit fingerprint collision"), std::string::npos)
      << error;
}

TEST(AuditedSource, ObserveRejectsKeySplit) {
  engine::VectorSource empty({}, 1);
  engine::AuditedSource audit(empty, 1);
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
  engine::AuditedSource audited(source, 4);
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
    engine::AuditedSource audited(source, threads);
    audited.observe(last, "not the key of " + suite.back().name());

    engine::EngineOptions options;
    options.num_threads = threads;
    engine::VerdictEngine eng(options);
    std::size_t delivered_chunks = 0;
    const std::string error = logic_error_of([&] {
      (void)eng.run_stream(
          {models::sc()}, audited,
          [&](const std::vector<litmus::LitmusTest>&,
              const std::vector<util::Key128>&, const engine::BitMatrix&,
              const engine::StreamChunkStats&) { ++delivered_chunks; });
    });
    EXPECT_NE(error.find("128-bit fingerprint collision"), std::string::npos)
        << "threads=" << threads << ": " << error;
    EXPECT_GT(delivered_chunks, 0u) << "threads=" << threads;
  }
}

/// A suite stream that, once opted in, marks its first test, a novel
/// one, as a repeat by eliding it; with `uncounted` it drops that test
/// without counting it as elided.
class FirstTestElidedSource final : public engine::TestSource {
 public:
  explicit FirstTestElidedSource(std::size_t chunk, bool uncounted = false)
      : inner_(enumeration::corollary1_suite(false), chunk),
        uncounted_(uncounted) {}

  bool next_chunk(std::vector<litmus::LitmusTest>& out) override {
    const std::size_t first = out.size();
    const bool more = inner_.next_chunk(out);
    elided_ = 0;
    if (elide_ && delivered_ == 0 && out.size() > first) {
      out.erase(out.begin() + static_cast<std::ptrdiff_t>(first));
      elided_ = uncounted_ ? 0 : 1;
      delivered_ = 1;
    }
    return more;
  }
  bool elide_repeats() override {
    elide_ = true;
    return true;
  }
  [[nodiscard]] std::size_t elided() const override { return elided_; }

 private:
  engine::VectorSource inner_;
  const bool uncounted_;
  bool elide_ = false;
  std::size_t elided_ = 0;
  std::size_t delivered_ = 0;
};

/// The audit's full-build twin of FirstTestElidedSource.
engine::VectorSource suite_twin(std::size_t chunk_size) {
  return engine::VectorSource(enumeration::corollary1_suite(false), chunk_size);
}

TEST(AuditedSource, RejectsARepeatMarkOnANovelTest) {
  const std::string expected = "an elided test whose class did not occur";
  {
    FirstTestElidedSource source(8);
    engine::VectorSource twin = suite_twin(8);
    engine::AuditedSource audited(source, 4, &twin);
    ASSERT_TRUE(audited.elide_repeats());
    const std::string error = logic_error_of([&] {
      engine::for_each_test(audited, [](const litmus::LitmusTest&) {});
    });
    EXPECT_NE(error.find(expected), std::string::npos) << error;
  }
  // Through run_stream the audit runs on the producer thread, and
  // run_stream rethrows its failure before any chunk is delivered.
  for (const int threads : {1, 4}) {
    FirstTestElidedSource source(8);
    engine::VectorSource twin = suite_twin(8);
    engine::AuditedSource audited(source, threads, &twin);
    engine::EngineOptions options;
    options.num_threads = threads;
    engine::VerdictEngine eng(options);
    std::size_t delivered_chunks = 0;
    const std::string error = logic_error_of([&] {
      (void)eng.run_stream(
          {models::sc()}, audited,
          [&](const std::vector<litmus::LitmusTest>&,
              const std::vector<util::Key128>&, const engine::BitMatrix&,
              const engine::StreamChunkStats&) { ++delivered_chunks; });
    });
    EXPECT_NE(error.find(expected), std::string::npos)
        << "threads=" << threads << ": " << error;
    EXPECT_EQ(delivered_chunks, 0u) << "threads=" << threads;
  }
}

TEST(AuditedSource, RejectsAChunkThatDoesNotSpanItsTwin) {
  FirstTestElidedSource source(8, /*uncounted=*/true);
  engine::VectorSource twin = suite_twin(8);
  engine::AuditedSource audited(source, 1, &twin);
  ASSERT_TRUE(audited.elide_repeats());
  const std::string error = logic_error_of([&] {
    engine::for_each_test(audited, [](const litmus::LitmusTest&) {});
  });
  EXPECT_NE(error.find("does not span its full-build twin's"),
            std::string::npos)
      << error;
}

/// Accepts the opt-in, and with it certifies its program runs, but
/// elides nothing: it delivers `corpus` as it is.
class CertifyingSource final : public engine::TestSource {
 public:
  explicit CertifyingSource(std::vector<litmus::LitmusTest> corpus)
      : inner_(std::move(corpus), 1) {}

  bool next_chunk(std::vector<litmus::LitmusTest>& out) override {
    return inner_.next_chunk(out);
  }
  bool elide_repeats() override { return true; }

 private:
  engine::VectorSource inner_;
};

TEST(AuditedSource, RejectsAClassThatSpansTwoProgramRuns) {
  // Two separately built SB tests are one class in two program objects,
  // so two program runs; copies of one test share their program object,
  // so they are one run, and a class may recur inside it.
  const std::vector<litmus::LitmusTest> two_runs = {
      litmus::store_buffering(), litmus::store_buffering()};
  const litmus::LitmusTest sb = litmus::store_buffering();
  const std::vector<litmus::LitmusTest> one_run = {sb, sb};
  for (const bool spans : {true, false}) {
    const auto& corpus = spans ? two_runs : one_run;
    CertifyingSource source(corpus);
    engine::VectorSource twin(corpus, 1);
    engine::AuditedSource audited(source, 1, &twin);
    ASSERT_TRUE(audited.elide_repeats());
    const std::string error = logic_error_of([&] {
      engine::for_each_test(audited, [](const litmus::LitmusTest&) {});
    });
    if (spans) {
      EXPECT_NE(error.find("a class spans two program runs"),
                std::string::npos)
          << error;
    } else {
      EXPECT_EQ(error, "");
      EXPECT_EQ(audited.classes(), 1u);
    }
  }
}

TEST(AuditedSource, ForwardsTheOptInOnlyWithATwin) {
  // Without a twin the audit cannot check an elision, so the stream it
  // wraps keeps building every test.
  enumeration::ExhaustiveOptions options;
  options.bounds.max_accesses_per_thread = 2;
  {
    enumeration::ExhaustiveStream stream(options);
    engine::AuditedSource audited(stream, 1);
    EXPECT_FALSE(audited.elide_repeats());
    std::size_t built = 0;
    engine::for_each_test(audited, [&](const litmus::LitmusTest&) { ++built; });
    EXPECT_EQ(static_cast<long long>(built), stream.emitted().tests);
  }
  {
    enumeration::ExhaustiveStream stream(options);
    enumeration::ExhaustiveStream twin(options);
    engine::AuditedSource audited(stream, 1, &twin);
    EXPECT_TRUE(audited.elide_repeats());
    std::size_t built = 0;
    engine::for_each_test(audited, [&](const litmus::LitmusTest&) { ++built; });
    EXPECT_EQ(static_cast<long long>(built + audited.elided_verified()),
              stream.emitted().tests);
    EXPECT_GT(audited.elided_verified(), 0u);
  }
}

}  // namespace
}  // namespace mcmc
