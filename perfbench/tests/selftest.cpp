// Self-tests of the benchmark's own code: the reporting helpers, the
// child high-water mark litmusd's peak_rss_mb comes from, and the claim
// that the traced runs' wrappers change nothing — wrapped and unwrapped
// runs on the 2-access slice (1 engine thread) give the same matrix and
// a byte-identical committed store file.
//
// Store files are written to the working directory (run.py --selftest
// runs this inside its build directory).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/peak_rss.h"
#include "child.h"
#include "engine/verdict_engine.h"
#include "enumeration/exhaustive.h"
#include "explore/distinguish.h"
#include "explore/space.h"
#include "report.h"
#include "store/fs.h"
#include "store/verdict_store.h"
#include "trace.h"
#include "workload.h"
#include "wrappers.h"

namespace perfbench {
namespace {

std::vector<double> one_to(std::size_t n) {
  std::vector<double> out;
  for (std::size_t i = n; i >= 1; --i) out.push_back(static_cast<double>(i));
  return out;
}

TEST(TailQuantile, KeepsTenSamplesBeyondTheReportedRank) {
  for (const std::size_t n : {21, 30, 99, 100, 101, 500, 999, 1000, 5000}) {
    for (const double q : {0.5, 0.9, 0.99}) {
      const Quantile t = tail_quantile(one_to(n), q);
      EXPECT_GE(t.beyond, kMinSamplesBeyond) << n << " samples, q " << q;
      // Nearest rank rounds up by less than one sample.
      EXPECT_LT(t.q, q + 1.0 / static_cast<double>(n))
          << n << " samples, q " << q;
      // Samples are 1..n, so the value is its own rank.
      EXPECT_EQ(t.value, static_cast<double>(n - t.beyond));
      EXPECT_EQ(t.samples, n);
    }
  }
}

TEST(TailQuantile, ReportsTheAskedQuantileWhenTheSampleSupportsIt) {
  const Quantile p99 = tail_quantile(one_to(1000), 0.99);
  EXPECT_DOUBLE_EQ(p99.q, 0.99);
  EXPECT_EQ(p99.value, 990.0);
  EXPECT_EQ(p99.beyond, 10u);
  // 100 samples support a p90 but not a p99, which falls back to it.
  EXPECT_DOUBLE_EQ(tail_quantile(one_to(100), 0.9).q, 0.9);
  EXPECT_DOUBLE_EQ(tail_quantile(one_to(100), 0.99).q, 0.9);
}

TEST(TailQuantile, NeverDropsBelowTheMedian) {
  const Quantile small = tail_quantile(one_to(7), 0.99);
  EXPECT_EQ(small.value, 4.0);
  EXPECT_EQ(tail_quantile(one_to(7), 0.5).value, 4.0);
  EXPECT_EQ(tail_quantile({}, 0.9).samples, 0u);
}

TEST(Median, OddAndEven) {
  EXPECT_EQ(median({3, 1, 2}), 2.0);
  EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(median({}), 0.0);
}

TEST(MetricNames, RuleAcceptsAndRejects) {
  EXPECT_TRUE(valid_metric_name("setup_s"));
  EXPECT_TRUE(valid_metric_name("engine.keys_ns_per_test"));
  EXPECT_TRUE(valid_metric_name("9-lives.x"));
  EXPECT_FALSE(valid_metric_name(""));
  EXPECT_FALSE(valid_metric_name("_leading"));
  EXPECT_FALSE(valid_metric_name(".leading"));
  EXPECT_FALSE(valid_metric_name("with space"));
  EXPECT_FALSE(valid_metric_name("slash/not"));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
  EXPECT_TRUE(valid_metric_name(std::string(64, 'a')));
}

TEST(MetricNames, EveryReportedNameIsValidAndUnique) {
  std::vector<std::string> names = EndToEnd{}.to_json().keys();
  const auto layers = LayerMetrics{}.to_json().keys();
  names.insert(names.end(), layers.begin(), layers.end());
  for (std::size_t i = 0; i < names.size(); ++i) {
    EXPECT_TRUE(valid_metric_name(names[i])) << names[i];
    for (std::size_t j = 0; j < i; ++j) EXPECT_NE(names[i], names[j]);
  }
}

TEST(Json, NumbersKeepAllTheirDigits) {
  EXPECT_EQ(json_number(0.1), "0.1");
  EXPECT_EQ(json_number(1.0 / 3.0), "0.3333333333333333");
  EXPECT_EQ(json_number(std::nan("")), "null");
  EXPECT_EQ(JsonObject().add("a", 1).add("b", "x\"y").dump(),
            "{\"a\": 1, \"b\": \"x\\\"y\"}");
}

TEST(Spans, SelfTimeSubtractsDirectChildrenPerThread) {
  std::vector<Span> spans(4);
  spans[0] = {"outer", "l", 0, 100, 0};
  spans[1] = {"child", "l", 10, 30, 0};
  spans[2] = {"grandchild", "l", 12, 20, 0};
  spans[3] = {"other-thread", "l", 5, 50, 1};
  nest_spans(spans);
  EXPECT_EQ(totals(spans, "outer").self_ns, 80);
  EXPECT_EQ(totals(spans, "child").self_ns, 12);
  EXPECT_EQ(totals(spans, "grandchild").self_ns, 8);
  EXPECT_EQ(totals(spans, "other-thread").self_ns, 45);
}

TEST(Child, PeakRssIsTheChildsOwnNotTheSpawners) {
  // A spawner holding far more memory than its child: the child's
  // wait4 ru_maxrss would read at least the spawner's RSS.
  constexpr std::size_t kBallast = std::size_t{128} << 20;
  std::vector<char> ballast(kBallast, 1);
  ASSERT_GT(mcmc::bench::peak_rss_mb(), 128.0);

  Child child({"sleep", "30"}, "selftest_child.log");
  ASSERT_TRUE(child.running()) << child.error();
  const double mb = child.peak_rss_mb();
  EXPECT_GT(mb, 0.0);
  EXPECT_LT(mb, 32.0);
  EXPECT_FALSE(child.exited());
  // Death by SIGTERM is not a clean exit.
  EXPECT_FALSE(child.terminate());
  EXPECT_FALSE(child.running());
  EXPECT_LT(child.peak_rss_mb(), 0.0);
  const volatile char* end = ballast.data() + kBallast - 1;
  EXPECT_EQ(*end, 1);
  std::remove("selftest_child.log");
}

TEST(Child, ReportsASpawnThatCannotStart) {
  Child child({"./no-such-program"}, "selftest_child.log");
  EXPECT_FALSE(child.running());
  EXPECT_FALSE(child.error().empty());
  std::remove("selftest_child.log");
}

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

struct SliceRun {
  mcmc::explore::DistinguishMatrix matrix;
  std::size_t rows = 0;
  std::uint64_t wrapped_tests = 0;
  FsCounts fs;
  std::size_t next_chunk_spans = 0;
};

/// The 2-access slice through the checkpointed harness on 1 engine
/// thread; `traced` wraps the source and filesystem as a traced run
/// does.
SliceRun run_slice(const std::string& path, bool traced) {
  using namespace mcmc;
  std::remove(path.c_str());
  std::vector<core::MemoryModel> models;
  for (const auto& c : explore::model_space(true)) {
    models.push_back(c.to_model());
  }
  enumeration::ExhaustiveOptions options;
  options.bounds.max_accesses_per_thread = 2;
  options.chunk_size = 256;
  enumeration::ExhaustiveStream stream(options);
  Tracer tracer;
  TimedSource timed(stream, tracer);
  CountingFs fs(store::RealFs::instance(), tracer);
  store::Fs* const f = traced ? &fs : nullptr;
  engine::TestSource& source =
      traced ? static_cast<engine::TestSource&>(timed) : stream;

  auto opened =
      store::VerdictStore::open(path, explore::harness_store_meta(models), f);
  store::StreamPersistence persistence;
  persistence.path = path;
  persistence.fs = f;
  persistence.checkpoint_every_chunks = 4;
  explore::TheoremHarnessOptions harness;
  harness.verdict_store = opened.store.get();
  harness.persistence = &persistence;

  engine::EngineOptions engine_options;
  engine_options.num_threads = 1;
  engine::VerdictEngine eng(engine_options);
  SliceRun run;
  run.matrix =
      explore::distinguishability_streamed(eng, models, source, harness);
  run.rows = opened.store->size();
  run.wrapped_tests = timed.tests();
  run.fs = fs.counts();
  run.next_chunk_spans = totals(tracer.spans(), "next_chunk").count;
  return run;
}

TEST(Wrappers, TracedRunCommitsTheSameMatrixAndStoreFile) {
  const std::string plain_path = "selftest_plain.store";
  const std::string traced_path = "selftest_traced.store";
  const SliceRun plain = run_slice(plain_path, false);
  const SliceRun traced = run_slice(traced_path, true);

  EXPECT_TRUE(plain.matrix == traced.matrix);
  EXPECT_GT(plain.rows, 0u);
  EXPECT_EQ(plain.rows, traced.rows);
  const std::string plain_bytes = read_bytes(plain_path);
  EXPECT_FALSE(plain_bytes.empty());
  EXPECT_TRUE(plain_bytes == read_bytes(traced_path))
      << "committed store files differ";

  // The wrappers saw the work: every streamed test, and one fsync per
  // committed rename.
  mcmc::enumeration::ExhaustiveOptions options;
  options.bounds.max_accesses_per_thread = 2;
  EXPECT_EQ(traced.wrapped_tests,
            static_cast<std::uint64_t>(
                mcmc::enumeration::ExhaustiveStream::count(options).tests));
  EXPECT_GT(traced.next_chunk_spans, 0u);
  EXPECT_GT(traced.fs.syncs, 1u);
  EXPECT_EQ(traced.fs.syncs, traced.fs.renames);
  EXPECT_EQ(traced.fs.failures, 0u);
  std::remove(plain_path.c_str());
  std::remove(traced_path.c_str());
}

}  // namespace
}  // namespace perfbench
