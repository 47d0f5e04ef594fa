// The `sweep` and `checkpoint` workloads: the cold Theorem-1 harness
// (explore::distinguishability_streamed over the full no-dep
// ExhaustiveStream, extremes prefilter on, 2 engine threads plus the
// engine's prefetcher), without a store or with one opened empty and
// sealed every 16 chunks.
//
// A run sets up several times (model space, engine, both Corollary-1
// suite matrices, store open) for a steady setup_s, then runs whole
// sweeps — two for `sweep`, one for `checkpoint`; --seconds does not
// change them — and reports the fastest.  A traced run makes one
// untraced and one traced sweep; the difference in wall is the tracing
// overhead, and the traced sweep gives the per-layer metrics.
#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench/peak_rss.h"
#include "engine/verdict_engine.h"
#include "enumeration/exhaustive.h"
#include "enumeration/suite.h"
#include "explore/distinguish.h"
#include "explore/space.h"
#include "store/fs.h"
#include "store/verdict_store.h"
#include "trace.h"
#include "util/timer.h"
#include "workload.h"
#include "wrappers.h"

namespace perfbench {

namespace {

using namespace mcmc;

// The no-dep space and what its harness run must find (the counts the
// nightly slow test pins, and the Corollary-1 suite's 3,843 pairs).
constexpr std::uint64_t kTests = 5160270;
constexpr std::uint64_t kNovel = 445565;
constexpr std::uint64_t kCandidates = 40817;
constexpr long long kPairs = 3843;
// Rows a checkpointed run commits: the novel classes plus the 60
// with-dep suite classes the setup's suite matrices write back.
constexpr std::size_t kCheckpointRows = 445625;

constexpr int kEngineThreads = 2;
constexpr int kChunkSize = 4096;
constexpr int kCheckpointEvery = 16;
/// Set-ups timed before the first sweep's own; each sweep adds one.
constexpr int kSetups = 8;
// Contention from outside the machine only ever slows a sweep, so a
// run reports its fastest of several identical sweeps.  A checkpointed
// sweep takes over 30 s, so it runs once.
constexpr std::size_t kSweepPasses = 2;
constexpr std::size_t kCheckpointPasses = 1;

const char* const kStorePath = "checkpoint.store";

struct Setup {
  std::vector<core::MemoryModel> models;
  std::unique_ptr<engine::VerdictEngine> eng;
  explore::DistinguishMatrix suite_nodep;
  explore::DistinguishMatrix suite_dep;
  std::unique_ptr<store::VerdictStore> store;  // checkpoint only
  store::OpenOutcome outcome = store::OpenOutcome::Fresh;
};

/// Everything that happens before the harness asks for its first chunk.
Setup set_up(bool checkpoint, store::Fs* fs) {
  Setup s;
  for (const auto& choices : explore::model_space(true)) {
    s.models.push_back(choices.to_model());
  }
  engine::EngineOptions options;
  options.num_threads = kEngineThreads;
  s.eng = std::make_unique<engine::VerdictEngine>(options);
  if (checkpoint) {
    std::remove(kStorePath);
    auto opened = store::VerdictStore::open(
        kStorePath, explore::harness_store_meta(s.models), fs);
    s.store = std::move(opened.store);
    s.outcome = opened.outcome;
    s.eng->set_store(s.store.get());
  }
  s.suite_nodep = explore::distinguishability(
      *s.eng, s.models, enumeration::corollary1_suite(false));
  s.suite_dep = explore::distinguishability(
      *s.eng, s.models, enumeration::corollary1_suite(true));
  return s;
}

struct Pass {
  double wall = 0.0;
  explore::TheoremHarnessReport report;
  std::size_t store_rows = 0;      ///< rows in memory at the end
  std::size_t reopened_rows = 0;   ///< rows the committed file loads with
  double reopen_s = 0.0;
  std::uint64_t final_bytes = 0;
};

/// One sweep over `s`, checked against the pinned counts.  With a
/// tracer, the source and filesystem are wrapped and each chunk
/// delivery is a span.
Pass sweep_once(Setup& s, bool checkpoint, Tracer* tracer, CountingFs* fs,
                std::vector<std::string>& problems) {
  Pass pass;
  enumeration::ExhaustiveOptions stream_options;
  stream_options.chunk_size = kChunkSize;
  enumeration::ExhaustiveStream stream(stream_options);
  std::optional<TimedSource> timed;
  if (tracer != nullptr) timed.emplace(stream, *tracer);
  engine::TestSource& source =
      timed ? static_cast<engine::TestSource&>(*timed) : stream;

  explore::TheoremHarnessOptions harness;
  store::StreamPersistence persistence;
  if (checkpoint) {
    harness.verdict_store = s.store.get();
    persistence.path = kStorePath;
    persistence.fs = fs;
    persistence.checkpoint_every_chunks = kCheckpointEvery;
    harness.persistence = &persistence;
  }

  // A chunk's span runs from the previous delivery to this one: the
  // consumer's whole share of the chunk, including any seal committed
  // after the previous delivery.
  std::int64_t chunk_start = tracer != nullptr ? tracer->now_ns() : 0;
  explore::ChunkProgress progress;
  if (tracer != nullptr) {
    progress = [&](const engine::StreamChunkStats& cs) {
      Span span;
      span.name = "chunk";
      span.layer = "engine";
      span.start_ns = chunk_start;
      span.end_ns = tracer->now_ns();
      span.tid = thread_index();
      span.id = cs.index + 1;
      tracer->record(span);
      // Back to back, so a seal after this delivery nests in the next
      // chunk's span.
      chunk_start = span.end_ns;
    };
  }

  explore::DistinguishMatrix matrix;
  {
    ScopedSpan span(tracer, "distinguishability_streamed", "explore");
    util::Timer timer;
    matrix = explore::distinguishability_streamed(
        *s.eng, s.models, source, harness, &pass.report, progress);
    pass.wall = timer.seconds();
  }

  const auto expect = [&](bool ok, const std::string& what) {
    if (!ok) problems.push_back(what);
  };
  const auto& stream_stats = pass.report.stream;
  expect(stream_stats.tests_streamed == kTests,
         "tests streamed " + std::to_string(stream_stats.tests_streamed) +
             " != " + std::to_string(kTests));
  expect(stream_stats.novel_tests == kNovel,
         "novel tests " + std::to_string(stream_stats.novel_tests) +
             " != " + std::to_string(kNovel));
  expect(pass.report.candidate_tests == kCandidates,
         "candidates " + std::to_string(pass.report.candidate_tests) +
             " != " + std::to_string(kCandidates));
  expect(matrix.distinguished_pairs() == kPairs,
         "distinguished pairs " + std::to_string(matrix.distinguished_pairs()) +
             " != " + std::to_string(kPairs));
  expect(matrix == s.suite_nodep,
         "matrix differs from the no-dep Corollary-1 suite's");
  expect(matrix.subset_of(s.suite_dep),
         "matrix distinguishes a pair the with-dep suite does not");
  if (timed) {
    expect(timed->tests() == kTests, "wrapped source delivered " +
                                         std::to_string(timed->tests()) +
                                         " tests");
  }

  if (checkpoint) {
    expect(s.outcome == store::OpenOutcome::Fresh,
           "store did not open empty: " + store::to_string(s.outcome));
    pass.store_rows = s.store->size();
    struct stat st{};
    if (::stat(kStorePath, &st) == 0) {
      pass.final_bytes = static_cast<std::uint64_t>(st.st_size);
    }
    ScopedSpan span(tracer, "VerdictStore::open", "store");
    util::Timer timer;
    auto reopened = store::VerdictStore::open(
        kStorePath, explore::harness_store_meta(s.models), fs);
    pass.reopen_s = timer.seconds();
    pass.reopened_rows = reopened.store->size();
    expect(reopened.outcome == store::OpenOutcome::Loaded,
           "final store reopened as " + store::to_string(reopened.outcome) +
               ": " + reopened.detail);
    expect(pass.reopened_rows == pass.store_rows,
           "final store loads " + std::to_string(pass.reopened_rows) +
               " rows, the run wrote " + std::to_string(pass.store_rows));
    expect(pass.store_rows == kCheckpointRows,
           "store rows " + std::to_string(pass.store_rows) +
               " != " + std::to_string(kCheckpointRows));
    expect(!reopened.store->checkpoint().has_value(),
           "final store still holds a checkpoint");
  }
  if (fs != nullptr) {
    expect(fs->counts().failures == 0, "a filesystem call failed");
  }
  return pass;
}

/// Seals seen from outside: each rename of the store file ends one,
/// and it began when the consumer last handed a chunk over (a seal
/// runs after the delivery of the chunk that triggers it; the final
/// commit, after the last one).  Appends them as "seal" spans.
void add_seal_spans(std::vector<Span>& spans) {
  std::vector<Span> seals;
  for (const Span& rename : spans) {
    if (std::strcmp(rename.name, "fs.rename") != 0) continue;
    std::int64_t start = -1;
    for (const Span& s : spans) {
      if (s.tid == rename.tid && s.end_ns <= rename.start_ns &&
          std::strcmp(s.name, "chunk") == 0 && s.end_ns > start) {
        start = s.end_ns;
      }
    }
    if (start < 0) continue;
    Span seal = rename;
    seal.name = "seal";
    seal.start_ns = start;
    seals.push_back(seal);
  }
  spans.insert(spans.end(), seals.begin(), seals.end());
}

LayerMetrics layer_metrics(const Pass& pass, const std::vector<Span>& spans,
                           const CountingFs& fs, bool checkpoint) {
  LayerMetrics m;
  const auto& st = pass.report.stream;
  const SpanTotals produce = totals(spans, "next_chunk");
  m.produce_s = static_cast<double>(produce.total_ns) / 1e9;
  m.tests = st.tests_streamed;
  m.produce_ns_per_test =
      m.tests > 0 ? m.produce_s * 1e9 / static_cast<double>(m.tests) : 0.0;

  m.keys_s = st.stages.keys;
  m.keys_ns_per_test = st.keys_ns_per_test();
  m.dedup_s = st.stages.dedup;
  m.verdict_s = st.stages.verdict;
  m.checks = st.engine.checks_run;
  m.verdict_ns_per_check =
      m.checks > 0 ? m.verdict_s * 1e9 / static_cast<double>(m.checks) : 0.0;
  m.novel_tests = st.novel_tests;
  m.dedup_rate = st.dedup_rate();

  m.sweep_s = pass.report.sweep_seconds;
  m.sweep_checks = pass.report.sweep.checks_run;
  m.sweep_ns_per_check = m.sweep_checks > 0
                             ? m.sweep_s * 1e9 /
                                   static_cast<double>(m.sweep_checks)
                             : 0.0;
  m.candidates = pass.report.candidate_tests;
  m.candidate_rate = m.novel_tests > 0
                         ? static_cast<double>(m.candidates) /
                               static_cast<double>(m.novel_tests)
                         : 0.0;

  if (checkpoint) {
    const SpanTotals seals = totals(spans, "seal");
    m.seals = seals.count;
    m.commit_s = static_cast<double>(seals.total_ns) / 1e9;
    m.fsyncs = fs.counts().syncs;
    m.bytes_written = fs.counts().bytes_written;
    m.final_bytes = pass.final_bytes;
    m.write_amp = m.final_bytes > 0 ? static_cast<double>(m.bytes_written) /
                                          static_cast<double>(m.final_bytes)
                                    : 0.0;
    m.load_s = pass.reopen_s;
  }
  m.unattributed_s =
      pass.wall - m.keys_s - m.dedup_s - m.verdict_s - m.sweep_s - m.commit_s;
  m.spans = spans.size();
  return m;
}

JsonObject pass_detail(const Pass& pass) {
  const auto& st = pass.report.stream;
  JsonObject out;
  out.add("wall_s", pass.wall)
      .add("tests_streamed", static_cast<std::uint64_t>(st.tests_streamed))
      .add("novel_tests", static_cast<std::uint64_t>(st.novel_tests))
      .add("candidates",
           static_cast<std::uint64_t>(pass.report.candidate_tests))
      .add("produce_s", st.stages.produce)
      .add("keys_s", st.stages.keys)
      .add("dedup_s", st.stages.dedup)
      .add("verdict_s", st.stages.verdict)
      .add("sweep_s", pass.report.sweep_seconds);
  if (pass.store_rows > 0) {
    out.add("store_rows", static_cast<std::uint64_t>(pass.store_rows))
        .add("reopened_rows", static_cast<std::uint64_t>(pass.reopened_rows))
        .add("final_bytes", pass.final_bytes);
  }
  return out;
}

}  // namespace

RunResult run_sweep(const RunConfig& config, bool checkpoint) {
  RunResult result;
  Operations sweeps;
  std::vector<double> setup_s;

  // Setup samples; the first counts from process start.
  auto start = config.process_start;
  for (int i = 0; i < kSetups; ++i) {
    (void)set_up(checkpoint, nullptr);
    const auto now = std::chrono::steady_clock::now();
    setup_s.push_back(seconds_between(start, now));
    start = now;
  }

  std::vector<Pass> passes;
  // A traced run makes exactly one untraced and one traced sweep.
  const std::size_t untraced =
      config.trace ? 1 : (checkpoint ? kCheckpointPasses : kSweepPasses);
  while (passes.size() < untraced) {
    Setup s = set_up(checkpoint, nullptr);
    setup_s.push_back(
        seconds_between(start, std::chrono::steady_clock::now()));
    const std::size_t before = result.problems.size();
    passes.push_back(
        sweep_once(s, checkpoint, nullptr, nullptr, result.problems));
    ++sweeps.attempted;
    if (result.problems.size() != before) ++sweeps.failed;
    // The memory a sweep needs; later sweeps only re-measure its speed.
    if (passes.size() == 1) {
      result.end_to_end.peak_rss_mb = mcmc::bench::peak_rss_mb();
    }
    start = std::chrono::steady_clock::now();
  }

  if (config.trace) {
    Tracer tracer;
    CountingFs fs(store::RealFs::instance(), tracer);
    Setup s = set_up(checkpoint, &fs);
    setup_s.push_back(
        seconds_between(start, std::chrono::steady_clock::now()));
    const std::size_t before = result.problems.size();
    const Pass traced =
        sweep_once(s, checkpoint, &tracer, &fs, result.problems);
    ++sweeps.attempted;
    if (result.problems.size() != before) ++sweeps.failed;

    std::vector<Span> spans = tracer.spans();
    add_seal_spans(spans);
    nest_spans(spans);
    result.layers = layer_metrics(traced, spans, fs, checkpoint);
    result.layers.overhead_pct = (traced.wall / passes.front().wall - 1) * 100;
    std::string error;
    if (!write_chrome_trace(spans, config.trace_path, &error)) {
      result.problems.push_back(error);
    }
    const FsCounts& c = fs.counts();
    result.detail.add("traced_pass", pass_detail(traced))
        .add("fs_calls", JsonObject()
                             .add("reads", c.reads)
                             .add("read_bytes", c.read_bytes)
                             .add("creates", c.creates)
                             .add("writes", c.writes)
                             .add("bytes_written", c.bytes_written)
                             .add("syncs", c.syncs)
                             .add("renames", c.renames)
                             .add("removes", c.removes)
                             .add("failures", c.failures))
        .add("trace_file", config.trace_path);
  }

  JsonObject pass_details;
  for (std::size_t i = 0; i < passes.size(); ++i) {
    const Pass& pass = passes[i];
    result.end_to_end.tests_per_s = std::max(
        result.end_to_end.tests_per_s,
        static_cast<double>(pass.report.stream.tests_streamed) / pass.wall);
    pass_details.add(std::to_string(i + 1), pass_detail(pass));
  }
  result.end_to_end.setup_s = median(setup_s);
  result.operations.emplace_back("sweep", sweeps);

  JsonObject settings;
  settings.add("engine_threads", kEngineThreads)
      .add("prefetcher_threads", 1)
      .add("chunk_size", kChunkSize)
      .add("extremes_prefilter", true)
      .add("checkpoint_every_chunks", checkpoint ? kCheckpointEvery : 0)
      .add("store_file", checkpoint ? kStorePath : "");
  result.detail.add("settings", settings)
      .add("setup_samples_s", setup_s)
      .add("passes", pass_details);
  if (checkpoint) std::remove(kStorePath);
  return result;
}

}  // namespace perfbench
