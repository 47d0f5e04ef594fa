// The parallel streaming pipeline: determinism under any thread count,
// hash-based chunk-order dedup (with collision audit), the producer
// thread's chunk hand-off, the Theorem harness's sweep on the caller's
// engine, and exception propagation from pool tasks through
// run_matrix / run_stream.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "engine/audited_source.h"
#include "engine/key_set.h"
#include "engine/test_stream.h"
#include "engine/thread_pool.h"
#include "engine/verdict_engine.h"
#include "enumeration/exhaustive.h"
#include "enumeration/suite.h"
#include "explore/distinguish.h"
#include "explore/space.h"
#include "models/zoo.h"
#include "structural_key.h"
#include "util/hash128.h"

namespace mcmc {
namespace {

// ---------------------------------------------------------------------------
// util::hash128
// ---------------------------------------------------------------------------

TEST(Hash128, DistinguishesAndRepeats) {
  const util::Key128 a = util::hash128(std::string("R0=1;W0<1"));
  const util::Key128 b = util::hash128(std::string("R0=1;W0<2"));
  const util::Key128 c = util::hash128(std::string("R0=1;W0<1"));
  EXPECT_EQ(a, c);
  EXPECT_NE(a, b);
  EXPECT_NE(util::hash128(std::string("")),
            util::hash128(std::string("\0", 1)));
  // Same content split differently by length must differ.
  EXPECT_NE(util::hash128("ab", 2), util::hash128("ab", 1));
}

TEST(Hash128, NoCollisionsAcrossSuiteKeys) {
  // Every canonical key of the with-dep suite hashes uniquely (the keys
  // themselves are unique: the suite is symmetry-reduced).
  std::set<std::pair<std::uint64_t, std::uint64_t>> hashes;
  std::set<std::string> keys;
  for (const auto& test : enumeration::corollary1_suite(true)) {
    const std::string key = litmus::canonical_key(test);
    const util::Key128 h = util::hash128(key);
    keys.insert(key);
    hashes.insert({h.hi, h.lo});
  }
  EXPECT_EQ(hashes.size(), keys.size());
}

TEST(Hash128, ScratchOverloadMatchesAllocatingOverload) {
  litmus::KeyScratch scratch;
  for (const auto& test : enumeration::corollary1_suite(false)) {
    const core::Analysis analysis(test.program());
    EXPECT_EQ(litmus::canonical_key(analysis, test.outcome(), scratch),
              litmus::canonical_key(analysis, test.outcome()));
    std::string structural;
    structural_key(test, structural);
    EXPECT_EQ(structural, structural_key(test));
  }
}

// ---------------------------------------------------------------------------
// engine::KeySet
// ---------------------------------------------------------------------------

TEST(KeySet, KeyIsNewOnceThenADuplicate) {
  engine::KeySet set;
  const util::Key128 k1 = util::hash128(std::string("k1"));
  const util::Key128 k2 = util::hash128(std::string("k2"));
  EXPECT_TRUE(set.insert(k1));
  EXPECT_FALSE(set.insert(k1));
  EXPECT_TRUE(set.insert(k2));
  EXPECT_FALSE(set.insert(k2));
  EXPECT_FALSE(set.insert(k1));
}

TEST(KeySet, AllZeroKeyIsNewOnceThenADuplicate) {
  // The all-zero key is the empty-slot sentinel, so the set stores it
  // remapped; it still inserts once, beside other keys.
  const util::Key128 zero{};
  engine::KeySet set;
  EXPECT_TRUE(set.insert(zero));
  EXPECT_FALSE(set.insert(zero));
  EXPECT_TRUE(set.insert(util::hash128(std::string("k"))));
  EXPECT_FALSE(set.insert(zero));
}

TEST(KeySet, HundredThousandKeysReinsertAsDuplicates) {
  // About 1,560 keys land in each of the 64 tables, so every table
  // grows from 64 slots six times.
  std::vector<util::Key128> keys;
  for (int i = 0; i < 100000; ++i) {
    keys.push_back(util::hash128(std::to_string(i)));
  }
  engine::KeySet set;
  std::size_t new_keys = 0;
  for (const util::Key128 key : keys) new_keys += set.insert(key) ? 1 : 0;
  EXPECT_EQ(new_keys, keys.size());
  std::size_t duplicates = 0;
  for (const util::Key128 key : keys) duplicates += set.insert(key) ? 0 : 1;
  EXPECT_EQ(duplicates, keys.size());
}

// ---------------------------------------------------------------------------
// engine::ChunkPrefetcher
// ---------------------------------------------------------------------------

/// Wraps a source and counts the pulls that arrive with storage to
/// refill: a handed-back chunk whose tests are already destroyed.
class RefillProbe final : public engine::TestSource {
 public:
  explicit RefillProbe(engine::TestSource& source) : source_(source) {}
  bool next_chunk(std::vector<litmus::LitmusTest>& out) override {
    EXPECT_TRUE(out.empty());  // the caller clears what it hands over
    if (out.capacity() > 0) refills_.fetch_add(1);
    calls_.fetch_add(1);
    return source_.next_chunk(out);
  }
  [[nodiscard]] int refills() const { return refills_.load(); }
  [[nodiscard]] int calls() const { return calls_.load(); }

 private:
  engine::TestSource& source_;
  std::atomic<int> refills_{0};
  std::atomic<int> calls_{0};
};

TEST(ChunkPrefetcher, DeliversSameChunksAsDirectDrain) {
  const auto suite = enumeration::corollary1_suite(true);

  engine::VectorSource direct(suite, 13);
  std::vector<std::vector<std::string>> direct_chunks;
  {
    std::vector<litmus::LitmusTest> chunk;
    bool more = true;
    while (more) {
      chunk.clear();
      more = direct.next_chunk(chunk);
      std::vector<std::string> names;
      for (const auto& t : chunk) names.push_back(t.name());
      direct_chunks.push_back(std::move(names));
    }
  }

  engine::VectorSource wrapped(suite, 13);
  engine::ChunkPrefetcher prefetcher(wrapped);
  std::vector<std::vector<std::string>> prefetched_chunks;
  {
    std::vector<litmus::LitmusTest> chunk;
    bool more = true;
    while (more) {
      chunk.clear();
      more = prefetcher.next_chunk(chunk);
      std::vector<std::string> names;
      for (const auto& t : chunk) names.push_back(t.name());
      prefetched_chunks.push_back(std::move(names));
      EXPECT_GE(prefetcher.last_produce_seconds(), 0.0);
    }
  }
  EXPECT_EQ(prefetched_chunks, direct_chunks);
  // Exhausted: further calls keep returning false without blocking.
  std::vector<litmus::LitmusTest> chunk;
  EXPECT_FALSE(prefetcher.next_chunk(chunk));
  EXPECT_TRUE(chunk.empty());

  // A consumer that hands every chunk back sees the same chunks, and
  // the producer refills the handed-back storage: a new buffer is made
  // only while none waits, so at most 3 of them exist.
  engine::VectorSource recycled(suite, 13);
  RefillProbe probe(recycled);
  std::vector<std::vector<std::string>> recycled_chunks;
  {
    engine::ChunkPrefetcher recycler(probe);
    bool more = true;
    while (more) {
      more = recycler.next_chunk(chunk);
      std::vector<std::string> names;
      for (const auto& t : chunk) names.push_back(t.name());
      recycled_chunks.push_back(std::move(names));
      recycler.recycle(chunk);
      EXPECT_TRUE(chunk.empty());
    }
  }
  EXPECT_EQ(recycled_chunks, direct_chunks);
  EXPECT_EQ(probe.calls(), static_cast<int>(direct_chunks.size()));
  EXPECT_GE(probe.refills(), probe.calls() - 3);
}

TEST(ChunkPrefetcher, EarlyDestructionDoesNotHang) {
  const auto suite = enumeration::corollary1_suite(true);
  engine::VectorSource wrapped(suite, 1);  // many small chunks
  {
    engine::ChunkPrefetcher prefetcher(wrapped);
    std::vector<litmus::LitmusTest> chunk;
    (void)prefetcher.next_chunk(chunk);  // consume one, abandon the rest
  }
  SUCCEED();
}

TEST(ChunkPrefetcher, DestructionWithHandedBackChunksNeitherHangsNorLeaks) {
  // Handed-back chunks the producer has not refilled, mid-stream or
  // after it finished, are freed with the prefetcher: every program
  // handle the streamed tests took is released again.
  const auto suite = enumeration::corollary1_suite(true);
  std::vector<long> baseline;
  for (const auto& t : suite) {
    baseline.push_back(t.shared_program().use_count());
  }
  for (const bool exhausted : {false, true}) {
    {
      // Two chunks when exhausted: nothing refills the last hand-back.
      engine::VectorSource wrapped(suite, exhausted ? suite.size() / 2 + 1 : 1);
      engine::ChunkPrefetcher prefetcher(wrapped);
      std::vector<litmus::LitmusTest> chunk;
      bool more = true;
      for (int i = 0; i < 3 && more; ++i) {
        more = prefetcher.next_chunk(chunk);
        EXPECT_FALSE(chunk.empty());
        prefetcher.recycle(chunk);
      }
      EXPECT_EQ(more, !exhausted);
    }
    for (std::size_t i = 0; i < suite.size(); ++i) {
      EXPECT_EQ(suite[i].shared_program().use_count(), baseline[i])
          << suite[i].name() << " exhausted=" << exhausted;
    }
  }
}

namespace {
class ThrowingSource final : public engine::TestSource {
 public:
  explicit ThrowingSource(std::vector<litmus::LitmusTest> first)
      : first_(std::move(first)) {}
  bool next_chunk(std::vector<litmus::LitmusTest>& out) override {
    if (!delivered_) {
      delivered_ = true;
      for (auto& t : first_) out.push_back(std::move(t));
      return true;
    }
    throw std::runtime_error("source failed");
  }

 private:
  std::vector<litmus::LitmusTest> first_;
  bool delivered_ = false;
};
}  // namespace

TEST(ChunkPrefetcher, ProducerExceptionSurfacesAfterEarlierChunks) {
  auto suite = enumeration::corollary1_suite(false);
  suite.erase(suite.begin() + 4, suite.end());
  ThrowingSource source(suite);
  engine::ChunkPrefetcher prefetcher(source);
  std::vector<litmus::LitmusTest> chunk;
  EXPECT_TRUE(prefetcher.next_chunk(chunk));  // the good chunk arrives
  EXPECT_EQ(chunk.size(), 4u);
  chunk.clear();
  EXPECT_THROW(prefetcher.next_chunk(chunk), std::runtime_error);
}

namespace {
/// Delivers one test per chunk into fresh storage and throws on the
/// first pull that refills a handed-back chunk.
class ThrowOnRefillSource final : public engine::TestSource {
 public:
  explicit ThrowOnRefillSource(litmus::LitmusTest test)
      : test_(std::move(test)) {}
  bool next_chunk(std::vector<litmus::LitmusTest>& out) override {
    if (out.capacity() > 0) throw std::runtime_error("refill failed");
    out.push_back(test_);
    delivered_.fetch_add(1);
    return true;
  }
  [[nodiscard]] int delivered() const { return delivered_.load(); }

 private:
  litmus::LitmusTest test_;
  std::atomic<int> delivered_{0};
};
}  // namespace

TEST(ChunkPrefetcher, ExceptionAfterHandBackSurfacesAfterEarlierChunks) {
  ThrowOnRefillSource source(enumeration::corollary1_suite(false).front());
  engine::ChunkPrefetcher prefetcher(source);
  std::vector<litmus::LitmusTest> chunk;
  int received = 0;
  bool threw = false;
  // At most 3 fresh buffers exist, so a refill, and with it the error,
  // comes within a few pulls.
  for (int pull = 0; pull < 16 && !threw; ++pull) {
    try {
      EXPECT_TRUE(prefetcher.next_chunk(chunk));
      EXPECT_EQ(chunk.size(), 1u);
      ++received;
      prefetcher.recycle(chunk);
    } catch (const std::runtime_error&) {
      threw = true;
    }
  }
  ASSERT_TRUE(threw);
  EXPECT_GE(received, 1);
  EXPECT_EQ(received, source.delivered());  // every good chunk first
}

namespace {
/// Delivers one suite test per chunk, sleeping before each: a producer
/// slower than its consumer.
class SleepingSource final : public engine::TestSource {
 public:
  SleepingSource(std::vector<litmus::LitmusTest> tests,
                 std::chrono::milliseconds nap)
      : tests_(std::move(tests)), nap_(nap) {}
  bool next_chunk(std::vector<litmus::LitmusTest>& out) override {
    std::this_thread::sleep_for(nap_);
    if (next_ < tests_.size()) out.push_back(tests_[next_++]);
    return next_ < tests_.size();
  }

 private:
  std::vector<litmus::LitmusTest> tests_;
  std::size_t next_ = 0;
  std::chrono::milliseconds nap_;
};
}  // namespace

TEST(StreamStages, WaitRecordsTheConsumerBlockedOnTheProducer) {
  auto suite = enumeration::corollary1_suite(false);
  suite.erase(suite.begin() + 6, suite.end());
  const std::vector<core::MemoryModel> probe = {models::sc()};
  constexpr auto kNap = std::chrono::milliseconds(40);
  const double injected = 0.040 * static_cast<double>(suite.size());

  engine::VerdictEngine eng;
  SleepingSource source(suite, kNap);
  const auto stats = eng.run_stream(probe, source, nullptr);
  EXPECT_EQ(stats.tests_streamed, suite.size());
  EXPECT_GE(stats.stages.wait, injected / 2);
  // The naps are the producer thread's time inside next_chunk.
  EXPECT_GE(stats.stages.produce, injected / 2);
  EXPECT_NE(stats.stages.to_string().find(" wait="), std::string::npos);
}

TEST(StreamStages, ReleaseRecordsTheConsumersShareOfChunkTeardown) {
  // The consumer's share of tearing down each chunk before the next
  // pull is charged to `release` and folded into the run totals the
  // stage line prints.  That share is the hand-back: the producer
  // thread destroys the tests and refills the storage.
  enumeration::ExhaustiveOptions slice;
  slice.bounds.max_accesses_per_thread = 2;
  slice.chunk_size = 256;
  engine::VerdictEngine eng;
  enumeration::ExhaustiveStream stream(slice);
  RefillProbe probe(stream);
  double chunk_release = 0.0;
  const auto stats = eng.run_stream(
      {models::sc()}, probe,
      [&](const std::vector<litmus::LitmusTest>&,
          const std::vector<util::Key128>&, const engine::BitMatrix&,
          const engine::StreamChunkStats& cs) {
        chunk_release += cs.stages.release;
      });
  ASSERT_GT(stats.chunks, 1u);
  EXPECT_GT(stats.stages.release, 0.0);
  // The final, empty pull releases the last chunk; no sink sees it.
  EXPECT_GE(stats.stages.release, chunk_release);
  EXPECT_NE(stats.stages.to_string().find(" release="), std::string::npos);
  // Only the first pulls get fresh storage: at most 3 chunk buffers
  // circulate.
  EXPECT_GE(probe.refills(), probe.calls() - 3);
}

// ---------------------------------------------------------------------------
// engine::ThreadPool
// ---------------------------------------------------------------------------

TEST(ThreadPool, EveryIndexRunsExactlyOnce) {
  for (const int threads : {1, 2, 4, 8}) {
    engine::ThreadPool pool(threads);
    for (const std::size_t n : {0, 1, 2, 7, 64, 1000}) {
      for (int batch = 0; batch < 20; ++batch) {
        std::vector<std::atomic<int>> runs(n);
        pool.parallel_for(n, [&](std::size_t i) { runs[i].fetch_add(1); });
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(runs[i].load(), 1)
              << "threads=" << threads << " n=" << n << " batch=" << batch
              << " index=" << i;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Exception propagation: pool -> run_matrix -> run_stream
// ---------------------------------------------------------------------------

TEST(PoolExceptions, FirstTaskExceptionRethrownAndPoolReusable) {
  engine::ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(256,
                        [](std::size_t i) {
                          if (i == 97) throw std::runtime_error("task 97");
                        }),
      std::runtime_error);

  // The pool survives a poisoned batch: the next batch runs every task.
  std::atomic<std::size_t> ran{0};
  pool.parallel_for(512, [&](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 512u);
}

TEST(PoolExceptions, FailFastSkipsWorkAfterFailure) {
  // A 1-thread pool claims indices in order on the caller, so index 0
  // executes first; throwing there must abandon the remaining 99 tasks
  // (claimed and counted, never run) instead of grinding through them.
  engine::ThreadPool pool(1);
  std::atomic<std::size_t> ran{0};
  EXPECT_THROW(pool.parallel_for(100,
                                 [&](std::size_t i) {
                                   ran.fetch_add(1);
                                   if (i == 0) throw std::runtime_error("x");
                                 }),
               std::runtime_error);
  EXPECT_EQ(ran.load(), 1u);
}

core::MemoryModel throwing_model() {
  return core::MemoryModel(
      "throwing",
      core::Formula::custom("Boom", [](const core::Analysis&, core::EventId,
                                       core::EventId) -> bool {
        throw std::runtime_error("predicate exploded");
      }));
}

TEST(EngineExceptions, ThrowingPredicateSurfacesFromRunMatrix) {
  const auto suite = enumeration::corollary1_suite(false);
  const std::vector<core::MemoryModel> models = {throwing_model()};
  for (const bool cache : {false, true}) {
    for (const int threads : {1, 4}) {
      engine::EngineOptions options;
      options.cache_enabled = cache;
      options.num_threads = threads;
      engine::VerdictEngine eng(options);
      EXPECT_THROW((void)eng.run_matrix(models, suite), std::runtime_error)
          << "cache=" << cache << " threads=" << threads;

      // The engine (and its pool) must remain usable afterwards.
      const auto matrix = eng.run_matrix({models::sc(), models::tso()}, suite);
      EXPECT_EQ(matrix.rows(), 2);
      EXPECT_EQ(matrix.cols(), static_cast<int>(suite.size()));
    }
  }
}

TEST(EngineExceptions, ThrowingPredicateSurfacesFromRunStream) {
  for (const int threads : {1, 4}) {
    engine::EngineOptions options;
    options.num_threads = threads;
    engine::VerdictEngine eng(options);
    engine::VectorSource source(enumeration::corollary1_suite(false), 16);
    const std::vector<core::MemoryModel> models = {throwing_model(),
                                                   models::sc()};
    EXPECT_THROW((void)eng.run_stream(models, source, nullptr),
                 std::runtime_error)
        << "threads=" << threads;

    engine::VectorSource good(enumeration::corollary1_suite(false), 16);
    const auto stats = eng.run_stream({models::sc()}, good, nullptr);
    EXPECT_EQ(stats.tests_streamed,
              enumeration::corollary1_suite(false).size());
  }
}

// ---------------------------------------------------------------------------
// Determinism: identical streamed results under any thread count
// ---------------------------------------------------------------------------

struct StreamCapture {
  std::vector<std::string> novel_names;
  std::vector<char> verdict_bits;
  std::vector<std::size_t> chunk_streamed;
  std::vector<std::size_t> chunk_novel;
  std::vector<std::size_t> chunk_duplicates;
};

/// Streams the 2-access slice through the fingerprint audit, which
/// checks every repeat the stream elides against a full-build twin.
StreamCapture run_slice_stream(int threads) {
  enumeration::ExhaustiveOptions options;
  options.bounds.max_accesses_per_thread = 2;
  options.chunk_size = 512;
  enumeration::ExhaustiveStream stream(options);
  enumeration::ExhaustiveStream twin(options);
  engine::AuditedSource audited(stream, threads, &twin);

  engine::EngineOptions engine_options;
  engine_options.num_threads = threads;
  engine::VerdictEngine eng(engine_options);

  const std::vector<core::MemoryModel> models = {
      explore::ModelChoices{4, 4, 4, 4}.to_model(),
      explore::ModelChoices{1, 0, 1, 0}.to_model()};

  StreamCapture capture;
  const auto stats = eng.run_stream(
      models, audited,
      [&](const std::vector<litmus::LitmusTest>& novel,
          const std::vector<util::Key128>&, const engine::BitMatrix& verdicts,
          const engine::StreamChunkStats& cs) {
        for (std::size_t i = 0; i < novel.size(); ++i) {
          capture.novel_names.push_back(novel[i].name());
          for (int m = 0; m < verdicts.cols(); ++m) {
            capture.verdict_bits.push_back(
                verdicts.get(static_cast<int>(i), m) ? 1 : 0);
          }
        }
        capture.chunk_streamed.push_back(cs.streamed);
        capture.chunk_novel.push_back(cs.novel);
        capture.chunk_duplicates.push_back(cs.duplicates);
      });
  // The audit saw every streamed test; the engine's novel tests must be
  // exactly its classes.
  EXPECT_EQ(stats.novel_tests, audited.classes());
  return capture;
}

TEST(StreamDeterminism, TwoAccessSliceBitForBitAcrossThreadCounts) {
  // The serial reference: 1 thread (the collision audit, which runs on
  // the producer thread, must hold on the whole slice).
  const StreamCapture serial = run_slice_stream(1);
  ASSERT_FALSE(serial.novel_names.empty());

  // Parallel runs with different thread counts: every delivered name,
  // verdict bit, and chunk stat identical.
  for (const int threads : {2, 4}) {
    const StreamCapture parallel = run_slice_stream(threads);
    EXPECT_EQ(parallel.novel_names, serial.novel_names) << threads;
    EXPECT_EQ(parallel.verdict_bits, serial.verdict_bits) << threads;
    EXPECT_EQ(parallel.chunk_streamed, serial.chunk_streamed) << threads;
    EXPECT_EQ(parallel.chunk_novel, serial.chunk_novel) << threads;
    EXPECT_EQ(parallel.chunk_duplicates, serial.chunk_duplicates) << threads;
  }
}

TEST(StreamDeterminism, NovelTestsAreFirstOccurrencesInStreamOrder) {
  // The suite interleaved with thread-swapped twins (same class, another
  // test) and exact copies of tests five back: in chunks of 7, classes
  // recur within a chunk and across chunks.  A VectorSource elides
  // nothing, so every test goes through the dedup set.
  std::vector<litmus::LitmusTest> corpus;
  const auto suite = enumeration::corollary1_suite(true);
  for (std::size_t i = 0; i < suite.size(); ++i) {
    const auto& test = suite[i];
    const std::string name = "t" + std::to_string(i);
    corpus.push_back(test.with_outcome(name, test.outcome()));
    std::vector<core::Thread> threads = test.program().threads();
    std::reverse(threads.begin(), threads.end());
    corpus.emplace_back(name + "~swap", core::Program(std::move(threads)),
                        test.outcome());
    if (i >= 5) {
      const auto& back = suite[i - 5];
      const std::string copy = "t" + std::to_string(i - 5) + "~copy";
      corpus.push_back(back.with_outcome(copy, back.outcome()));
    }
  }
  // The reference: a first-occurrence filter over canonical key strings.
  std::vector<std::string> expected;
  std::set<std::string> classes;
  for (const auto& test : corpus) {
    if (classes.insert(litmus::canonical_key(test)).second) {
      expected.push_back(test.name());
    }
  }
  ASSERT_LT(expected.size(), corpus.size());

  for (const int threads : {1, 4}) {
    engine::EngineOptions options;
    options.num_threads = threads;
    engine::VerdictEngine eng(options);
    engine::VectorSource source(corpus, 7);
    std::vector<std::string> novel_names;
    const auto stats = eng.run_stream(
        {models::sc()}, source,
        [&](const std::vector<litmus::LitmusTest>& novel,
            const std::vector<util::Key128>&, const engine::BitMatrix&,
            const engine::StreamChunkStats&) {
          for (const auto& test : novel) novel_names.push_back(test.name());
        });
    EXPECT_EQ(novel_names, expected) << "threads=" << threads;
    EXPECT_EQ(stats.duplicate_tests, corpus.size() - expected.size());
    EXPECT_EQ(stats.repeat_tests, 0u);
  }
}

TEST(StreamDeterminism, HarnessMatrixIdenticalAcrossThreadCounts) {
  // The full Theorem harness (extremes prefilter + 90-model sweep) over
  // a bounded slice: 4 threads must reproduce the 1-thread matrix bit
  // for bit.
  enumeration::ExhaustiveOptions slice;
  slice.bounds.max_accesses_per_thread = 2;
  slice.bounds.num_locations = 2;
  slice.chunk_size = 256;

  std::vector<core::MemoryModel> models;
  for (const auto& c : explore::model_space(true)) {
    models.push_back(c.to_model());
  }

  auto run = [&](int threads) {
    engine::EngineOptions options;
    options.num_threads = threads;
    engine::VerdictEngine eng(options);
    enumeration::ExhaustiveStream stream(slice);
    explore::TheoremHarnessReport report;
    const auto matrix = explore::distinguishability_streamed(
        eng, models, stream, explore::TheoremHarnessOptions{}, &report);
    return std::make_pair(matrix, report.stream.novel_tests);
  };

  const auto [serial_matrix, serial_novel] = run(1);
  const auto [parallel_matrix, parallel_novel] = run(4);
  EXPECT_TRUE(serial_matrix == parallel_matrix);
  EXPECT_EQ(serial_novel, parallel_novel);
  EXPECT_GT(serial_matrix.distinguished_pairs(), 0);
}

TEST(StreamDeterminism, HarnessSweepRunsOnTheCallersEngine) {
  // The candidate sweep runs in the stream's sink on the caller's
  // engine: every batch that engine ran is the stream's or the
  // sweep's, and the report keeps the two apart.
  enumeration::ExhaustiveOptions slice;
  slice.bounds.max_accesses_per_thread = 2;
  slice.chunk_size = 512;

  std::vector<core::MemoryModel> models;
  for (const auto& c : explore::model_space(true)) {
    models.push_back(c.to_model());
  }

  for (const int threads : {1, 4}) {
    engine::EngineOptions options;
    options.num_threads = threads;
    engine::VerdictEngine eng(options);
    enumeration::ExhaustiveStream stream(slice);
    explore::TheoremHarnessReport report;
    (void)explore::distinguishability_streamed(
        eng, models, stream, explore::TheoremHarnessOptions{}, &report);
    const engine::EngineStats& total = eng.total_stats();
    EXPECT_GT(report.sweep.checks_run, 0u) << "threads=" << threads;
    EXPECT_EQ(total.checks_run,
              report.stream.engine.checks_run + report.sweep.checks_run)
        << "threads=" << threads;
    EXPECT_EQ(total.cells, report.stream.engine.cells + report.sweep.cells)
        << "threads=" << threads;
  }
}

}  // namespace
}  // namespace mcmc
