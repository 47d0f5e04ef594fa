// The parallel streaming pipeline: determinism under any thread count,
// hash-based sharded dedup (with collision audit), producer-overlap
// chunk hand-off, and exception propagation from pool tasks through
// run_matrix / run_stream.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "engine/audited_source.h"
#include "engine/sharded_key_set.h"
#include "engine/test_stream.h"
#include "engine/thread_pool.h"
#include "engine/verdict_engine.h"
#include "enumeration/exhaustive.h"
#include "enumeration/suite.h"
#include "explore/distinguish.h"
#include "explore/space.h"
#include "models/zoo.h"
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
    litmus::structural_key(test, structural);
    EXPECT_EQ(structural, litmus::structural_key(test));
  }
}

// ---------------------------------------------------------------------------
// engine::ShardedKeySet
// ---------------------------------------------------------------------------

TEST(ShardedKeySet, ShardCountRoundsUpToPowerOfTwo) {
  EXPECT_EQ(engine::ShardedKeySet(1).num_shards(), 1);
  EXPECT_EQ(engine::ShardedKeySet(3).num_shards(), 4);
  EXPECT_EQ(engine::ShardedKeySet(64).num_shards(), 64);
  EXPECT_EQ(engine::ShardedKeySet(0).num_shards(),
            engine::ShardedKeySet::kDefaultShards);
}

TEST(ShardedKeySet, MinIndexOwnsWithinChunkAndEarlierChunksSeal) {
  engine::ShardedKeySet set(4);
  const util::Key128 k1 = util::hash128(std::string("k1"));
  const util::Key128 k2 = util::hash128(std::string("k2"));

  set.begin_chunk();
  EXPECT_FALSE(set.claim(k1, 7));  // claims arrive out of order
  EXPECT_FALSE(set.claim(k1, 3));
  EXPECT_FALSE(set.claim(k1, 5));
  EXPECT_FALSE(set.claim(k2, 1));
  EXPECT_EQ(set.owner(k1), 3u);  // the minimum index wins
  EXPECT_EQ(set.owner(k2), 1u);

  set.begin_chunk();
  EXPECT_TRUE(set.claim(k1, 0));  // sealed by the previous chunk
  EXPECT_TRUE(set.claim(k2, 2));  // ditto
  EXPECT_EQ(set.size(), 2u);
}

TEST(ShardedKeySet, SealedKeysReportDuplicateOfPast) {
  engine::ShardedKeySet set(8);
  const util::Key128 k = util::hash128(std::string("key"));
  set.begin_chunk();
  EXPECT_FALSE(set.claim(k, 0));
  EXPECT_EQ(set.owner(k), 0u);
  set.begin_chunk();
  EXPECT_TRUE(set.claim(k, 4));
  EXPECT_TRUE(set.claim(k, 9));
}

TEST(ShardedKeySet, ParallelClaimsResolveDeterministically) {
  // Claims race from several threads; the resolved owner must be the
  // minimum claiming index, run after run.
  for (int round = 0; round < 20; ++round) {
    engine::ShardedKeySet set(16);
    set.begin_chunk();
    const util::Key128 shared = util::hash128(std::string("shared"));
    std::vector<std::thread> threads;
    std::atomic<int> sealed{0};
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&, t] {
        for (std::uint32_t i = 0; i < 64; ++i) {
          if (set.claim(shared, i * 4 + static_cast<std::uint32_t>(t))) {
            sealed.fetch_add(1);
          }
        }
      });
    }
    for (auto& th : threads) th.join();
    EXPECT_EQ(sealed.load(), 0);
    EXPECT_EQ(set.owner(shared), 0u);
    EXPECT_EQ(set.size(), 1u);
  }
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
  engine::ChunkPrefetcher prefetcher(wrapped, 2);
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
  // only while none waits, so at most depth + 2 of them exist.
  engine::VectorSource recycled(suite, 13);
  RefillProbe probe(recycled);
  std::vector<std::vector<std::string>> recycled_chunks;
  {
    engine::ChunkPrefetcher recycler(probe, 2);
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
  EXPECT_GE(probe.refills(), probe.calls() - 4);
}

TEST(ChunkPrefetcher, EarlyDestructionDoesNotHang) {
  const auto suite = enumeration::corollary1_suite(true);
  engine::VectorSource wrapped(suite, 1);  // many small chunks, depth 1
  {
    engine::ChunkPrefetcher prefetcher(wrapped, 1);
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
      engine::ChunkPrefetcher prefetcher(wrapped, 1);
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
  engine::ChunkPrefetcher prefetcher(source, 2);
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
  engine::ChunkPrefetcher prefetcher(source, 1);
  std::vector<litmus::LitmusTest> chunk;
  int received = 0;
  bool threw = false;
  // At most depth + 2 fresh buffers exist, so a refill, and with it
  // the error, comes within a few pulls.
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
  SleepingSource overlapped(suite, kNap);
  const auto with_overlap = eng.run_stream(probe, overlapped, nullptr);
  ASSERT_TRUE(with_overlap.overlapped);
  EXPECT_EQ(with_overlap.tests_streamed, suite.size());
  EXPECT_GE(with_overlap.stages.wait, injected / 2);
  EXPECT_NE(with_overlap.stages.to_string().find(" wait="),
            std::string::npos);

  engine::StreamOptions serial;
  serial.overlap_production = false;
  SleepingSource direct(suite, kNap);
  const auto without = eng.run_stream(probe, direct, nullptr, serial);
  EXPECT_EQ(without.stages.wait, 0.0);
  EXPECT_GE(without.stages.produce, injected / 2);
}

TEST(StreamStages, ReleaseRecordsTheConsumersShareOfChunkTeardown) {
  // The consumer's share of tearing down each chunk before the next
  // pull is charged to `release`, with and without the producer
  // thread, and folded into the run totals the stage line prints.
  // Under overlap that share is the hand-back: the producer destroys
  // the tests and refills the storage.  Without overlap the consumer
  // clears the chunk and the source refills the same vector.
  enumeration::ExhaustiveOptions slice;
  slice.bounds.max_accesses_per_thread = 2;
  slice.chunk_size = 256;
  engine::VerdictEngine eng;
  for (const bool overlap : {true, false}) {
    engine::StreamOptions options;
    options.overlap_production = overlap;
    enumeration::ExhaustiveStream stream(slice);
    RefillProbe probe(stream);
    double chunk_release = 0.0;
    const auto stats = eng.run_stream(
        {models::sc()}, probe,
        [&](const std::vector<litmus::LitmusTest>&,
            const std::vector<util::Key128>&, const engine::BitMatrix&,
            const engine::StreamChunkStats& cs) {
          chunk_release += cs.stages.release;
        },
        options);
    ASSERT_GT(stats.chunks, 1u) << overlap;
    EXPECT_GT(stats.stages.release, 0.0) << overlap;
    // The final, empty pull releases the last chunk; no sink sees it.
    EXPECT_GE(stats.stages.release, chunk_release) << overlap;
    EXPECT_NE(stats.stages.to_string().find(" release="), std::string::npos);
    // Only the first pulls get fresh storage: under overlap at most
    // depth + 2 = 3 chunk buffers circulate, without it one.
    EXPECT_GE(probe.refills(), probe.calls() - (overlap ? 3 : 1)) << overlap;
  }
}

// ---------------------------------------------------------------------------
// Exception propagation: pool -> run_matrix -> run_stream
// ---------------------------------------------------------------------------

TEST(PoolExceptions, FirstTaskExceptionRethrownAndPoolReusable) {
  engine::WorkStealingPool pool(4);
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
  // A single-slot pool pops its own deque LIFO, so index 99 executes
  // first; throwing there must abandon the remaining 99 tasks (popped
  // and counted, never run) instead of grinding through them.
  engine::WorkStealingPool pool(1);
  std::atomic<std::size_t> ran{0};
  EXPECT_THROW(pool.parallel_for(100,
                                 [&](std::size_t i) {
                                   ran.fetch_add(1);
                                   if (i == 99) throw std::runtime_error("x");
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

/// Streams the 2-access slice through the fingerprint audit.
StreamCapture run_slice_stream(int threads, bool overlap) {
  enumeration::ExhaustiveOptions options;
  options.bounds.max_accesses_per_thread = 2;
  options.chunk_size = 512;
  enumeration::ExhaustiveStream stream(options);
  engine::AuditedSource audited(stream);

  engine::EngineOptions engine_options;
  engine_options.num_threads = threads;
  engine::VerdictEngine eng(engine_options);

  engine::StreamOptions stream_options;
  stream_options.overlap_production = overlap;

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
          for (int m = 0; m < verdicts.rows(); ++m) {
            capture.verdict_bits.push_back(
                verdicts.get(m, static_cast<int>(i)) ? 1 : 0);
          }
        }
        capture.chunk_streamed.push_back(cs.streamed);
        capture.chunk_novel.push_back(cs.novel);
        capture.chunk_duplicates.push_back(cs.duplicates);
      },
      stream_options);
  // The audit saw every streamed test; the engine's novel tests must be
  // exactly its classes.
  EXPECT_EQ(stats.novel_tests, audited.classes());
  return capture;
}

TEST(StreamDeterminism, TwoAccessSliceBitForBitAcrossThreadCounts) {
  // The serial reference: 1 thread, no producer overlap (the collision
  // audit must hold on the whole slice).
  const StreamCapture serial = run_slice_stream(1, /*overlap=*/false);
  ASSERT_FALSE(serial.novel_names.empty());

  // Parallel runs with different thread counts, overlap on (the audit
  // then runs on the producer thread): every delivered name, verdict
  // bit, and chunk stat identical.
  for (const int threads : {2, 4}) {
    const StreamCapture parallel = run_slice_stream(threads, /*overlap=*/true);
    EXPECT_EQ(parallel.novel_names, serial.novel_names) << threads;
    EXPECT_EQ(parallel.verdict_bits, serial.verdict_bits) << threads;
    EXPECT_EQ(parallel.chunk_streamed, serial.chunk_streamed) << threads;
    EXPECT_EQ(parallel.chunk_novel, serial.chunk_novel) << threads;
    EXPECT_EQ(parallel.chunk_duplicates, serial.chunk_duplicates) << threads;
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

}  // namespace
}  // namespace mcmc
