// Unit coverage of the persistent verdict store: round trips, the
// atomic-commit protocol, delta segments (O(delta) commits, folding,
// checksum chaining, stale and orphaned segments, save() retiring
// them), every corruption class open() must classify (truncation, bit
// flip, bad magic, trailing bytes, version and zoo mismatches, leftover
// temp files, a damaged segment), and fault-injected save and commit
// paths (torn writes, ENOSPC-style budgets, failing
// fsync/create/rename/remove).  The invariant throughout: recovery
// never throws, never yields a wrong verdict, and degrades to an empty
// store at worst.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/formula.h"
#include "core/model.h"
#include "store/fs.h"
#include "store/verdict_store.h"
#include "store_cells.h"
#include "util/bytes.h"
#include "util/hash128.h"

namespace mcmc::store {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "store_test_" + name + ".vstore";
}

std::string segment(const std::string& path, int index) {
  return path + "." + std::to_string(index);
}

/// Removes the base, its segments, and their temp and quarantine files.
void scrub(const std::string& path) {
  for (int i = 0; i <= 64; ++i) {
    const std::string file = i == 0 ? path : segment(path, i);
    std::remove(file.c_str());
    std::remove((file + ".tmp").c_str());
    std::remove((file + ".corrupt").c_str());
  }
}

bool exists(const std::string& path) { return RealFs::instance().exists(path); }

StoreMeta small_meta() {
  StoreMeta meta;
  meta.model_keys = {"F:alpha", "F:beta", "F:gamma"};
  return meta;
}

util::Key128 key_of(int i) {
  const std::string s = "test-" + std::to_string(i);
  return util::hash128(s);
}

std::string slurp(const std::string& path) {
  std::string out;
  EXPECT_TRUE(RealFs::instance().read_file(path, out));
  return out;
}

void spit(const std::string& path, const std::string& bytes) {
  auto w = RealFs::instance().create(path);
  ASSERT_NE(w, nullptr);
  ASSERT_TRUE(w->write(bytes.data(), bytes.size()));
  ASSERT_TRUE(w->close());
}

// ---------------------------------------------------------------------------
// Metadata and keys
// ---------------------------------------------------------------------------

TEST(StoreMeta, CustomPredicateModelsGetNoKey) {
  const core::MemoryModel plain("plain", core::f_false());
  EXPECT_FALSE(model_store_key(plain).empty());
  core::CustomPredicate pred = [](const core::Analysis&, core::EventId,
                                  core::EventId) { return false; };
  const core::MemoryModel custom("custom", core::Formula::custom("p", pred));
  EXPECT_EQ(model_store_key(custom), "");
}

TEST(StoreMeta, ZooFingerprintSensitiveToOrderAndContent) {
  StoreMeta a = small_meta();
  StoreMeta b = small_meta();
  EXPECT_EQ(a.zoo_fingerprint(), b.zoo_fingerprint());
  std::swap(b.model_keys[0], b.model_keys[1]);
  EXPECT_NE(a.zoo_fingerprint(), b.zoo_fingerprint());
  StoreMeta c = small_meta();
  c.model_keys.push_back("F:delta");
  EXPECT_NE(a.zoo_fingerprint(), c.zoo_fingerprint());
}

// ---------------------------------------------------------------------------
// In-memory bit semantics
// ---------------------------------------------------------------------------

TEST(VerdictStore, ProbeMatchesSetAndCountsHits) {
  VerdictStore store(small_meta());
  EXPECT_EQ(store.column_of("F:beta"), 1);
  EXPECT_EQ(store.column_of("F:unknown"), -1);
  EXPECT_EQ(store.column_of(""), -1);

  EXPECT_FALSE(probe_cell(store, key_of(1), 0).has_value());
  EXPECT_EQ(store.misses(), 1u);
  set_cell(store, key_of(1), 0, true);
  set_cell(store, key_of(1), 2, false);
  ASSERT_TRUE(probe_cell(store, key_of(1), 0).has_value());
  EXPECT_TRUE(*probe_cell(store, key_of(1), 0));
  ASSERT_TRUE(probe_cell(store, key_of(1), 2).has_value());
  EXPECT_FALSE(*probe_cell(store, key_of(1), 2));
  EXPECT_FALSE(probe_cell(store, key_of(1), 1).has_value());  // column unset
  EXPECT_FALSE(probe_cell(store, key_of(2), 0).has_value());  // row absent
}

TEST(VerdictStore, ConcurrentProbesWithSerializedAppender) {
  // The documented contract (verdict_store.h): any number of probing
  // threads concurrent with one appending thread and with save().
  // Every bit an appender publishes must read back exactly as written,
  // and hit+miss totals must not lose counts.  Run under the tsan CI
  // job, this is the serve-path race detector.
  const std::string path = temp_path("concurrent");
  scrub(path);
  VerdictStore store(small_meta());
  constexpr int kKeys = 512;
  constexpr int kReaders = 4;

  std::atomic<int> published{0};
  std::thread appender([&] {
    for (int i = 0; i < kKeys; ++i) {
      set_cell(store, key_of(i), 0, i % 3 == 0);
      set_cell(store, key_of(i), 2, i % 5 == 0);
      published.store(i + 1, std::memory_order_release);
      if (i % 128 == 0) {
        EXPECT_TRUE(store.save(path));
      }
    }
  });
  std::vector<std::thread> readers;
  std::atomic<bool> wrong{false};
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      for (int round = 0; round < 4; ++round) {
        const int upto = published.load(std::memory_order_acquire);
        for (int i = 0; i < upto; ++i) {
          const auto bit = probe_cell(store, key_of(i), 0);
          if (!bit.has_value() || *bit != (i % 3 == 0)) wrong.store(true);
        }
        (void)store.size();
      }
    });
  }
  appender.join();
  for (auto& t : readers) t.join();
  EXPECT_FALSE(wrong.load());

  // Totals are exact even though probes raced: every probe above was
  // of a published cell, so every one counted a hit; the misses
  // counter never moved.
  EXPECT_EQ(store.misses(), 0u);
  ASSERT_TRUE(store.save(path));
  auto reopened = VerdictStore::open(path, small_meta());
  EXPECT_EQ(reopened.outcome, OpenOutcome::Loaded);
  EXPECT_EQ(reopened.store->size(), static_cast<std::size_t>(kKeys));
  scrub(path);
}

TEST(VerdictStore, MixedProbeAppendCheckpointScheduleUnderContention) {
  // litmusd-shaped schedule: the serving tier runs batched shared-lock
  // probes (one SharedLock per request batch) concurrent with the
  // engine's batched exclusive write-back (one ExclusiveLock per
  // chunk), while a checkpoint thread snapshots and persists progress.
  // This exercises the annotated _locked contract end to end -- every
  // access below holds exactly the lock mode its annotation demands --
  // and under the tsan CI job it is the detector for the batched
  // write-back paths that the per-cell test above cannot reach.
  const std::string path = temp_path("mixed_schedule");
  scrub(path);
  VerdictStore store(small_meta());
  constexpr int kChunks = 32;
  constexpr int kChunkSize = 16;
  constexpr int kProbers = 3;

  std::atomic<int> chunks_published{0};
  std::atomic<bool> wrong{false};

  // Columns 0 and 1 of every row: the write-back's mask and the
  // probes' want.
  const std::uint64_t cols01 = 0b11;

  std::thread appender([&] {
    for (int c = 0; c < kChunks; ++c) {
      {
        // One exclusive acquisition covers the whole chunk.
        util::ExclusiveLock lock(store.mu());
        for (int j = 0; j < kChunkSize; ++j) {
          const int i = c * kChunkSize + j;
          const std::uint64_t bits =
              (i % 3 == 0 ? 1u : 0u) | (i % 7 == 0 ? 2u : 0u);
          store.write_row_locked(key_of(i), &cols01, &bits);
        }
      }
      chunks_published.store(c + 1, std::memory_order_release);
    }
  });

  std::vector<std::thread> probers;
  for (int r = 0; r < kProbers; ++r) {
    probers.emplace_back([&] {
      std::uint64_t valid = 0;
      std::uint64_t bits = 0;
      for (int round = 0; round < 8; ++round) {
        const int upto =
            chunks_published.load(std::memory_order_acquire) * kChunkSize;
        // One shared acquisition covers the whole probe batch.
        util::SharedLock lock(store.mu());
        for (int i = 0; i < upto; ++i) {
          store.probe_words_locked(key_of(i), &cols01, &valid, &bits);
          if (valid != cols01) {
            wrong.store(true);
            continue;
          }
          if ((bits & 1u) != (i % 3 == 0 ? 1u : 0u)) wrong.store(true);
          if (((bits >> 1) & 1u) != (i % 7 == 0 ? 1u : 0u)) {
            wrong.store(true);
          }
        }
      }
    });
  }

  std::thread checkpointer([&] {
    for (int round = 0; round < 8; ++round) {
      // The last round waits for the last chunk, so the final checkpoint
      // covers every chunk however the threads are scheduled.
      while (round == 7 &&
             chunks_published.load(std::memory_order_acquire) < kChunks) {
        std::this_thread::yield();
      }
      const int done = chunks_published.load(std::memory_order_acquire);
      StreamCheckpoint ck;
      ck.chunks = static_cast<std::uint64_t>(done);
      ck.tests_streamed = static_cast<std::uint64_t>(done) * kChunkSize;
      store.set_checkpoint(ck);
      const auto back = store.checkpoint();
      if (!back.has_value() || back->tests_streamed != ck.tests_streamed ||
          back->chunks * kChunkSize != back->tests_streamed) {
        wrong.store(true);
      }
      if (round % 3 == 0) {
        EXPECT_TRUE(store.save(path));
      }
    }
  });

  appender.join();
  for (auto& t : probers) t.join();
  checkpointer.join();
  EXPECT_FALSE(wrong.load());
  EXPECT_EQ(store.misses(), 0u);

  ASSERT_TRUE(store.save(path));
  auto reopened = VerdictStore::open(path, small_meta());
  EXPECT_EQ(reopened.outcome, OpenOutcome::Loaded) << reopened.detail;
  EXPECT_EQ(reopened.store->size(),
            static_cast<std::size_t>(kChunks * kChunkSize));
  ASSERT_TRUE(reopened.store->checkpoint().has_value());
  EXPECT_EQ(reopened.store->checkpoint()->chunks,
            static_cast<std::uint64_t>(kChunks));
  scrub(path);
}

TEST(VerdictStore, ProbeWordsCopiesPartialRowsAndCountsWantedColumns) {
  VerdictStore store(small_meta());
  const std::uint64_t cols01 = 0b011;
  const std::uint64_t allowed0 = 0b001;  // col 0 allowed, col 1 forbidden
  {
    util::ExclusiveLock lock(store.mu());
    store.write_row_locked(key_of(7), &cols01, &allowed0);
  }
  util::SharedLock lock(store.mu());
  std::uint64_t valid = 0;
  std::uint64_t bits = 0;
  const std::uint64_t cols012 = 0b111;
  // The whole row comes back whatever is wanted, column 2 still unset;
  // only the wanted columns count, as a hit if valid, else a miss.
  store.probe_words_locked(key_of(7), &cols012, &valid, &bits);
  EXPECT_EQ(valid, cols01);
  EXPECT_EQ(bits, allowed0);
  EXPECT_EQ(store.hits(), 2u);
  EXPECT_EQ(store.misses(), 1u);
  const std::uint64_t col2 = 0b100;
  store.probe_words_locked(key_of(7), &col2, &valid, &bits);
  EXPECT_EQ(valid, cols01);
  EXPECT_EQ(store.hits(), 2u);
  EXPECT_EQ(store.misses(), 2u);
  // An absent row reads as zeros, every wanted column a miss.
  store.probe_words_locked(key_of(8), &cols012, &valid, &bits);
  EXPECT_EQ(valid, 0u);
  EXPECT_EQ(bits, 0u);
  EXPECT_EQ(store.misses(), 5u);
}

// ---------------------------------------------------------------------------
// Save / open round trips
// ---------------------------------------------------------------------------

TEST(VerdictStore, SaveOpenRoundTripsEntriesAndCheckpoint) {
  const std::string path = temp_path("roundtrip");
  scrub(path);
  VerdictStore store(small_meta());
  for (int i = 0; i < 100; ++i) {
    set_cell(store, key_of(i), i % 3, i % 2 == 0);
  }
  StreamCheckpoint ck;
  ck.chunks = 5;
  ck.tests_streamed = 640;
  ck.novel_tests = 100;
  ck.duplicate_tests = 540;
  ck.source_cursor = {1, 2, 3};
  ck.sink_state = {9, 8};
  store.set_checkpoint(ck);
  ASSERT_TRUE(store.save(path));

  auto opened = VerdictStore::open(path, small_meta());
  EXPECT_EQ(opened.outcome, OpenOutcome::Loaded) << opened.detail;
  EXPECT_EQ(opened.store->size(), 100u);
  for (int i = 0; i < 100; ++i) {
    auto bit = probe_cell(*opened.store, key_of(i), i % 3);
    ASSERT_TRUE(bit.has_value()) << i;
    EXPECT_EQ(*bit, i % 2 == 0) << i;
    EXPECT_FALSE(
        probe_cell(*opened.store, key_of(i), (i + 1) % 3).has_value());
  }
  ASSERT_TRUE(opened.store->checkpoint().has_value());
  EXPECT_EQ(opened.store->checkpoint()->chunks, 5u);
  EXPECT_EQ(opened.store->checkpoint()->tests_streamed, 640u);
  EXPECT_EQ(opened.store->checkpoint()->novel_tests, 100u);
  EXPECT_EQ(opened.store->checkpoint()->duplicate_tests, 540u);
  EXPECT_EQ(opened.store->checkpoint()->source_cursor,
            (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_EQ(opened.store->checkpoint()->sink_state,
            (std::vector<std::uint64_t>{9, 8}));
  scrub(path);
}

TEST(VerdictStore, EqualStatesSerializeToIdenticalBytes) {
  const std::string p1 = temp_path("det1");
  const std::string p2 = temp_path("det2");
  scrub(p1);
  scrub(p2);
  VerdictStore a(small_meta());
  VerdictStore b(small_meta());
  for (int i = 0; i < 50; ++i) {
    set_cell(a, key_of(i), i % 3, true);
    set_cell(b, key_of(i), i % 3, true);
  }
  ASSERT_TRUE(a.save(p1));
  ASSERT_TRUE(b.save(p2));
  EXPECT_EQ(slurp(p1), slurp(p2));
  scrub(p1);
  scrub(p2);
}

TEST(VerdictStore, MissingFileOpensFresh) {
  const std::string path = temp_path("missing");
  scrub(path);
  auto opened = VerdictStore::open(path, small_meta());
  EXPECT_EQ(opened.outcome, OpenOutcome::Fresh);
  EXPECT_EQ(opened.store->size(), 0u);
}

// ---------------------------------------------------------------------------
// The flat row index
// ---------------------------------------------------------------------------

/// 64 columns: a row's 64 verdict bits tell whose row a probe found.
StoreMeta wide_meta() {
  StoreMeta meta;
  for (int i = 0; i < 64; ++i) {
    meta.model_keys.push_back("F:m" + std::to_string(i));
  }
  return meta;
}

/// Row i's verdict word.
std::uint64_t row_pattern(std::size_t i) { return util::mix64(i * 31 + 7); }

/// `n` keys that crowd the index: the all-zero key, clusters of 48
/// keys sharing `hi` (one home slot), and neighbours sharing `hi`, the
/// low half of `lo` (the index's tag), its high half, or `hi` and the
/// low half.  Each shares at most one of these with its neighbour, so
/// the keys are distinct unless two random halves collide.
std::vector<util::Key128> crowded_keys(std::size_t n) {
  constexpr std::uint64_t kLow = 0xffffffffULL;
  std::vector<util::Key128> keys = {util::Key128{}};
  for (std::uint64_t i = 1; keys.size() < n; ++i) {
    util::Key128 key{util::mix64(i), util::mix64(i ^ 0x5bd1e995ULL)};
    const util::Key128 prev = keys.back();
    if (i % 4096 != 0 && i % 4096 < 48) key.hi = keys[i - i % 4096].hi;
    if (i % 17 == 0) {
      key.hi = prev.hi;
      key.lo = (key.lo & ~kLow) | (prev.lo & kLow);
    } else if (i % 13 == 0) {
      key.lo = (key.lo & kLow) | (prev.lo & ~kLow);
    } else if (i % 11 == 0) {
      key.lo = (key.lo & ~kLow) | (prev.lo & kLow);
    } else if (i % 7 == 0) {
      key.hi = prev.hi;
    }
    keys.push_back(key);
  }
  return keys;
}

/// Probes every key of `keys`: the first `present` must find their own
/// rows (every column valid, row_pattern bits), the rest must miss.
void expect_rows(const VerdictStore& store,
                 const std::vector<util::Key128>& keys, std::size_t present,
                 const std::string& label) {
  const std::uint64_t all = ~0ULL;
  std::size_t wrong = 0;
  util::SharedLock lock(store.mu());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    std::uint64_t valid = 0;
    std::uint64_t bits = 0;
    store.probe_words_locked(keys[i], &all, &valid, &bits);
    const bool ok = i < present ? valid == all && bits == row_pattern(i)
                                : valid == 0 && bits == 0;
    if (!ok) ++wrong;
  }
  EXPECT_EQ(wrong, 0u) << label;
}

TEST(VerdictStoreIndex, EveryKeyFindsItsRowAcrossEveryRehash) {
  constexpr std::size_t kKeys = 200000;
  const std::vector<util::Key128> keys = crowded_keys(kKeys + 512);
  ASSERT_EQ(std::set<util::Key128>(keys.begin(), keys.end()).size(),
            keys.size());
  VerdictStore store(wide_meta());
  const std::uint64_t all = ~0ULL;
  for (std::size_t i = 0; i < kKeys; ++i) {
    {
      util::ExclusiveLock lock(store.mu());
      const std::uint64_t bits = row_pattern(i);
      store.write_row_locked(keys[i], &all, &bits);
    }
    // The index doubles at 70% load from 64 slots; a full check at every
    // power of two falls between each rehash and the next.
    const std::size_t n = i + 1;
    if ((n & (n - 1)) == 0) {
      ASSERT_EQ(store.size(), n);
      const auto upto =
          static_cast<std::ptrdiff_t>(std::min(keys.size(), 2 * n));
      expect_rows(store, {keys.begin(), keys.begin() + upto}, n,
                  "after " + std::to_string(n) + " rows");
    }
  }
  EXPECT_EQ(store.size(), kKeys);
  expect_rows(store, keys, kKeys, "all rows");

  // A reopened store sizes its index once and finds the same rows.
  const std::string path = temp_path("index_crowded");
  scrub(path);
  ASSERT_TRUE(store.save(path));
  auto opened = VerdictStore::open(path, wide_meta());
  ASSERT_EQ(opened.outcome, OpenOutcome::Loaded) << opened.detail;
  EXPECT_EQ(opened.store->size(), kKeys);
  expect_rows(*opened.store, keys, kKeys, "reopened");
  scrub(path);
}

TEST(VerdictStoreIndex, RowsAddedOutOfHashOrderRoundTripByteForByte) {
  // Insert in descending `hi` order (the reverse of home-slot order);
  // a base lists rows in insertion order, and reopening and saving it
  // again writes the same rows, byte for byte.
  std::vector<util::Key128> keys = crowded_keys(3000);
  std::sort(keys.begin(), keys.end(),
            [](const util::Key128& a, const util::Key128& b) { return b < a; });
  VerdictStore store(wide_meta());
  const std::uint64_t all = ~0ULL;
  {
    util::ExclusiveLock lock(store.mu());
    for (std::size_t i = 0; i < keys.size(); ++i) {
      const std::uint64_t bits = row_pattern(i);
      store.write_row_locked(keys[i], &all, &bits);
    }
  }
  const std::string p1 = temp_path("index_order1");
  const std::string p2 = temp_path("index_order2");
  scrub(p1);
  scrub(p2);
  ASSERT_TRUE(store.save(p1));
  auto opened = VerdictStore::open(p1, wide_meta());
  ASSERT_EQ(opened.outcome, OpenOutcome::Loaded) << opened.detail;
  expect_rows(*opened.store, keys, keys.size(), "reopened");
  ASSERT_TRUE(opened.store->save(p2));

  // header(56) generation(8) count(8) words(4) 0(4), then rows of
  // key(16) valid(8) bits(8), in insertion order.
  const std::string first = slurp(p1);
  const std::string second = slurp(p2);
  constexpr std::size_t kRows = 80;
  constexpr std::size_t kRowBytes = 32;
  ASSERT_EQ(first.size(), second.size());
  ASSERT_GT(first.size(), kRows + keys.size() * kRowBytes);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    std::string key;
    util::append_key128(key, keys[i]);
    ASSERT_EQ(first.substr(kRows + i * kRowBytes, 16), key) << i;
  }
  // Only the generation (the second save is the next one) and so the
  // trailer differ.
  EXPECT_EQ(first.substr(0, 56), second.substr(0, 56));
  EXPECT_EQ(first.substr(64, first.size() - 64 - 16),
            second.substr(64, second.size() - 64 - 16));
  util::ByteReader g1(first.data() + 56, 8);
  util::ByteReader g2(second.data() + 56, 8);
  EXPECT_EQ(g2.read_u64(), g1.read_u64() + 1);
  scrub(p1);
  scrub(p2);
}

// ---------------------------------------------------------------------------
// Delta segments
// ---------------------------------------------------------------------------

/// Every (key, column) bit of `store` over keys 0..n-1, as probe_cell
/// reports it: -1 absent, else the verdict.
std::vector<int> cells(const VerdictStore& store, int n) {
  std::vector<int> out;
  for (int i = 0; i < n; ++i) {
    for (int col = 0; col < 3; ++col) {
      const auto bit = probe_cell(store, key_of(i), col);
      out.push_back(bit.has_value() ? (*bit ? 1 : 0) : -1);
    }
  }
  return out;
}

class StoreSegments : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    path_ = temp_path(std::string("segments_") + info->name());
    scrub(path_);
    store_ = std::make_unique<VerdictStore>(small_meta());
    for (int i = 0; i < 200; ++i) set_cell(*store_, key_of(i), i % 3, true);
    ASSERT_TRUE(store_->save(path_));
    ASSERT_EQ(store_->dirty_rows(), 0u);
    base_bytes_ = slurp(path_);
  }
  void TearDown() override { scrub(path_); }

  /// Opens path_ and expects it to hold exactly `store_`'s cells.
  void expect_reopens_to_store(const std::string& label) {
    auto opened = VerdictStore::open(path_, small_meta());
    EXPECT_EQ(opened.outcome, OpenOutcome::Loaded) << label << ": "
                                                   << opened.detail;
    EXPECT_EQ(opened.store->size(), store_->size()) << label;
    EXPECT_EQ(cells(*opened.store, 260), cells(*store_, 260)) << label;
  }

  std::string path_;
  std::unique_ptr<VerdictStore> store_;
  std::string base_bytes_;
};

TEST_F(StoreSegments, CommitWritesOnlyTheChangedRows) {
  set_cell(*store_, key_of(3), 1, true);     // an existing row, new column
  set_cell(*store_, key_of(250), 0, false);  // a new row
  EXPECT_EQ(store_->dirty_rows(), 2u);
  const std::uint64_t before = store_->bytes_committed();
  ASSERT_TRUE(store_->commit(path_));
  EXPECT_EQ(store_->dirty_rows(), 0u);
  // Two rows plus framing, not the 200-row store.
  const std::uint64_t written = store_->bytes_committed() - before;
  EXPECT_LT(written, 300u);
  EXPECT_EQ(slurp(path_), base_bytes_);  // the base is untouched
  ASSERT_TRUE(exists(segment(path_, 1)));
  EXPECT_EQ(slurp(segment(path_, 1)).size(), written);
  expect_reopens_to_store("base + segment");
}

TEST_F(StoreSegments, UnchangedWritesDirtyNothingAndCommitNothing) {
  // Rewriting bits the store already holds (the batch path writes back
  // store-served verdicts) must not dirty a row.
  VerdictStore& store = *store_;
  set_cell(store, key_of(0), 0, true);
  const std::vector<std::uint64_t> mask = {0b111};
  const std::vector<std::uint64_t> bits = {0b001};
  {
    util::ExclusiveLock lock(store.mu());
    store.write_row_locked(key_of(3), mask.data(), bits.data());
  }
  EXPECT_EQ(store.dirty_rows(), 1u);  // key 3 gained columns 1 and 2
  ASSERT_TRUE(store.commit(path_));
  set_cell(store, key_of(3), 1, false);
  {
    util::ExclusiveLock lock(store.mu());
    store.write_row_locked(key_of(3), mask.data(), bits.data());
  }
  EXPECT_EQ(store.dirty_rows(), 0u);
  const std::uint64_t before = store.bytes_committed();
  ASSERT_TRUE(store.commit(path_));
  EXPECT_EQ(store.bytes_committed(), before);
  EXPECT_FALSE(exists(segment(path_, 2)));
  expect_reopens_to_store("after a no-op commit");
}

TEST_F(StoreSegments, LatestCheckpointWinsAcrossSegments) {
  // Each seal's segment carries the whole checkpoint, a few words, and
  // replaces the one before it.
  std::uint64_t checkpoint_bytes = 0;
  for (int seal = 0; seal < 3; ++seal) {
    StreamCheckpoint ck;
    ck.chunks = static_cast<std::uint64_t>(seal + 1);
    ck.source_cursor = {static_cast<std::uint64_t>(seal)};
    ck.sink_state = {7};
    store_->set_checkpoint(ck);
    const std::uint64_t before = store_->bytes_committed();
    ASSERT_TRUE(store_->commit(path_));
    if (seal > 0) {
      EXPECT_EQ(store_->bytes_committed() - before, checkpoint_bytes) << seal;
    }
    checkpoint_bytes = store_->bytes_committed() - before;
  }
  EXPECT_TRUE(exists(segment(path_, 3)));
  auto opened = VerdictStore::open(path_, small_meta());
  ASSERT_EQ(opened.outcome, OpenOutcome::Loaded) << opened.detail;
  ASSERT_TRUE(opened.store->checkpoint().has_value());
  EXPECT_EQ(opened.store->checkpoint()->chunks, 3u);
  EXPECT_EQ(opened.store->checkpoint()->source_cursor,
            (std::vector<std::uint64_t>{2}));
  EXPECT_EQ(opened.store->checkpoint()->sink_state,
            (std::vector<std::uint64_t>{7}));

  // A resumed process goes on replacing it.
  StreamCheckpoint more;
  more.chunks = 4;
  opened.store->set_checkpoint(more);
  ASSERT_TRUE(opened.store->commit(path_));
  auto again = VerdictStore::open(path_, small_meta());
  ASSERT_TRUE(again.store->checkpoint().has_value());
  EXPECT_EQ(again.store->checkpoint()->chunks, 4u);
  EXPECT_TRUE(again.store->checkpoint()->source_cursor.empty());

  // Folding drops the chain into one checkpoint-free base.
  again.store->clear_checkpoint();
  ASSERT_TRUE(again.store->commit(path_, nullptr, /*fold=*/true));
  EXPECT_FALSE(exists(segment(path_, 1)));
  auto folded = VerdictStore::open(path_, small_meta());
  EXPECT_EQ(folded.outcome, OpenOutcome::Loaded) << folded.detail;
  EXPECT_FALSE(folded.store->checkpoint().has_value());
  EXPECT_EQ(cells(*folded.store, 260), cells(*store_, 260));
}

TEST_F(StoreSegments, FoldOfAnUnchangedStateLeavesTheBaseUntouched) {
  // A warm rerun: seals commit checkpoints, no row changes, and the
  // completion fold finds the base already holds the final state.
  for (int seal = 0; seal < 2; ++seal) {
    StreamCheckpoint ck;
    ck.chunks = static_cast<std::uint64_t>(seal + 1);
    store_->set_checkpoint(ck);
    ASSERT_TRUE(store_->commit(path_));
  }
  ASSERT_TRUE(exists(segment(path_, 2)));
  store_->clear_checkpoint();
  ASSERT_TRUE(store_->commit(path_, nullptr, /*fold=*/true));
  EXPECT_EQ(slurp(path_), base_bytes_);
  EXPECT_FALSE(exists(segment(path_, 1)));
  EXPECT_FALSE(exists(segment(path_, 2)));
  expect_reopens_to_store("retired chain");
}

TEST_F(StoreSegments, SegmentsFoldBeforeTheyOutgrowTheBase) {
  // Grow the store ten-fold one small commit at a time: the segments
  // fold into a new base whenever they would outgrow it, so the total
  // bytes written stay a small multiple of the final file.
  const std::uint64_t before = store_->bytes_committed();
  for (int i = 200; i < 2000; ++i) {
    set_cell(*store_, key_of(i), i % 3, i % 2 == 0);
    if (i % 25 == 0) {
      ASSERT_TRUE(store_->commit(path_));
    }
  }
  ASSERT_TRUE(store_->commit(path_, nullptr, /*fold=*/true));
  EXPECT_FALSE(exists(segment(path_, 1)));
  const std::uint64_t final_bytes = slurp(path_).size();
  EXPECT_LT(store_->bytes_committed() - before, 6 * final_bytes);
  auto opened = VerdictStore::open(path_, small_meta());
  EXPECT_EQ(opened.outcome, OpenOutcome::Loaded) << opened.detail;
  EXPECT_EQ(cells(*opened.store, 2000), cells(*store_, 2000));
}

TEST_F(StoreSegments, SaveOfIdenticalContentRetiresSegments) {
  // litmusd-shaped reset: a daemon extends the store with segments,
  // then the same rows are saved again over the path; it must reopen
  // to exactly the saved rows, never to the daemon's.
  {
    auto daemon = VerdictStore::open(path_, small_meta());
    ASSERT_EQ(daemon.outcome, OpenOutcome::Loaded);
    set_cell(*daemon.store, key_of(500), 0, true);
    ASSERT_TRUE(daemon.store->commit(path_));
    set_cell(*daemon.store, key_of(501), 0, true);
    ASSERT_TRUE(daemon.store->commit(path_));
    ASSERT_TRUE(exists(segment(path_, 2)));
  }
  ASSERT_TRUE(store_->save(path_));
  EXPECT_FALSE(exists(segment(path_, 1)));
  EXPECT_FALSE(exists(segment(path_, 2)));
  expect_reopens_to_store("after save");
  auto opened = VerdictStore::open(path_, small_meta());
  EXPECT_FALSE(probe_cell(*opened.store, key_of(500), 0).has_value());
}

TEST_F(StoreSegments, StaleSegmentsAfterAnInterruptedCleanupAreNeverAdopted) {
  // A crash between a fold's rename and its segment cleanup leaves the
  // old segments beside the new base; they extend the old base, so
  // open() must stop before them.  FaultFs's failing remove is that
  // crash.
  set_cell(*store_, key_of(300), 0, true);
  ASSERT_TRUE(store_->commit(path_));
  set_cell(*store_, key_of(301), 1, true);
  ASSERT_TRUE(store_->commit(path_));
  FaultFs fs(RealFs::instance());
  fs.fail_remove_at = 0;
  fs.sticky = true;
  set_cell(*store_, key_of(300), 2, false);
  ASSERT_TRUE(store_->commit(path_, &fs, /*fold=*/true));
  EXPECT_TRUE(exists(segment(path_, 1)));  // cleanup never happened
  EXPECT_TRUE(exists(segment(path_, 2)));
  auto opened = VerdictStore::open(path_, small_meta());
  EXPECT_EQ(opened.outcome, OpenOutcome::Loaded) << opened.detail;
  EXPECT_NE(opened.detail.find("stale"), std::string::npos) << opened.detail;
  EXPECT_EQ(cells(*opened.store, 400), cells(*store_, 400));

  // The next segment commit replaces the stale chain instead of
  // extending it.
  set_cell(*opened.store, key_of(302), 0, true);
  ASSERT_TRUE(opened.store->commit(path_));
  EXPECT_FALSE(exists(segment(path_, 2)));
  auto again = VerdictStore::open(path_, small_meta());
  EXPECT_EQ(again.store->size(), store_->size() + 1);
  EXPECT_EQ(again.detail.find("stale"), std::string::npos) << again.detail;
}

TEST_F(StoreSegments, OrphanSegmentsOfADeletedBaseAreNeverAdopted) {
  set_cell(*store_, key_of(400), 0, true);
  ASSERT_TRUE(store_->commit(path_));
  ASSERT_TRUE(exists(segment(path_, 1)));
  ASSERT_EQ(std::remove(path_.c_str()), 0);

  auto opened = VerdictStore::open(path_, small_meta());
  EXPECT_EQ(opened.outcome, OpenOutcome::Fresh);
  EXPECT_EQ(opened.store->size(), 0u);

  // A new base with the deleted one's exact rows — the very bytes the
  // orphan extends — and a cleanup that never happens: the orphan must
  // still not attach to it.
  VerdictStore twin(small_meta());
  for (int i = 0; i < 200; ++i) set_cell(twin, key_of(i), i % 3, true);
  FaultFs fs(RealFs::instance());
  fs.fail_remove_at = 0;
  fs.sticky = true;
  ASSERT_TRUE(twin.save(path_, &fs));
  ASSERT_TRUE(exists(segment(path_, 1)));
  auto reopened = VerdictStore::open(path_, small_meta());
  EXPECT_EQ(reopened.outcome, OpenOutcome::Loaded) << reopened.detail;
  EXPECT_EQ(reopened.store->size(), 200u);
  EXPECT_FALSE(probe_cell(*reopened.store, key_of(400), 0).has_value());
}

TEST_F(StoreSegments, CorruptSegmentIsQuarantinedAndTheChainEndsBeforeIt) {
  std::vector<std::vector<int>> states;
  for (int seg = 1; seg <= 3; ++seg) {
    set_cell(*store_, key_of(200 + seg), 0, true);
    ASSERT_TRUE(store_->commit(path_));
    states.push_back(cells(*store_, 260));
  }
  std::string bytes = slurp(segment(path_, 2));
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x08);
  spit(segment(path_, 2), bytes);

  auto opened = VerdictStore::open(path_, small_meta());
  EXPECT_EQ(opened.outcome, OpenOutcome::Loaded) << opened.detail;
  EXPECT_EQ(cells(*opened.store, 260), states[0]);  // base + segment 1
  EXPECT_TRUE(exists(segment(path_, 2) + ".corrupt"));
  EXPECT_FALSE(exists(segment(path_, 2)));

  // Recommitting from there rebuilds the chain; the segment beyond the
  // quarantined one is retired rather than adopted.
  set_cell(*opened.store, key_of(210), 0, true);
  ASSERT_TRUE(opened.store->commit(path_));
  EXPECT_FALSE(exists(segment(path_, 3)));
  auto again = VerdictStore::open(path_, small_meta());
  EXPECT_EQ(cells(*again.store, 260), cells(*opened.store, 260));
}

TEST_F(StoreSegments, VersionOneFileOpensAsVersionMismatch) {
  // A version-1 header (same 40-byte layout, valid checksum) belongs to
  // an older build: ignored and recomputed, not quarantined.
  std::string v1 = base_bytes_.substr(0, 40);
  std::string word;
  util::append_u32(word, 1);
  v1.replace(8, 4, word);
  util::append_key128(v1, util::hash128(v1.data(), 40));
  v1 += std::string(64, '\0');
  spit(path_, v1);
  auto opened = VerdictStore::open(path_, small_meta());
  EXPECT_EQ(opened.outcome, OpenOutcome::VersionMismatch) << opened.detail;
  EXPECT_EQ(opened.store->size(), 0u);
  EXPECT_TRUE(exists(path_));
  EXPECT_FALSE(exists(path_ + ".corrupt"));
}

/// A segment commit through `fs` that must fail without leaving a
/// partial segment under a final name; `path` then still opens to the
/// last committed state.
void expect_failed_segment_commit(VerdictStore& store, const std::string& path,
                                  int new_key, FaultFs& fs,
                                  const std::string& label) {
  auto committed = VerdictStore::open(path, small_meta());
  const std::vector<int> before = cells(*committed.store, 260);
  set_cell(store, key_of(new_key), 2, true);
  std::string error;
  EXPECT_FALSE(store.commit(path, &fs, false, &error)) << label;
  EXPECT_FALSE(error.empty()) << label;
  EXPECT_FALSE(exists(segment(path, 1))) << label;
  EXPECT_FALSE(exists(segment(path, 1) + ".tmp")) << label;
  auto opened = VerdictStore::open(path, small_meta());
  EXPECT_EQ(opened.outcome, OpenOutcome::Loaded) << label;
  EXPECT_EQ(cells(*opened.store, 260), before) << label;
}

TEST_F(StoreSegments, TornSegmentWriteLeavesNoPartialSegment) {
  FaultFs fs(RealFs::instance());
  fs.fail_write_after_bytes = 40;
  expect_failed_segment_commit(*store_, path_, 255, fs, "torn write");
}

TEST_F(StoreSegments, FailedSegmentFsyncOrRenameRecoversOnRetry) {
  for (const bool rename : {false, true}) {
    FaultFs fs(RealFs::instance());
    if (rename) {
      fs.fail_rename_at = 0;
    } else {
      fs.fail_sync_at = 0;
    }
    const std::string label = rename ? "rename" : "fsync";
    expect_failed_segment_commit(*store_, path_, rename ? 256 : 255, fs, label);
    // Non-sticky: the retry lands (as a base carrying everything the
    // failed segment held) and the store reopens with every row.
    ASSERT_TRUE(store_->commit(path_, &fs)) << label;
    expect_reopens_to_store(label + " retry");
  }
}

TEST(VerdictStore, CommitRacesProbesAndAppends) {
  // Commits capture under a short exclusive hold and write outside it:
  // probers and the appender keep running through every commit, and
  // each commit is a consistent snapshot.  Run under the tsan CI job.
  const std::string path = temp_path("commit_race");
  scrub(path);
  VerdictStore store(small_meta());
  constexpr int kKeys = 600;
  std::atomic<int> published{0};
  std::atomic<bool> wrong{false};
  std::atomic<bool> done{false};
  std::thread appender([&] {
    for (int i = 0; i < kKeys; ++i) {
      {
        util::ExclusiveLock lock(store.mu());
        store.set_bit_locked(key_of(i), 0, i % 3 == 0);
        store.set_bit_locked(key_of(i), 1, i % 5 == 0);
      }
      published.store(i + 1, std::memory_order_release);
    }
  });
  std::thread committer([&] {
    int seal = 0;
    do {
      StreamCheckpoint ck;
      ck.chunks = static_cast<std::uint64_t>(++seal);
      store.set_checkpoint(ck);
      if (!store.commit(path)) wrong.store(true);
    } while (!done.load(std::memory_order_acquire));
  });
  std::vector<std::thread> probers;
  for (int r = 0; r < 3; ++r) {
    probers.emplace_back([&] {
      std::vector<std::uint64_t> valid(1);
      std::vector<std::uint64_t> bits(1);
      const std::vector<std::uint64_t> want = {0b11};
      for (int round = 0; round < 6; ++round) {
        const int upto = published.load(std::memory_order_acquire);
        util::SharedLock lock(store.mu());
        for (int i = 0; i < upto; ++i) {
          store.probe_words_locked(key_of(i), want.data(), valid.data(),
                                   bits.data());
          if ((valid[0] & 0b11) != 0b11 ||
              (bits[0] & 1) != (i % 3 == 0 ? 1u : 0u)) {
            wrong.store(true);
          }
        }
      }
    });
  }
  appender.join();
  for (auto& t : probers) t.join();
  done.store(true, std::memory_order_release);
  committer.join();
  EXPECT_FALSE(wrong.load());

  ASSERT_TRUE(store.commit(path));
  auto reopened = VerdictStore::open(path, small_meta());
  EXPECT_EQ(reopened.outcome, OpenOutcome::Loaded) << reopened.detail;
  EXPECT_EQ(reopened.store->size(), static_cast<std::size_t>(kKeys));
  EXPECT_EQ(reopened.store->checkpoint()->chunks,
            store.checkpoint()->chunks);
  for (int i = 0; i < kKeys; ++i) {
    const auto bit = probe_cell(*reopened.store, key_of(i), 1);
    ASSERT_TRUE(bit.has_value()) << i;
    EXPECT_EQ(*bit, i % 5 == 0) << i;
  }
  scrub(path);
}

// ---------------------------------------------------------------------------
// Corruption classes
// ---------------------------------------------------------------------------

class StoreCorruption : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    path_ = temp_path(std::string("corruption_") + info->name());
    scrub(path_);
    VerdictStore store(small_meta());
    for (int i = 0; i < 40; ++i) set_cell(store, key_of(i), i % 3, true);
    ASSERT_TRUE(store.save(path_));
    bytes_ = slurp(path_);
    ASSERT_GT(bytes_.size(), 60u);
  }

  void TearDown() override { scrub(path_); }

  /// Opens path_ and expects quarantine: outcome Corrupt, empty store,
  /// original file moved aside to .corrupt.
  void expect_quarantined(const std::string& label) {
    auto opened = VerdictStore::open(path_, small_meta());
    EXPECT_EQ(opened.outcome, OpenOutcome::Corrupt) << label << ": "
                                                    << opened.detail;
    EXPECT_EQ(opened.store->size(), 0u) << label;
    EXPECT_FALSE(RealFs::instance().exists(path_)) << label;
    EXPECT_TRUE(RealFs::instance().exists(path_ + ".corrupt")) << label;
    std::remove((path_ + ".corrupt").c_str());
  }

  std::string path_;
  std::string bytes_;
};

TEST_F(StoreCorruption, TruncationDetected) {
  spit(path_, bytes_.substr(0, bytes_.size() / 2));
  expect_quarantined("half file");
  spit(path_, bytes_.substr(0, 10));  // shorter than the header
  expect_quarantined("10 bytes");
}

TEST_F(StoreCorruption, BitFlipAnywhereDetected) {
  // A flip in the header, in a section tag, and deep in the payload.
  for (const std::size_t offset :
       {std::size_t{12}, std::size_t{48}, bytes_.size() - 9}) {
    std::string damaged = bytes_;
    damaged[offset] = static_cast<char>(damaged[offset] ^ 0x40);
    spit(path_, damaged);
    expect_quarantined("flip at " + std::to_string(offset));
  }
}

TEST_F(StoreCorruption, RepeatedRowKeyDetected) {
  // A base whose row list names one key twice, under a valid checksum:
  // open() must not adopt either row.  Rows start after the header (56)
  // and generation, count, words and reserved words (24); each is
  // key(16) valid(8) bits(8) with three columns.
  constexpr std::size_t kRows = 80;
  constexpr std::size_t kRowBytes = 32;
  std::string key0;
  util::append_key128(key0, key_of(0));
  ASSERT_EQ(bytes_.substr(kRows, 16), key0);
  std::string damaged = bytes_.substr(0, bytes_.size() - 16);
  damaged.replace(kRows + kRowBytes, 16, key0);
  util::append_key128(damaged, util::hash128(damaged));
  spit(path_, damaged);
  expect_quarantined("row 1 repeats row 0's key");
}

TEST_F(StoreCorruption, BadMagicDetected) {
  std::string damaged = bytes_;
  damaged[0] = 'X';
  spit(path_, damaged);
  expect_quarantined("bad magic");
}

TEST_F(StoreCorruption, TrailingGarbageDetected) {
  spit(path_, bytes_ + std::string(16, '\xEE'));
  expect_quarantined("trailing bytes");
}

TEST_F(StoreCorruption, VersionMismatchIgnoredNotQuarantined) {
  std::string other = bytes_;
  other[8] = static_cast<char>(other[8] + 1);  // version u32 after magic
  // The header checksum covers the version, so a raw byte edit reads as
  // corruption; a genuine other-version file is simulated by checking
  // open() against a file whose *checksummed* version differs.  That
  // needs a writer for version N+1, which this build doesn't have — so
  // assert the documented fallback instead: damage to the version byte
  // is caught by the checksum, never silently accepted.
  spit(path_, other);
  expect_quarantined("version byte edit");
}

TEST_F(StoreCorruption, ZooMismatchSelfInvalidatesWithoutQuarantine) {
  StoreMeta other = small_meta();
  other.model_keys.push_back("F:delta");
  auto opened = VerdictStore::open(path_, other);
  EXPECT_EQ(opened.outcome, OpenOutcome::ZooMismatch) << opened.detail;
  EXPECT_EQ(opened.store->size(), 0u);
  // Not bit rot: the original file stays put, no .corrupt appears.
  EXPECT_TRUE(RealFs::instance().exists(path_));
  EXPECT_FALSE(RealFs::instance().exists(path_ + ".corrupt"));
  // And the store self-heals on the next save: the stale file is
  // replaced by one the new zoo loads cleanly.
  set_cell(*opened.store, key_of(0), 3, true);
  ASSERT_TRUE(opened.store->save(path_));
  auto reopened = VerdictStore::open(path_, other);
  EXPECT_EQ(reopened.outcome, OpenOutcome::Loaded) << reopened.detail;
  EXPECT_EQ(reopened.store->size(), 1u);
}

TEST_F(StoreCorruption, SchemaMismatchSelfInvalidatesWithoutQuarantine) {
  // Simulate a pre-dependency-generator store: same format version,
  // older space-schema word (header bytes 36..39, 0 in pre-schema
  // files), header checksum fixed up so the file is structurally
  // valid.  Every fingerprint and stream cursor inside such a file was
  // computed against a different enumeration space, so open() must
  // self-invalidate it rather than serve stale verdicts.
  for (const std::uint32_t old_schema : {0u, kSpaceSchemaVersion - 1}) {
    std::string old_file = bytes_;
    std::string word;
    util::append_u32(word, old_schema);
    old_file.replace(36, 4, word);
    std::string sum;
    util::append_key128(sum, util::hash128(old_file.data(), 40));
    old_file.replace(40, 16, sum);
    spit(path_, old_file);

    auto opened = VerdictStore::open(path_, small_meta());
    EXPECT_EQ(opened.outcome, OpenOutcome::SchemaMismatch) << opened.detail;
    EXPECT_EQ(opened.store->size(), 0u);
    // Not bit rot: the stale file stays put, no .corrupt appears.
    EXPECT_TRUE(RealFs::instance().exists(path_));
    EXPECT_FALSE(RealFs::instance().exists(path_ + ".corrupt"));
    // Self-heals: the next save writes the current schema.
    set_cell(*opened.store, key_of(0), 0, true);
    ASSERT_TRUE(opened.store->save(path_));
    auto reopened = VerdictStore::open(path_, small_meta());
    EXPECT_EQ(reopened.outcome, OpenOutcome::Loaded) << reopened.detail;
    EXPECT_EQ(reopened.store->size(), 1u);
  }
}

TEST_F(StoreCorruption, LeftoverTempFileIsInertAndOverwritten) {
  // A concurrent writer (or kill mid-save) leaves path.tmp behind; open
  // must ignore it and load the real file, and the next save must
  // replace it without tripping over the leftover.
  spit(path_ + ".tmp", "partial garbage from a killed writer");
  auto opened = VerdictStore::open(path_, small_meta());
  EXPECT_EQ(opened.outcome, OpenOutcome::Loaded) << opened.detail;
  EXPECT_EQ(opened.store->size(), 40u);
  set_cell(*opened.store, key_of(100), 0, true);
  ASSERT_TRUE(opened.store->save(path_));
  auto reopened = VerdictStore::open(path_, small_meta());
  EXPECT_EQ(reopened.outcome, OpenOutcome::Loaded);
  EXPECT_EQ(reopened.store->size(), 41u);
  std::remove((path_ + ".tmp").c_str());
}

// ---------------------------------------------------------------------------
// Fault-injected save: every failure leaves the previous file intact.
// ---------------------------------------------------------------------------

class StoreFaults : public ::testing::Test {
 protected:
  void SetUp() override {
    // Per-case path: ctest runs each case as its own test, possibly in
    // parallel, so a name shared across cases would collide.
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    path_ = temp_path(std::string("faults_") + info->name());
    scrub(path_);
    // Commit a known-good generation first.
    VerdictStore store(small_meta());
    set_cell(store, key_of(0), 0, true);
    ASSERT_TRUE(store.save(path_));
    good_bytes_ = slurp(path_);
  }

  void TearDown() override { scrub(path_); }

  /// Saves a bigger second generation through `fs` expecting failure,
  /// then proves the first generation still loads bit for bit.
  void expect_failed_save_keeps_old_file(FaultFs& fs,
                                         const std::string& label) {
    VerdictStore next(small_meta());
    for (int i = 0; i < 64; ++i) set_cell(next, key_of(i), i % 3, true);
    std::string error;
    EXPECT_FALSE(next.save(path_, &fs, &error)) << label;
    EXPECT_FALSE(error.empty()) << label;
    EXPECT_EQ(slurp(path_), good_bytes_) << label;
    auto opened = VerdictStore::open(path_, small_meta());
    EXPECT_EQ(opened.outcome, OpenOutcome::Loaded) << label << ": "
                                                   << opened.detail;
    EXPECT_EQ(opened.store->size(), 1u) << label;
  }

  std::string path_;
  std::string good_bytes_;
};

TEST_F(StoreFaults, TornWriteFailsSaveAndKeepsOldFile) {
  FaultFs fs(RealFs::instance());
  fs.fail_write_after_bytes = 17;  // mid-header: the prefix really lands
  expect_failed_save_keeps_old_file(fs, "torn write");
}

TEST_F(StoreFaults, EnospcStyleStickyBudgetFailsSave) {
  FaultFs fs(RealFs::instance());
  fs.fail_write_after_bytes = 100;
  fs.sticky = true;
  expect_failed_save_keeps_old_file(fs, "sticky byte budget");
}

TEST_F(StoreFaults, FsyncFailureFailsSave) {
  FaultFs fs(RealFs::instance());
  fs.fail_sync_at = 0;
  expect_failed_save_keeps_old_file(fs, "fsync");
}

TEST_F(StoreFaults, CreateFailureFailsSave) {
  FaultFs fs(RealFs::instance());
  fs.fail_create_at = 0;
  expect_failed_save_keeps_old_file(fs, "create");
}

TEST_F(StoreFaults, RenameFailureFailsSave) {
  FaultFs fs(RealFs::instance());
  fs.fail_rename_at = 0;
  expect_failed_save_keeps_old_file(fs, "rename");
}

TEST_F(StoreFaults, ReadFailureOpensFresh) {
  FaultFs fs(RealFs::instance());
  fs.fail_read_at = 0;
  auto opened = VerdictStore::open(path_, small_meta(), &fs);
  EXPECT_EQ(opened.outcome, OpenOutcome::Fresh) << opened.detail;
  EXPECT_EQ(opened.store->size(), 0u);
  // The unreadable file is left alone (it may be fine for others).
  EXPECT_TRUE(RealFs::instance().exists(path_));
}

TEST_F(StoreFaults, SaveRecoversOnceFaultsClear) {
  FaultFs fs(RealFs::instance());
  fs.fail_sync_at = 0;
  VerdictStore next(small_meta());
  set_cell(next, key_of(5), 1, false);
  EXPECT_FALSE(next.save(path_, &fs));
  // Same store, same FaultFs, fault spent: the retry must land.
  ASSERT_TRUE(next.save(path_, &fs));
  auto opened = VerdictStore::open(path_, small_meta());
  EXPECT_EQ(opened.outcome, OpenOutcome::Loaded);
  ASSERT_TRUE(probe_cell(*opened.store, key_of(5), 1).has_value());
  EXPECT_FALSE(*probe_cell(*opened.store, key_of(5), 1));
}

}  // namespace
}  // namespace mcmc::store
