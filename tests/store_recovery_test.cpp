// End-to-end recovery drills for the persistent verdict store: the
// tier-1 2-access Theorem-1 slice is run through the streamed harness
// with checkpointing enabled, then interrupted (after a delta segment
// or right after a compaction), corrupted (base or a middle segment),
// starved of filesystem, and resumed — and every variant must land on
// the exact reference DistinguishMatrix.  The unit-level corruption
// and fault cases live in store_test.cpp; this suite proves the same
// guarantees hold through the whole engine + harness stack.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "engine/verdict_engine.h"
#include "enumeration/exhaustive.h"
#include "explore/distinguish.h"
#include "explore/space.h"
#include "store/fs.h"
#include "store/verdict_store.h"
#include "store_cells.h"
#include "util/bytes.h"
#include "util/hash128.h"

namespace mcmc {
namespace {

enumeration::ExhaustiveOptions slice_options() {
  enumeration::ExhaustiveOptions options;
  options.bounds.max_accesses_per_thread = 2;
  // Small chunks so a couple of seals interrupt the run mid-stream.
  options.chunk_size = 256;
  return options;
}

const std::vector<core::MemoryModel>& ninety_models() {
  static const std::vector<core::MemoryModel> models = [] {
    std::vector<core::MemoryModel> out;
    for (const auto& c : explore::model_space(true)) {
      out.push_back(c.to_model());
    }
    return out;
  }();
  return models;
}

/// Forwards to an ExhaustiveStream, the opt-in to elide repeats and the
/// restored run head included, while counting the stream positions actually pulled by the
/// engine (tests built plus positions elided) — the direct observable
/// for "a resumed run does not re-stream sealed chunks".
class CountingSource final : public engine::TestSource {
 public:
  explicit CountingSource(enumeration::ExhaustiveOptions options)
      : inner_(options) {}

  bool next_chunk(std::vector<litmus::LitmusTest>& out) override {
    const std::size_t before = out.size();
    const bool more = inner_.next_chunk(out);
    delivered_ += out.size() - before + inner_.elided();
    return more;
  }
  [[nodiscard]] bool snapshot_cursor(
      std::vector<std::uint64_t>& out) const override {
    return inner_.snapshot_cursor(out);
  }
  [[nodiscard]] bool restore_cursor(
      const std::vector<std::uint64_t>& cursor) override {
    return inner_.restore_cursor(cursor);
  }
  bool elide_repeats() override { return inner_.elide_repeats(); }
  [[nodiscard]] std::size_t elided() const override { return inner_.elided(); }
  void restored_run_head(std::vector<litmus::LitmusTest>& out) const override {
    inner_.restored_run_head(out);
  }

  [[nodiscard]] std::size_t delivered() const { return delivered_; }

 private:
  enumeration::ExhaustiveStream inner_;
  std::size_t delivered_ = 0;
};

/// Forwards to another Fs and logs the target of every rename that
/// lands, so a test can tell which commits wrote a base.
class RenameLog final : public store::Fs {
 public:
  explicit RenameLog(store::Fs& inner) : inner_(inner) {}

  [[nodiscard]] bool read_file(const std::string& path,
                               std::string& out) override {
    return inner_.read_file(path, out);
  }
  [[nodiscard]] std::unique_ptr<store::FileWriter> create(
      const std::string& path) override {
    return inner_.create(path);
  }
  [[nodiscard]] bool rename(const std::string& from,
                            const std::string& to) override {
    if (!inner_.rename(from, to)) return false;
    targets_.push_back(to);
    return true;
  }
  [[nodiscard]] bool remove(const std::string& path) override {
    return inner_.remove(path);
  }
  [[nodiscard]] bool exists(const std::string& path) override {
    return inner_.exists(path);
  }

  [[nodiscard]] const std::vector<std::string>& targets() const {
    return targets_;
  }

 private:
  store::Fs& inner_;
  std::vector<std::string> targets_;
};

struct SliceRun {
  explore::DistinguishMatrix matrix;
  explore::TheoremHarnessReport report;
  store::OpenOutcome outcome = store::OpenOutcome::Fresh;
  std::uint64_t store_hits = 0;
  std::uint64_t store_misses = 0;
  std::size_t tests_delivered = 0;  ///< streamed by THIS run, not restored
  bool interrupted = false;
};

/// The store-free ground truth, computed once.
const SliceRun& reference() {
  static const SliceRun ref = [] {
    SliceRun r;
    engine::VerdictEngine eng;
    enumeration::ExhaustiveStream stream(slice_options());
    r.matrix = explore::distinguishability_streamed(
        eng, ninety_models(), stream, explore::TheoremHarnessOptions{},
        &r.report);
    return r;
  }();
  return ref;
}

/// One harness run over the slice with a store attached at `path`.
/// A StreamInterrupted from the kill hook is caught and flagged, with
/// the partial report preserved — exactly what a wrapper around a
/// SIGKILLed process would observe.
SliceRun run_slice_with_store(const std::string& path, store::Fs* fs,
                              bool resume, int kill_after_seals) {
  SliceRun run;
  const auto& models = ninety_models();
  auto opened =
      store::VerdictStore::open(path, explore::harness_store_meta(models), fs);
  run.outcome = opened.outcome;

  store::StreamPersistence persistence;
  persistence.path = path;
  persistence.fs = fs;
  persistence.checkpoint_every_chunks = 4;
  persistence.resume = resume;
  persistence.kill_after_seals = kill_after_seals;

  explore::TheoremHarnessOptions options;
  options.verdict_store = opened.store.get();
  options.persistence = &persistence;

  engine::VerdictEngine eng;
  CountingSource stream(slice_options());
  try {
    run.matrix = explore::distinguishability_streamed(
        eng, models, stream, options, &run.report);
  } catch (const store::StreamInterrupted&) {
    run.interrupted = true;
  }
  run.store_hits = opened.store->hits();
  run.store_misses = opened.store->misses();
  run.tests_delivered = stream.delivered();
  return run;
}

void expect_matches_reference(const SliceRun& run) {
  const SliceRun& ref = reference();
  EXPECT_TRUE(run.matrix == ref.matrix);
  EXPECT_EQ(run.matrix.distinguished_pairs(), ref.matrix.distinguished_pairs());
  EXPECT_EQ(run.report.stream.tests_streamed, ref.report.stream.tests_streamed);
  EXPECT_EQ(run.report.stream.novel_tests, ref.report.stream.novel_tests);
  EXPECT_EQ(run.report.stream.duplicate_tests,
            ref.report.stream.duplicate_tests);
  EXPECT_EQ(run.report.candidate_tests, ref.report.candidate_tests);
  EXPECT_EQ(run.report.filtered_tests, ref.report.filtered_tests);
}

class StoreRecovery : public ::testing::Test {
 protected:
  void SetUp() override {
    // Per-case path: ctest registers each case as its own test, so
    // parallel runs would clobber a shared file.
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    path_ = ::testing::TempDir() + "recovery_store_" +
            std::string(info->name()) + ".mcvs";
    scrub();
  }
  void TearDown() override { scrub(); }

  void scrub() {
    for (int i = 0; i <= 64; ++i) {
      const std::string file = i == 0 ? path_ : segment(i);
      std::remove(file.c_str());
      std::remove((file + ".tmp").c_str());
      std::remove((file + ".corrupt").c_str());
    }
  }

  [[nodiscard]] std::string segment(int index) const {
    return path_ + "." + std::to_string(index);
  }

  /// Segment files beside the base: path.1, path.2, ... up to the
  /// first missing one.
  [[nodiscard]] int segment_files() const {
    int n = 0;
    while (store::RealFs::instance().exists(segment(n + 1))) ++n;
    return n;
  }

  /// Kills a fresh run after `seals` seals; returns the segment files
  /// the kill left beside the base.
  int kill_after(int seals, store::Fs* fs = nullptr) {
    scrub();
    const SliceRun killed = run_slice_with_store(path_, fs, false, seals);
    EXPECT_TRUE(killed.interrupted) << seals;
    return segment_files();
  }

  /// The checkpoint a resume of path_ would adopt (opening may
  /// quarantine a damaged segment, as the resume's own open would).
  std::uint64_t sealed_tests() {
    auto opened = store::VerdictStore::open(
        path_, explore::harness_store_meta(ninety_models()));
    EXPECT_EQ(opened.outcome, store::OpenOutcome::Loaded) << opened.detail;
    const auto ck = opened.store->checkpoint();
    EXPECT_TRUE(ck.has_value());
    return ck.has_value() ? ck->tests_streamed : 0;
  }

  /// Resumes path_ and expects the reference, the whole sweep's counts
  /// (the sink carries the sealed part's), no re-streamed sealed chunk,
  /// and one checkpoint-free file left behind.
  void expect_resumes_bit_for_bit(std::uint64_t sealed) {
    const SliceRun resumed = run_slice_with_store(path_, nullptr, true, -1);
    ASSERT_FALSE(resumed.interrupted);
    EXPECT_EQ(resumed.outcome, store::OpenOutcome::Loaded);
    expect_matches_reference(resumed);
    EXPECT_EQ(resumed.report.sweep.cells, reference().report.sweep.cells);
    EXPECT_EQ(resumed.report.sweep.searches,
              reference().report.sweep.searches);
    EXPECT_EQ(resumed.tests_delivered,
              reference().report.stream.tests_streamed -
                  static_cast<std::size_t>(sealed));
    expect_one_clean_file();
  }

  /// Rewrites the checkpoint a kill left at path_ through `edit`,
  /// saving the result as a new base.
  template <typename Edit>
  void rewrite_checkpoint(Edit&& edit) {
    auto opened = store::VerdictStore::open(
        path_, explore::harness_store_meta(ninety_models()));
    ASSERT_EQ(opened.outcome, store::OpenOutcome::Loaded);
    std::optional<store::StreamCheckpoint> ck = opened.store->checkpoint();
    ASSERT_TRUE(ck.has_value());
    edit(*ck);
    opened.store->set_checkpoint(*ck);
    std::string error;
    ASSERT_TRUE(opened.store->save(path_, nullptr, &error)) << error;
  }

  /// Resumes path_ and expects the checkpoint to be refused: the whole
  /// slice re-streamed, the reference reached, one clean file left.
  void expect_full_restream() {
    const SliceRun resumed = run_slice_with_store(path_, nullptr, true, -1);
    ASSERT_FALSE(resumed.interrupted);
    EXPECT_EQ(resumed.outcome, store::OpenOutcome::Loaded);
    expect_matches_reference(resumed);
    EXPECT_EQ(resumed.tests_delivered,
              reference().report.stream.tests_streamed);
    expect_one_clean_file();
  }

  /// A finished run leaves exactly the base, with no checkpoint.
  void expect_one_clean_file() {
    EXPECT_EQ(segment_files(), 0);
    auto opened = store::VerdictStore::open(
        path_, explore::harness_store_meta(ninety_models()));
    EXPECT_EQ(opened.outcome, store::OpenOutcome::Loaded) << opened.detail;
    EXPECT_FALSE(opened.store->checkpoint().has_value());
  }

  /// Runs the slice to completion with the store attached, leaving a
  /// warm, checkpoint-free file at path_.
  void warm_store() {
    const SliceRun run = run_slice_with_store(path_, nullptr, false, -1);
    ASSERT_FALSE(run.interrupted);
    expect_matches_reference(run);
    ASSERT_TRUE(store::RealFs::instance().exists(path_));
  }

  std::string read_bytes() {
    std::string bytes;
    EXPECT_TRUE(store::RealFs::instance().read_file(path_, bytes));
    return bytes;
  }

  void write_bytes(const std::string& bytes) {
    auto writer = store::RealFs::instance().create(path_);
    ASSERT_NE(writer, nullptr);
    ASSERT_TRUE(writer->write(bytes.data(), bytes.size()));
    ASSERT_TRUE(writer->close());
  }

  std::string path_;
};

// The headline acceptance drill: kill the stream after two sealed
// checkpoints, resume from the file the kill left behind, and land on
// the reference bit for bit without re-streaming sealed chunks.
TEST_F(StoreRecovery, KillThenResumeReproducesSliceBitForBit) {
  const SliceRun killed = run_slice_with_store(path_, nullptr, false, 2);
  ASSERT_TRUE(killed.interrupted);

  // The on-disk file is a complete, loadable store holding a mid-stream
  // checkpoint covering strictly partial progress.
  std::uint64_t sealed_tests = 0;
  {
    auto opened = store::VerdictStore::open(
        path_, explore::harness_store_meta(ninety_models()));
    ASSERT_EQ(opened.outcome, store::OpenOutcome::Loaded);
    ASSERT_TRUE(opened.store->checkpoint().has_value());
    const store::StreamCheckpoint ck = *opened.store->checkpoint();
    EXPECT_GT(ck.tests_streamed, 0u);
    EXPECT_LT(ck.tests_streamed, reference().report.stream.tests_streamed);
    EXPECT_EQ(ck.tests_streamed, ck.novel_tests + ck.duplicate_tests);
    EXPECT_FALSE(ck.source_cursor.empty());
    EXPECT_FALSE(ck.sink_state.empty());
    sealed_tests = ck.tests_streamed;
  }

  const SliceRun resumed = run_slice_with_store(path_, nullptr, true, -1);
  ASSERT_FALSE(resumed.interrupted);
  ASSERT_EQ(resumed.outcome, store::OpenOutcome::Loaded);
  expect_matches_reference(resumed);
  // Resume really resumed: the source delivered exactly the unsealed
  // suffix, never the chunks the checkpoint already covered.
  EXPECT_EQ(resumed.tests_delivered,
            reference().report.stream.tests_streamed -
                static_cast<std::size_t>(sealed_tests));

  // Completion clears the checkpoint, so the next run starts clean.
  auto opened = store::VerdictStore::open(
      path_, explore::harness_store_meta(ninety_models()));
  ASSERT_EQ(opened.outcome, store::OpenOutcome::Loaded);
  EXPECT_FALSE(opened.store->checkpoint().has_value());
}

// The same drill at every seal of the slice: the first seal writes a
// base, later ones delta segments, and some of them fold the chain
// into a new base — a kill right after any of them resumes bit for
// bit, and the kill points cover both a segment and a compaction.
TEST_F(StoreRecovery, KillAfterEverySealResumesBitForBit) {
  bool after_segment = false;
  bool after_compaction = false;
  for (int seals = 1; seals <= 12; ++seals) {
    SCOPED_TRACE("killed after seal " + std::to_string(seals));
    const int segments = kill_after(seals);
    after_segment = after_segment || segments > 0;
    after_compaction = after_compaction || (seals > 1 && segments == 0);
    expect_resumes_bit_for_bit(sealed_tests());
  }
  EXPECT_TRUE(after_segment);
  EXPECT_TRUE(after_compaction);
}

// Stale-format class: a checkpoint whose harness sink is version 2
// (the layout that ended in a length-prefixed caller section).  The
// file itself is healthy, so it loads; the harness must refuse the
// sink and re-stream the whole slice rather than misread it.
TEST_F(StoreRecovery, VersionTwoSinkIsRejectedAndTheSliceRestreamed) {
  (void)kill_after(2);
  rewrite_checkpoint([](store::StreamCheckpoint& ck) {
    ASSERT_FALSE(ck.sink_state.empty());
    EXPECT_EQ(ck.sink_state[0], 4u);
    ck.sink_state[0] = 2;
    ck.sink_state.push_back(0);  // an empty version-2 extra section
  });
  expect_full_restream();
}

// Stale-format class: a stream cursor of version 3, the layout that
// carried the outcome odometer's digits.  The stream must refuse it
// and the run re-stream the whole slice rather than misread it.
TEST_F(StoreRecovery, VersionThreeCursorIsRejectedAndTheSliceRestreamed) {
  (void)kill_after(2);
  rewrite_checkpoint([](store::StreamCheckpoint& ck) {
    ASSERT_FALSE(ck.source_cursor.empty());
    EXPECT_EQ(ck.source_cursor[0], 4u);
    ck.source_cursor[0] = 3;
  });
  expect_full_restream();
}

// Stale-format class: a checkpoint record in the layout that carried
// the stream's dedup keys (its own op code, a key section before the
// counters).  The file is healthy, so its rows load; the record is read
// past and dropped, never misread, and the run re-streams the whole
// slice, leaving one checkpoint-free file.
TEST_F(StoreRecovery, OldLayoutCheckpointIsDroppedAndTheSliceRestreamed) {
  ASSERT_EQ(kill_after(1), 0);  // the first seal writes a base alone
  const std::string bytes = read_bytes();
  // A base: the 56-byte header, the generation word, the rows (count:u64
  // words:u32 0:u32, then a key and 2 x words words per row), the
  // checkpoint record (op:u32 0:u32 ...) and the 16-byte trailer.
  util::ByteReader rows_header(bytes.data() + 64, 16);
  const std::uint64_t rows = rows_header.read_u64();
  const std::uint32_t words = rows_header.read_u32();
  const std::size_t record = 64 + 16 + rows * (16 + 16 * words);
  ASSERT_LT(record + 8, bytes.size() - 16);
  util::ByteReader op(bytes.data() + record, 4);
  ASSERT_EQ(op.read_u32(), 3u);  // the key-free record
  std::string old = bytes.substr(0, record);
  util::append_u32(old, 2);  // the keyed record
  util::append_u32(old, 0);
  util::append_u64(old, 0);  // kept
  util::append_u64(old, 2);  // count
  util::append_key128(old, util::hash128(std::string("a key")));
  util::append_key128(old, util::hash128(std::string("another")));
  old += bytes.substr(record + 8, bytes.size() - 16 - record - 8);
  util::append_key128(old, util::hash128(old.data(), old.size()));
  write_bytes(old);
  {
    auto opened = store::VerdictStore::open(
        path_, explore::harness_store_meta(ninety_models()));
    ASSERT_EQ(opened.outcome, store::OpenOutcome::Loaded) << opened.detail;
    EXPECT_EQ(opened.store->size(), static_cast<std::size_t>(rows));
    EXPECT_FALSE(opened.store->checkpoint().has_value());
  }
  expect_full_restream();
  // The completion rewrote the base rather than keep the dropped record.
  EXPECT_NE(read_bytes(), old);
}

// Corruption class: a bit flip in a middle segment of a chain a kill
// left behind.  That segment is quarantined, the base plus the earlier
// segments load, and the resume reproduces the slice bit for bit.
TEST_F(StoreRecovery, BitFlipInMiddleSegmentIsQuarantinedAndResumed) {
  int seals = 12;
  while (seals > 0 && kill_after(seals) < 3) --seals;
  ASSERT_GT(seals, 0) << "no kill point leaves three segments";
  std::string bytes;
  ASSERT_TRUE(store::RealFs::instance().read_file(segment(2), bytes));
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x20);
  {
    auto writer = store::RealFs::instance().create(segment(2));
    ASSERT_NE(writer, nullptr);
    ASSERT_TRUE(writer->write(bytes.data(), bytes.size()));
    ASSERT_TRUE(writer->close());
  }
  const std::uint64_t sealed = sealed_tests();  // base + segment 1
  EXPECT_TRUE(store::RealFs::instance().exists(segment(2) + ".corrupt"));
  expect_resumes_bit_for_bit(sealed);
}

// Crash class: a compaction renamed its new base but died before
// retiring the old segments (FaultFs's failing remove is the crash).
// They extend the old base, so the resume adopts none of them.
TEST_F(StoreRecovery, CompactionCutShortBeforeCleanupResumes) {
  int seals = 2;
  while (seals <= 12 && kill_after(seals) != 0) ++seals;
  ASSERT_LE(seals, 12) << "no seal of the slice compacts";
  store::FaultFs no_cleanup(store::RealFs::instance());
  no_cleanup.fail_remove_at = 0;
  no_cleanup.sticky = true;
  EXPECT_GT(kill_after(seals, &no_cleanup), 0);  // stale segments remain
  {
    auto opened = store::VerdictStore::open(
        path_, explore::harness_store_meta(ninety_models()));
    EXPECT_NE(opened.detail.find("stale"), std::string::npos) << opened.detail;
  }
  expect_resumes_bit_for_bit(sealed_tests());
}

// Crash class: orphaned segments whose base was deleted.  open()
// adopts none of them; the run starts over and lands on the reference.
TEST_F(StoreRecovery, OrphanSegmentsOfADeletedBaseAreNotAdopted) {
  int seals = 12;
  while (seals > 0 && kill_after(seals) == 0) --seals;
  ASSERT_GT(seals, 0);
  ASSERT_EQ(std::remove(path_.c_str()), 0);
  const SliceRun run = run_slice_with_store(path_, nullptr, true, -1);
  EXPECT_EQ(run.outcome, store::OpenOutcome::Fresh);
  ASSERT_FALSE(run.interrupted);
  expect_matches_reference(run);
  EXPECT_EQ(run.tests_delivered, reference().report.stream.tests_streamed);
  expect_one_clean_file();
}

// A warm rerun computes nothing, so it must not rewrite the base: its
// seals commit checkpoint-only segments that the completion retires.
TEST_F(StoreRecovery, WarmRerunLeavesTheBaseBytesUnchanged) {
  warm_store();
  const std::string before = read_bytes();
  const SliceRun warm = run_slice_with_store(path_, nullptr, true, -1);
  ASSERT_FALSE(warm.interrupted);
  expect_matches_reference(warm);
  EXPECT_TRUE(read_bytes() == before);
  expect_one_clean_file();
}

// Fault class: a failing fsync or rename on a delta-segment commit (the
// first commit of a run is its base, the second its first segment).
// Non-sticky, so later commits land: no partial segment ever carries a
// final name, the failed segment is retried at the next seal as a base
// carrying everything, and the completed store reopens with every row,
// byte for byte the fault-free run's file.
TEST_F(StoreRecovery, SegmentCommitFaultsLoseNoRow) {
  warm_store();
  const std::string clean = read_bytes();
  std::size_t rows = 0;
  {
    auto opened = store::VerdictStore::open(
        path_, explore::harness_store_meta(ninety_models()));
    rows = opened.store->size();
  }
  for (const bool rename : {false, true}) {
    SCOPED_TRACE(rename ? "rename" : "fsync");
    scrub();
    store::FaultFs faulty(store::RealFs::instance());
    if (rename) {
      faulty.fail_rename_at = 1;
    } else {
      faulty.fail_sync_at = 1;
    }
    RenameLog log(faulty);
    const SliceRun run = run_slice_with_store(path_, &log, false, -1);
    ASSERT_FALSE(run.interrupted);
    expect_matches_reference(run);
    // The first seal's base landed, its first segment did not, and the
    // next commit to land is the base that retries it.
    ASSERT_GE(log.targets().size(), 2u);
    EXPECT_EQ(log.targets()[0], path_);
    EXPECT_EQ(log.targets()[1], path_);
    EXPECT_FALSE(store::RealFs::instance().exists(segment(1) + ".tmp"));
    EXPECT_FALSE(store::RealFs::instance().exists(path_ + ".tmp"));
    expect_one_clean_file();
    auto opened = store::VerdictStore::open(
        path_, explore::harness_store_meta(ninety_models()));
    EXPECT_EQ(opened.store->size(), rows);
    EXPECT_TRUE(read_bytes() == clean);
  }
}

// Fault class: a torn write of the first delta segment, with the disk
// then full for the rest of the run.  No segment ever appears under a
// final name, the first seal's base still loads, and a resume from it
// reproduces the slice.
TEST_F(StoreRecovery, TornSegmentWriteLeavesTheLastGoodState) {
  (void)kill_after(1);
  std::string base;
  ASSERT_TRUE(store::RealFs::instance().read_file(path_, base));
  const std::uint64_t first_seal = sealed_tests();
  scrub();
  store::FaultFs torn(store::RealFs::instance());
  torn.fail_write_after_bytes = static_cast<long>(base.size()) + 30;
  const SliceRun run = run_slice_with_store(path_, &torn, false, -1);
  ASSERT_FALSE(run.interrupted);
  expect_matches_reference(run);
  EXPECT_EQ(segment_files(), 0);
  EXPECT_FALSE(store::RealFs::instance().exists(segment(1) + ".tmp"));
  // The first seal's base (its sink blob records timings, so compare
  // what it holds, not its bytes).
  EXPECT_EQ(read_bytes().size(), base.size());
  EXPECT_EQ(sealed_tests(), first_seal);
  expect_resumes_bit_for_bit(first_seal);
}

// A warm rerun against the completed store must serve essentially every
// verdict from disk — the artifact-reload gate CI enforces at >= 99%.
TEST_F(StoreRecovery, WarmRerunServesVerdictsFromStore) {
  warm_store();
  const SliceRun warm = run_slice_with_store(path_, nullptr, true, -1);
  ASSERT_FALSE(warm.interrupted);
  ASSERT_EQ(warm.outcome, store::OpenOutcome::Loaded);
  expect_matches_reference(warm);
  ASSERT_GT(warm.store_hits, 0u);
  const double rate =
      static_cast<double>(warm.store_hits) /
      static_cast<double>(warm.store_hits + warm.store_misses);
  EXPECT_GE(rate, 0.99);
}

// Corruption class: a flipped bit anywhere must be caught by the
// checksums; the file is quarantined and the run recomputes correctly.
TEST_F(StoreRecovery, BitFlipIsQuarantinedAndRecomputed) {
  warm_store();
  std::string bytes = read_bytes();
  bytes[bytes.size() / 2] ^= 0x10;
  write_bytes(bytes);

  const SliceRun run = run_slice_with_store(path_, nullptr, true, -1);
  EXPECT_EQ(run.outcome, store::OpenOutcome::Corrupt);
  EXPECT_TRUE(store::RealFs::instance().exists(path_ + ".corrupt"));
  ASSERT_FALSE(run.interrupted);
  expect_matches_reference(run);
  // The recomputing run repopulated a healthy file.
  auto opened = store::VerdictStore::open(
      path_, explore::harness_store_meta(ninety_models()));
  EXPECT_EQ(opened.outcome, store::OpenOutcome::Loaded);
}

// Corruption class: truncation (a partial copy, a torn download).
TEST_F(StoreRecovery, TruncationIsQuarantinedAndRecomputed) {
  warm_store();
  std::string bytes = read_bytes();
  bytes.resize(bytes.size() / 2);
  write_bytes(bytes);

  const SliceRun run = run_slice_with_store(path_, nullptr, true, -1);
  EXPECT_EQ(run.outcome, store::OpenOutcome::Corrupt);
  EXPECT_TRUE(store::RealFs::instance().exists(path_ + ".corrupt"));
  ASSERT_FALSE(run.interrupted);
  expect_matches_reference(run);
}

// Corruption class: a store computed against a different model zoo
// self-invalidates (no quarantine — the file is healthy, just stale)
// and the harness recomputes against the current zoo.
TEST_F(StoreRecovery, StaleZooFingerprintSelfInvalidates) {
  std::vector<core::MemoryModel> other_zoo = ninety_models();
  other_zoo.pop_back();
  {
    auto opened = store::VerdictStore::open(
        path_, explore::harness_store_meta(other_zoo));
    util::Key128 key;
    key.hi = 1;
    key.lo = 2;
    set_cell(*opened.store, key, 0, true);
    std::string error;
    ASSERT_TRUE(opened.store->save(path_, nullptr, &error)) << error;
  }

  const SliceRun run = run_slice_with_store(path_, nullptr, true, -1);
  EXPECT_EQ(run.outcome, store::OpenOutcome::ZooMismatch);
  EXPECT_FALSE(store::RealFs::instance().exists(path_ + ".corrupt"));
  ASSERT_FALSE(run.interrupted);
  expect_matches_reference(run);
  // The stale file was replaced by one matching the current zoo.
  auto opened = store::VerdictStore::open(
      path_, explore::harness_store_meta(ninety_models()));
  EXPECT_EQ(opened.outcome, store::OpenOutcome::Loaded);
}

// Corruption class: a temp file abandoned by a killed (or concurrent)
// writer must not confuse anything — it is inert and overwritten by
// this run's own seals.
TEST_F(StoreRecovery, LeftoverTempFileIsInertAcrossTheRun) {
  {
    const std::string garbage = "half-written garbage from a dead writer";
    auto writer = store::RealFs::instance().create(path_ + ".tmp");
    ASSERT_NE(writer, nullptr);
    ASSERT_TRUE(writer->write(garbage.data(), garbage.size()));
    ASSERT_TRUE(writer->close());
  }

  const SliceRun run = run_slice_with_store(path_, nullptr, true, -1);
  EXPECT_EQ(run.outcome, store::OpenOutcome::Fresh);
  ASSERT_FALSE(run.interrupted);
  expect_matches_reference(run);
  auto opened = store::VerdictStore::open(
      path_, explore::harness_store_meta(ninety_models()));
  EXPECT_EQ(opened.outcome, store::OpenOutcome::Loaded);
}

// Fault class: a filesystem where every fsync fails (dying disk, full
// tmpfs).  Every seal's commit fails, which must be non-fatal: the run
// completes with the correct matrix and no damaged file appears under
// a final name.
TEST_F(StoreRecovery, SealFaultsAreNonFatalAndLeaveNoPartialFile) {
  store::FaultFs faulty(store::RealFs::instance());
  faulty.fail_sync_at = 0;
  faulty.sticky = true;

  const SliceRun run = run_slice_with_store(path_, &faulty, false, -1);
  ASSERT_FALSE(run.interrupted);
  expect_matches_reference(run);
  EXPECT_FALSE(store::RealFs::instance().exists(path_));
  EXPECT_EQ(segment_files(), 0);
}

}  // namespace
}  // namespace mcmc
