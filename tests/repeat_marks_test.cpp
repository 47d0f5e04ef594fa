// Repeat marks of the exhaustive stream: ExhaustiveStream marks every
// test of a program whose orbit (thread exchange x location renaming)
// has its least shape pair earlier in the stream, and the keys stage of
// run_stream settles marked tests as duplicates without fingerprinting
// them.  On both 2-access slices the marks are pinned, the unmarked
// programs are one per program class, every mark survives the
// fingerprint audit, a marked run equals a mark-less one bit for bit at
// any thread count, a restored stream marks only against the programs
// it emitted itself, and structural keys ignore the marks.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "engine/audited_source.h"
#include "engine/test_stream.h"
#include "engine/verdict_engine.h"
#include "enumeration/exhaustive.h"
#include "explore/space.h"
#include "repeat_mark_tally.h"

namespace mcmc {
namespace {

enumeration::ExhaustiveOptions slice(bool deps) {
  enumeration::ExhaustiveOptions options;
  options.bounds.max_accesses_per_thread = 2;
  options.bounds.deps = deps;
  options.chunk_size = 512;
  return options;
}

/// The slices' pinned counts.
struct SliceCounts {
  std::size_t tests;
  std::size_t marked;
  std::size_t unmarked_programs;
};
SliceCounts pinned(bool deps) {
  return deps ? SliceCounts{28470, 25739, 1170}
              : SliceCounts{13086, 11813, 558};
}

/// Forwards a source's tests and cursors but none of its marks.
class MarkLessSource final : public engine::TestSource {
 public:
  explicit MarkLessSource(engine::TestSource& inner) : inner_(inner) {}

  bool next_chunk(std::vector<litmus::LitmusTest>& out) override {
    return inner_.next_chunk(out);
  }
  [[nodiscard]] bool snapshot_cursor(
      std::vector<std::uint64_t>& out) const override {
    return inner_.snapshot_cursor(out);
  }
  [[nodiscard]] bool restore_cursor(
      const std::vector<std::uint64_t>& cursor) override {
    return inner_.restore_cursor(cursor);
  }

 private:
  engine::TestSource& inner_;
};

/// Everything a streamed run delivers, and its accounting.
struct StreamedRun {
  std::vector<std::string> novel_names;
  std::vector<util::Key128> novel_keys;
  std::vector<char> verdict_bits;
  std::vector<std::size_t> chunk_counts;  // streamed, novel, duplicates
  engine::StreamStats stats;
};

StreamedRun stream_run(engine::TestSource& source, int threads,
                       bool structural = false) {
  engine::EngineOptions engine_options;
  engine_options.num_threads = threads;
  engine::VerdictEngine eng(engine_options);
  engine::StreamOptions stream_options;
  stream_options.force_structural_keys = structural;
  const std::vector<core::MemoryModel> models = {
      explore::ModelChoices{4, 4, 4, 4}.to_model(),
      explore::ModelChoices{1, 0, 1, 0}.to_model()};
  StreamedRun run;
  run.stats = eng.run_stream(
      models, source,
      [&](const std::vector<litmus::LitmusTest>& novel,
          const std::vector<util::Key128>& keys,
          const engine::BitMatrix& verdicts,
          const engine::StreamChunkStats& cs) {
        for (std::size_t i = 0; i < novel.size(); ++i) {
          run.novel_names.push_back(novel[i].name());
          run.novel_keys.push_back(keys[i]);
          for (int m = 0; m < verdicts.rows(); ++m) {
            run.verdict_bits.push_back(
                verdicts.get(m, static_cast<int>(i)) ? 1 : 0);
          }
        }
        run.chunk_counts.insert(run.chunk_counts.end(),
                                {cs.streamed, cs.novel, cs.duplicates});
      },
      stream_options);
  return run;
}

/// The two runs delivered the same tests, keys and verdicts, and
/// account for them alike (repeat counts aside).
void expect_same_run(const StreamedRun& a, const StreamedRun& b,
                     const std::string& label) {
  EXPECT_EQ(a.novel_names, b.novel_names) << label;
  EXPECT_EQ(a.novel_keys, b.novel_keys) << label;
  EXPECT_EQ(a.verdict_bits, b.verdict_bits) << label;
  EXPECT_EQ(a.chunk_counts, b.chunk_counts) << label;
  EXPECT_EQ(a.stats.chunks, b.stats.chunks) << label;
  EXPECT_EQ(a.stats.tests_streamed, b.stats.tests_streamed) << label;
  EXPECT_EQ(a.stats.novel_tests, b.stats.novel_tests) << label;
  EXPECT_EQ(a.stats.duplicate_tests, b.stats.duplicate_tests) << label;
  EXPECT_EQ(a.stats.engine.cells, b.stats.engine.cells) << label;
  EXPECT_EQ(a.stats.engine.checks_run, b.stats.engine.checks_run) << label;
  EXPECT_EQ(a.stats.engine.searches, b.stats.engine.searches) << label;
}

TEST(RepeatMarks, PinnedOnBothSlicesWithOneUnmarkedProgramPerClass) {
  for (const bool deps : {false, true}) {
    enumeration::ExhaustiveStream stream(slice(deps));
    RepeatMarkTally tally(stream);
    engine::for_each_test(tally, [](const litmus::LitmusTest&) {});
    const SliceCounts want = pinned(deps);
    EXPECT_EQ(tally.tests(), want.tests) << "deps=" << deps;
    EXPECT_EQ(tally.marked_tests(), want.marked) << "deps=" << deps;
    EXPECT_EQ(tally.unmarked_programs(), want.unmarked_programs)
        << "deps=" << deps;
    EXPECT_EQ(static_cast<long long>(tally.unmarked_programs()),
              enumeration::canonical_program_classes(slice(deps)))
        << "deps=" << deps;
    EXPECT_EQ(tally.mixed_programs(), 0u) << "deps=" << deps;
  }
}

TEST(RepeatMarks, PrefetcherCarriesEachChunksMarks) {
  for (const bool deps : {false, true}) {
    std::vector<std::vector<char>> direct;
    {
      enumeration::ExhaustiveStream stream(slice(deps));
      std::vector<litmus::LitmusTest> chunk;
      bool more = true;
      while (more) {
        chunk.clear();
        more = stream.next_chunk(chunk);
        ASSERT_EQ(stream.repeat_marks()->size(), chunk.size());
        direct.push_back(*stream.repeat_marks());
      }
    }
    std::vector<std::vector<char>> prefetched;
    {
      enumeration::ExhaustiveStream stream(slice(deps));
      engine::ChunkPrefetcher prefetcher(stream);
      std::vector<litmus::LitmusTest> chunk;
      bool more = true;
      while (more) {
        prefetcher.recycle(chunk);
        more = prefetcher.next_chunk(chunk);
        ASSERT_NE(prefetcher.repeat_marks(), nullptr);
        prefetched.push_back(*prefetcher.repeat_marks());
      }
    }
    EXPECT_EQ(prefetched, direct) << "deps=" << deps;
  }
}

TEST(RepeatMarks, MarkedRunEqualsMarkLessRunAcrossThreads) {
  for (const bool deps : {false, true}) {
    for (const int threads : {1, 4}) {
      const std::string label = "deps=" + std::to_string(deps) +
                                " threads=" + std::to_string(threads);
      enumeration::ExhaustiveStream marked_stream(slice(deps));
      // The audit checks every mark on the way.
      engine::AuditedSource audited(marked_stream);
      const StreamedRun marked = stream_run(audited, threads);

      enumeration::ExhaustiveStream plain_stream(slice(deps));
      MarkLessSource mark_less(plain_stream);
      const StreamedRun plain = stream_run(mark_less, threads);

      expect_same_run(marked, plain, label);
      EXPECT_EQ(marked.stats.repeat_tests, pinned(deps).marked) << label;
      EXPECT_EQ(audited.marks_verified(), pinned(deps).marked) << label;
      EXPECT_EQ(plain.stats.repeat_tests, 0u) << label;
      EXPECT_EQ(marked.stats.tests_streamed, pinned(deps).tests) << label;
    }
  }
}

TEST(RepeatMarks, RestoredStreamMarksOnlyWhatItEmitted) {
  // The cursor sits inside a program, past a third of the slice.  A
  // fresh engine seeds no keys, so a restored stream that marked against
  // programs it did not emit would drop their classes from the suffix's
  // novel tests.
  for (const bool deps : {false, true}) {
    const std::string label = "deps=" + std::to_string(deps);
    // One test per chunk, so a cursor can stop before any test.
    enumeration::ExhaustiveOptions single = slice(deps);
    single.chunk_size = 1;
    std::vector<std::uint64_t> cursor;
    std::size_t skipped = 0;
    {
      enumeration::ExhaustiveStream head(single);
      std::vector<litmus::LitmusTest> chunk;
      for (;;) {
        std::vector<std::uint64_t> before;
        ASSERT_TRUE(head.snapshot_cursor(before));
        chunk.clear();
        ASSERT_TRUE(head.next_chunk(chunk));
        const std::string& name = chunk.front().name();
        if (skipped >= pinned(deps).tests / 3 &&
            name.substr(name.find('.')) != ".0") {
          cursor = before;  // restoring re-delivers this test first
          break;
        }
        ++skipped;
      }
    }
    enumeration::ExhaustiveStream marked_stream(slice(deps));
    ASSERT_TRUE(marked_stream.restore_cursor(cursor));
    enumeration::ExhaustiveStream plain_stream(slice(deps));
    ASSERT_TRUE(plain_stream.restore_cursor(cursor));
    MarkLessSource mark_less(plain_stream);
    const StreamedRun marked = stream_run(marked_stream, 4);
    const StreamedRun plain = stream_run(mark_less, 4);
    expect_same_run(marked, plain, label);
    EXPECT_EQ(marked.stats.tests_streamed, pinned(deps).tests - skipped)
        << label;
    // The suffix still marks the repeats of the programs it started.
    EXPECT_GT(marked.stats.repeat_tests, 0u) << label;
    EXPECT_LT(marked.stats.repeat_tests, pinned(deps).marked) << label;
  }
}

TEST(RepeatMarks, StructuralKeysIgnoreMarks) {
  for (const bool deps : {false, true}) {
    enumeration::ExhaustiveStream marked_stream(slice(deps));
    const StreamedRun marked =
        stream_run(marked_stream, 4, /*structural=*/true);
    enumeration::ExhaustiveStream plain_stream(slice(deps));
    MarkLessSource mark_less(plain_stream);
    const StreamedRun plain = stream_run(mark_less, 4, /*structural=*/true);
    const std::string label = "deps=" + std::to_string(deps);
    expect_same_run(marked, plain, label);
    EXPECT_EQ(marked.stats.repeat_tests, 0u) << label;
    // Skipping the marked tests would leave at most the unmarked ones
    // novel.
    EXPECT_GT(marked.stats.novel_tests,
              pinned(deps).tests - pinned(deps).marked)
        << label;
  }
}

}  // namespace
}  // namespace mcmc
