// Elided repeats of the exhaustive stream: once its consumer opts in
// (TestSource::elide_repeats), ExhaustiveStream builds no test of a
// program whose orbit (thread exchange x location renaming) has its
// least shape pair earlier in the stream; it counts that program's
// stream positions as elided instead, and run_stream settles them as
// duplicates.  On both 2-access slices the elided counts are pinned and
// the built programs are one per program class; the prefetcher carries
// each chunk's count; an opted-in run equals a full-build run bit for
// bit (names, keys, verdicts, per-chunk counts, cursors after every
// chunk and store bytes after every seal) at any thread count and at
// chunk sizes whose chunks end inside elided programs or elide every
// position; the files both slices publish when sealed after every chunk
// are pinned by a sha256; a restored stream elides only against the
// programs it started itself; and structural keys never opt in.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "elision_tally.h"
#include "engine/audited_source.h"
#include "engine/test_stream.h"
#include "engine/verdict_engine.h"
#include "enumeration/exhaustive.h"
#include "explore/distinguish.h"
#include "explore/space.h"
#include "mem_fs.h"
#include "program_classes.h"
#include "sha256.h"
#include "store/fs.h"
#include "store/verdict_store.h"
#include "util/bytes.h"

namespace mcmc {
namespace {

enumeration::ExhaustiveOptions slice(bool deps, int chunk_size = 512) {
  enumeration::ExhaustiveOptions options;
  options.bounds.max_accesses_per_thread = 2;
  options.bounds.deps = deps;
  options.chunk_size = chunk_size;
  return options;
}

/// The slices' pinned counts.
struct SliceCounts {
  std::size_t tests;
  std::size_t elided;
  std::size_t built_programs;
};
SliceCounts pinned(bool deps) {
  return deps ? SliceCounts{28470, 25739, 1170}
              : SliceCounts{13086, 11813, 558};
}

/// Everything a streamed run delivers, and its accounting.
struct StreamedRun {
  std::vector<std::string> novel_names;
  std::vector<util::Key128> novel_keys;
  std::vector<char> verdict_bits;
  std::vector<std::size_t> chunk_counts;  // streamed, novel, duplicates
  std::vector<std::vector<std::uint64_t>> cursors;  // after every pull
  std::size_t built_tests = 0;
  std::size_t elided_tests = 0;
  std::size_t all_elided_chunks = 0;
  /// The store files each seal and the completion published, in order.
  MemFs::Published published;
  std::map<std::string, std::string> store_files;  // at the end
  engine::StreamStats stats;
};

struct RunSpec {
  int threads = 4;
  bool forward_opt_in = true;
  bool structural = false;
  /// Seal a store checkpoint after every chunk.
  bool sealed = false;
};

const std::vector<core::MemoryModel>& stream_models() {
  static const std::vector<core::MemoryModel> models = {
      explore::ModelChoices{4, 4, 4, 4}.to_model(),
      explore::ModelChoices{1, 0, 1, 0}.to_model()};
  return models;
}

StreamedRun stream_run(engine::TestSource& source, const RunSpec& spec) {
  engine::EngineOptions engine_options;
  engine_options.num_threads = spec.threads;
  engine::VerdictEngine eng(engine_options);
  ElisionTally log(source, spec.forward_opt_in);

  MemFs fs;
  const std::string path = "store";
  auto opened = store::VerdictStore::open(
      path, explore::harness_store_meta(stream_models()), &fs);
  store::StreamPersistence persistence;
  persistence.path = path;
  persistence.fs = &fs;
  persistence.checkpoint_every_chunks = 1;
  engine::StreamOptions stream_options;
  stream_options.force_structural_keys = spec.structural;
  if (spec.sealed) {
    stream_options.verdict_store = opened.store.get();
    stream_options.persistence = &persistence;
  }

  StreamedRun run;
  run.stats = eng.run_stream(
      stream_models(), log,
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
  run.cursors = log.cursors();
  run.built_tests = log.built_tests();
  run.elided_tests = log.elided_tests();
  run.all_elided_chunks = log.all_elided_chunks();
  run.published = fs.published();
  run.store_files = fs.files();
  return run;
}

/// The two runs delivered the same tests, keys and verdicts, account
/// for them alike (repeat counts aside) and left the same cursors and
/// store bytes behind.
void expect_same_run(const StreamedRun& a, const StreamedRun& b,
                     const std::string& label) {
  EXPECT_EQ(a.novel_names, b.novel_names) << label;
  EXPECT_EQ(a.novel_keys, b.novel_keys) << label;
  EXPECT_EQ(a.verdict_bits, b.verdict_bits) << label;
  EXPECT_EQ(a.chunk_counts, b.chunk_counts) << label;
  EXPECT_EQ(a.cursors, b.cursors) << label;
  EXPECT_TRUE(a.published == b.published) << label;
  EXPECT_TRUE(a.store_files == b.store_files) << label;
  EXPECT_EQ(a.stats.chunks, b.stats.chunks) << label;
  EXPECT_EQ(a.stats.tests_streamed, b.stats.tests_streamed) << label;
  EXPECT_EQ(a.stats.novel_tests, b.stats.novel_tests) << label;
  EXPECT_EQ(a.stats.duplicate_tests, b.stats.duplicate_tests) << label;
  EXPECT_EQ(a.stats.commits, b.stats.commits) << label;
  EXPECT_EQ(a.stats.bytes_committed, b.stats.bytes_committed) << label;
  EXPECT_EQ(a.stats.engine.cells, b.stats.engine.cells) << label;
  EXPECT_EQ(a.stats.engine.checks_run, b.stats.engine.checks_run) << label;
  EXPECT_EQ(a.stats.engine.searches, b.stats.engine.searches) << label;
}

TEST(ElidedRepeats, PinnedOnBothSlicesWithOneBuiltProgramPerClass) {
  for (const bool deps : {false, true}) {
    const std::string label = "deps=" + std::to_string(deps);
    enumeration::ExhaustiveStream stream(slice(deps));
    ElisionTally tally(stream);
    ASSERT_TRUE(tally.elide_repeats());
    engine::for_each_test(tally, [](const litmus::LitmusTest&) {});
    const SliceCounts want = pinned(deps);
    EXPECT_EQ(stream.emitted().tests, static_cast<long long>(want.tests))
        << label;
    EXPECT_EQ(tally.built_tests() + tally.elided_tests(), want.tests) << label;
    EXPECT_EQ(tally.elided_tests(), want.elided) << label;
    EXPECT_EQ(tally.built_programs(), want.built_programs) << label;
    const enumeration::ExhaustiveCounts orbits =
        enumeration::ExhaustiveStream::count_orbits(slice(deps));
    EXPECT_EQ(static_cast<long long>(tally.built_programs()), orbits.programs)
        << label;
    EXPECT_EQ(static_cast<long long>(tally.built_tests()), orbits.tests)
        << label;
    EXPECT_EQ(static_cast<long long>(tally.built_programs()),
              canonical_program_classes(slice(deps)))
        << label;
  }
}

TEST(ElidedRepeats, PrefetcherCarriesEachChunksElidedCount) {
  for (const bool deps : {false, true}) {
    using Counts = std::vector<std::pair<std::size_t, std::size_t>>;
    Counts direct;  // (tests built, positions elided) per chunk
    {
      enumeration::ExhaustiveStream stream(slice(deps, 7));
      ASSERT_TRUE(stream.elide_repeats());
      std::vector<litmus::LitmusTest> chunk;
      bool more = true;
      while (more) {
        chunk.clear();
        more = stream.next_chunk(chunk);
        direct.emplace_back(chunk.size(), stream.elided());
      }
    }
    Counts prefetched;
    {
      enumeration::ExhaustiveStream stream(slice(deps, 7));
      ASSERT_TRUE(stream.elide_repeats());
      engine::ChunkPrefetcher prefetcher(stream);
      std::vector<litmus::LitmusTest> chunk;
      bool more = true;
      while (more) {
        prefetcher.recycle(chunk);
        more = prefetcher.next_chunk(chunk);
        prefetched.emplace_back(chunk.size(), prefetcher.elided());
      }
    }
    EXPECT_EQ(prefetched, direct) << "deps=" << deps;
    std::size_t elided = 0;
    for (const auto& [built, skipped] : direct) elided += skipped;
    EXPECT_EQ(elided, pinned(deps).elided) << "deps=" << deps;
  }
}

std::string label_of(bool deps, int chunk_size, int threads) {
  return "deps=" + std::to_string(deps) + " chunk=" +
         std::to_string(chunk_size) + " threads=" + std::to_string(threads);
}

TEST(ElidedRepeats, ElidedRunEqualsFullBuildRun) {
  // Chunks of 1 and 7 end inside elided programs and elide every
  // position of some chunks; each run seals after every chunk.  The
  // audit checks every elision of the opted-in run against a full-build
  // twin on the way.
  for (const bool deps : {false, true}) {
    for (const int chunk_size : {1, 7, 512}) {
      for (const int threads : {1, 4}) {
        const std::string label = label_of(deps, chunk_size, threads);
        enumeration::ExhaustiveStream elided_stream(slice(deps, chunk_size));
        enumeration::ExhaustiveStream twin(slice(deps, chunk_size));
        engine::AuditedSource audited(elided_stream, threads, &twin);
        RunSpec spec;
        spec.threads = threads;
        spec.sealed = true;
        const StreamedRun elided = stream_run(audited, spec);

        enumeration::ExhaustiveStream full_stream(slice(deps, chunk_size));
        spec.forward_opt_in = false;
        const StreamedRun full = stream_run(full_stream, spec);

        expect_same_run(elided, full, label);
        const SliceCounts want = pinned(deps);
        EXPECT_EQ(elided.stats.tests_streamed, want.tests) << label;
        EXPECT_EQ(elided.stats.repeat_tests, want.elided) << label;
        EXPECT_EQ(audited.elided_verified(), want.elided) << label;
        EXPECT_EQ(audited.classes(), elided.stats.novel_tests) << label;
        EXPECT_EQ(full.stats.repeat_tests, 0u) << label;
        EXPECT_EQ(full.all_elided_chunks, 0u) << label;
        const auto size = static_cast<std::size_t>(chunk_size);
        const std::size_t chunks = (want.tests + size - 1) / size;
        EXPECT_EQ(elided.stats.chunks, chunks) << label;
        // One cursor per pull; a slice that fills its last chunk ends
        // with an empty pull.
        const std::size_t pulls = chunks + (want.tests % size == 0);
        EXPECT_EQ(elided.cursors.size(), pulls) << label;
        if (chunk_size < 512) {
          EXPECT_GT(elided.all_elided_chunks, 0u) << label;
        }
        EXPECT_GT(elided.published.size(), chunks / 2) << label;
      }
    }
  }
}

/// The sha256 of a published-file log: each file's path and bytes, in
/// publish order, each preceded by its length as a little-endian u64.
std::string published_digest(const MemFs::Published& published) {
  Sha256 sha;
  for (const auto& [path, bytes] : published) {
    for (const std::string* field : {&path, &bytes}) {
      std::string length;
      util::append_u64(length, field->size());
      sha.update(length).update(*field);
    }
  }
  return sha.hex();
}

TEST(ElidedRepeats, PublishedFilesArePinned) {
  // Every file the seals and the completion publish, sealed after every
  // chunk.  No harness sink runs, so the bytes carry no timings; a seal
  // captured at another moment than after its chunk's verdicts (or a
  // changed byte of the format) changes the log.
  EXPECT_EQ(Sha256().update("abc").hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  const char* const digests[] = {
      "9b9401f4f6f5652c9e1ffc35f363ad8adaa30d5f425b983e281235550ff8e9e8",
      "137f2bc96a36f3fed7de3159efd292ba6703f586a92594535738cbee7b17a315"};
  for (const bool deps : {false, true}) {
    enumeration::ExhaustiveStream stream(slice(deps));
    RunSpec spec;
    spec.sealed = true;
    const StreamedRun run = stream_run(stream, spec);
    EXPECT_EQ(run.published.size(), deps ? 56u : 26u) << "deps=" << deps;
    EXPECT_EQ(published_digest(run.published), digests[deps ? 1 : 0])
        << "deps=" << deps;
  }
}

TEST(ElidedRepeats, RestoredStreamElidesOnlyWhatItEmitted) {
  // The cursor sits inside a program, past a third of the slice.  A
  // fresh engine seeds no keys, so a restored stream that elided
  // against programs it did not emit would drop their classes from the
  // suffix's novel tests.
  for (const bool deps : {false, true}) {
    const std::string label = "deps=" + std::to_string(deps);
    // One test per chunk, so a cursor can stop before any test.
    std::vector<std::uint64_t> cursor;
    std::size_t skipped = 0;
    {
      enumeration::ExhaustiveStream head(slice(deps, 1));
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
    enumeration::ExhaustiveStream elided_stream(slice(deps));
    enumeration::ExhaustiveStream twin(slice(deps));
    engine::AuditedSource audited(elided_stream, 4, &twin);
    ASSERT_TRUE(audited.restore_cursor(cursor));
    enumeration::ExhaustiveStream full_stream(slice(deps));
    ASSERT_TRUE(full_stream.restore_cursor(cursor));
    const StreamedRun elided = stream_run(audited, RunSpec{});
    RunSpec full_spec;
    full_spec.forward_opt_in = false;
    const StreamedRun full = stream_run(full_stream, full_spec);
    expect_same_run(elided, full, label);
    EXPECT_EQ(elided.stats.tests_streamed, pinned(deps).tests - skipped)
        << label;
    // The suffix still elides the repeats of the programs it started.
    EXPECT_GT(elided.stats.repeat_tests, 0u) << label;
    EXPECT_LT(elided.stats.repeat_tests, pinned(deps).elided) << label;
    EXPECT_EQ(audited.elided_verified(), elided.stats.repeat_tests) << label;
  }
}

TEST(ElidedRepeats, StructuralKeysNeverOptIn) {
  for (const bool deps : {false, true}) {
    const std::string label = "deps=" + std::to_string(deps);
    enumeration::ExhaustiveStream offered_stream(slice(deps));
    RunSpec spec;
    spec.structural = true;
    const StreamedRun offered = stream_run(offered_stream, spec);
    enumeration::ExhaustiveStream full_stream(slice(deps));
    spec.forward_opt_in = false;
    const StreamedRun full = stream_run(full_stream, spec);
    expect_same_run(offered, full, label);
    EXPECT_EQ(offered.stats.repeat_tests, 0u) << label;
    EXPECT_EQ(offered.elided_tests, 0u) << label;
    EXPECT_EQ(offered.built_tests, pinned(deps).tests) << label;
    // Eliding would leave at most the built tests novel.
    EXPECT_GT(offered.stats.novel_tests,
              pinned(deps).tests - pinned(deps).elided)
        << label;
  }
}

}  // namespace
}  // namespace mcmc
