// Elided repeats of the exhaustive stream: once its consumer opts in
// (TestSource::elide_repeats), ExhaustiveStream builds no test of a
// program whose orbit (thread exchange x location renaming) has its
// least shape pair earlier in the stream; it counts that program's
// stream positions as elided instead, and run_stream settles them as
// duplicates, and the rest inside each program run, which the opt-in
// certifies no class spans.  On both 2-access slices the elided counts
// are pinned and the built programs are one per program class; the
// prefetcher carries each chunk's count; an opted-in run equals a
// full-build run, which dedups in a KeySet, bit for bit (names, keys,
// verdicts, per-chunk counts, cursors after every chunk and the final
// store rows) at any thread count and at chunk sizes whose chunks end
// inside elided programs or elide every position; the files each run
// publishes when sealed after every chunk are pinned by a sha256; a
// run resumed from a seal whose cursor lies inside a built program,
// inside an elided one or at a program boundary delivers what the
// uninterrupted run does; and structural keys never opt in.
#include <gtest/gtest.h>

#include <algorithm>
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
#include "litmus/test.h"
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
  std::vector<std::size_t> novel_chunks;  // each novel test's chunk
  std::vector<std::size_t> chunk_counts;  // streamed, novel, duplicates
  std::vector<std::vector<std::uint64_t>> cursors;  // after every pull
  std::size_t built_tests = 0;
  std::size_t elided_tests = 0;
  std::size_t all_elided_chunks = 0;
  /// The store files each seal and the completion published, in order.
  MemFs::Published published;
  std::map<std::string, std::string> store_files;  // at the end
  engine::StreamStats stats;
  bool interrupted = false;  // the kill hook fired

  /// What the run delivered for its first `chunks` chunks.
  [[nodiscard]] StreamedRun prefix(std::size_t chunks) const {
    StreamedRun head;
    for (std::size_t i = 0; i < novel_names.size(); ++i) {
      if (novel_chunks[i] >= chunks) break;
      head.novel_names.push_back(novel_names[i]);
      head.novel_keys.push_back(novel_keys[i]);
      head.novel_chunks.push_back(novel_chunks[i]);
      const std::size_t rows = verdict_bits.size() / novel_names.size();
      head.verdict_bits.insert(
          head.verdict_bits.end(),
          verdict_bits.begin() + static_cast<std::ptrdiff_t>(i * rows),
          verdict_bits.begin() + static_cast<std::ptrdiff_t>((i + 1) * rows));
    }
    head.chunk_counts.assign(
        chunk_counts.begin(),
        chunk_counts.begin() + static_cast<std::ptrdiff_t>(3 * chunks));
    head.cursors.assign(cursors.begin(),
                        cursors.begin() + static_cast<std::ptrdiff_t>(chunks));
    return head;
  }

  /// Appends what `tail` delivered after this run's chunks.
  void append(const StreamedRun& tail) {
    const auto extend = [](auto& to, const auto& from) {
      to.insert(to.end(), from.begin(), from.end());
    };
    extend(novel_names, tail.novel_names);
    extend(novel_keys, tail.novel_keys);
    extend(verdict_bits, tail.verdict_bits);
    extend(novel_chunks, tail.novel_chunks);
    extend(chunk_counts, tail.chunk_counts);
    extend(cursors, tail.cursors);
  }
};

struct RunSpec {
  int threads = 4;
  bool forward_opt_in = true;
  bool structural = false;
  /// Seal a store checkpoint after every chunk.
  bool sealed = false;
  /// Sealed runs: the filesystem of the store (null: a fresh one of the
  /// run's own), resuming its checkpoint, and the kill hook's count.
  MemFs* fs = nullptr;
  bool resume = false;
  int kill_after_seals = -1;
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

  MemFs own_fs;
  MemFs& fs = spec.fs != nullptr ? *spec.fs : own_fs;
  const std::string path = "store";
  auto opened = store::VerdictStore::open(
      path, explore::harness_store_meta(stream_models()), &fs);
  store::StreamPersistence persistence;
  persistence.path = path;
  persistence.fs = &fs;
  persistence.checkpoint_every_chunks = 1;
  persistence.resume = spec.resume;
  persistence.kill_after_seals = spec.kill_after_seals;
  engine::StreamOptions stream_options;
  stream_options.force_structural_keys = spec.structural;
  if (spec.sealed) {
    stream_options.verdict_store = opened.store.get();
    stream_options.persistence = &persistence;
  }

  StreamedRun run;
  try {
    run.stats = eng.run_stream(
        stream_models(), log,
        [&](const std::vector<litmus::LitmusTest>& novel,
            const std::vector<util::Key128>& keys,
            const engine::BitMatrix& verdicts,
            const engine::StreamChunkStats& cs) {
          for (std::size_t i = 0; i < novel.size(); ++i) {
            run.novel_names.push_back(novel[i].name());
            run.novel_keys.push_back(keys[i]);
            run.novel_chunks.push_back(cs.index);
            for (int m = 0; m < verdicts.cols(); ++m) {
              run.verdict_bits.push_back(
                  verdicts.get(static_cast<int>(i), m) ? 1 : 0);
            }
          }
          run.chunk_counts.insert(run.chunk_counts.end(),
                                  {cs.streamed, cs.novel, cs.duplicates});
        },
        stream_options);
  } catch (const store::StreamInterrupted&) {
    run.interrupted = true;
  }
  run.cursors = log.cursors();
  run.built_tests = log.built_tests();
  run.elided_tests = log.elided_tests();
  run.all_elided_chunks = log.all_elided_chunks();
  run.published = fs.published();
  run.store_files = fs.files();
  return run;
}

/// The two runs delivered the same tests, keys and verdicts in the same
/// chunks, and left the same cursors after every pull.
void expect_same_delivery(const StreamedRun& a, const StreamedRun& b,
                          const std::string& label) {
  EXPECT_EQ(a.novel_names, b.novel_names) << label;
  EXPECT_EQ(a.novel_keys, b.novel_keys) << label;
  EXPECT_EQ(a.verdict_bits, b.verdict_bits) << label;
  EXPECT_EQ(a.novel_chunks, b.novel_chunks) << label;
  EXPECT_EQ(a.chunk_counts, b.chunk_counts) << label;
  EXPECT_EQ(a.cursors, b.cursors) << label;
}

/// The two runs' totals agree (repeat counts and commits aside).
void expect_same_totals(const engine::StreamStats& a,
                        const engine::StreamStats& b,
                        const std::string& label) {
  EXPECT_EQ(a.chunks, b.chunks) << label;
  EXPECT_EQ(a.tests_streamed, b.tests_streamed) << label;
  EXPECT_EQ(a.novel_tests, b.novel_tests) << label;
  EXPECT_EQ(a.duplicate_tests, b.duplicate_tests) << label;
}

/// expect_same_delivery and expect_same_totals, and the same
/// evaluation counts.
void expect_same_run(const StreamedRun& a, const StreamedRun& b,
                     const std::string& label) {
  expect_same_delivery(a, b, label);
  expect_same_totals(a.stats, b.stats, label);
  EXPECT_EQ(a.stats.engine.cells, b.stats.engine.cells) << label;
  EXPECT_EQ(a.stats.engine.checks_run, b.stats.engine.checks_run) << label;
  EXPECT_EQ(a.stats.engine.searches, b.stats.engine.searches) << label;
}

/// A completed sealed run's one file, the base, without its generation
/// word (bytes 56..63) and its trailer: the rows, in row order, which
/// a certified run and a full-build run leave alike, though they write
/// different numbers of bases.
std::string final_rows(const StreamedRun& run) {
  EXPECT_EQ(run.store_files.size(), 1u);
  const auto base = run.store_files.find("store");
  if (base == run.store_files.end() || base->second.size() < 56 + 8 + 16) {
    ADD_FAILURE() << "no base";
    return "";
  }
  const std::string& bytes = base->second;
  return bytes.substr(0, 56) + bytes.substr(64, bytes.size() - 64 - 16);
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

std::string label_of(bool deps, int chunk_size, int threads) {
  return "deps=" + std::to_string(deps) + " chunk=" +
         std::to_string(chunk_size) + " threads=" + std::to_string(threads);
}

TEST(ElidedRepeats, ElidedRunEqualsFullBuildRun) {
  // Chunks of 1 and 7 end inside elided programs and elide every
  // position of some chunks; each run seals after every chunk.  The
  // audit checks every elision of the opted-in run, and the run
  // certificate its opt-in carries, against a full-build twin on the
  // way.  The full-build run does not certify, so it dedups in a KeySet
  // and seals its rows without a checkpoint: the two runs publish
  // different files, each pinned by a digest, and end on the same rows.
  const int chunk_sizes[] = {1, 7, 512};
  // [deps][chunk size][0: opted in, 1: full build]
  const char* const digests[2][3][2] = {
      {{"49f024e2666902769dabf4875e8d9502a8982b43fa2b1c316801667639518307",
        "dc062488dda2a5c77b24f81694a11acb6805c8232afb7261c52e1d694812140c"},
       {"30e5eb1c93244df32c3656bd41d6cce1262b3f3ad9eb534c3153387c0d6edc85",
        "5f20ed5f6cd5ef34df7762395acebeaaef19ed0503ba296d466042806968f983"},
       {"c705dc2abdf95e2f14bd119fc54aa691624f0c4a247fec7d85107a898efc0872",
        "6a2a68960503290d527027c823b1ca1633287b8f60a2f536f66c9858e1b6ce06"}},
      {{"3d9815c075e6955921929031c2171e6d1c6bd940d999a13bfd4f92d467c73f6c",
        "2b541721e261a39e334d6287db199070e8a8453589b688329af570021cb45b5e"},
       {"92a58e2c45fc6736dd58a77da8abaa132a25082a4abae2bc15f0df07f13aa5a9",
        "5b53e48b894d73544f1006cf79e45f5e62ab2428240cc9bab6d81301cee473a7"},
       {"db0fc4711fa0bd22613fcfc9a086b4c5b9bc111b725ca0f527405c92c7a78675",
        "0232ea76d1afde0e747a50275c9d5ff99757cdb88ace043a0b65261cf67ad591"}}};
  for (const bool deps : {false, true}) {
    for (int c = 0; c < 3; ++c) {
      const int chunk_size = chunk_sizes[c];
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
        EXPECT_EQ(final_rows(elided), final_rows(full)) << label;
        EXPECT_EQ(published_digest(elided.published), digests[deps][c][0])
            << label;
        EXPECT_EQ(published_digest(full.published), digests[deps][c][1])
            << label;
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

TEST(ElidedRepeats, PublishedFilesArePinned) {
  // Every file the seals and the completion publish, sealed after every
  // chunk.  No harness sink runs, so the bytes carry no timings; a seal
  // captured at another moment than after its chunk's verdicts (or a
  // changed byte of the format) changes the log.
  EXPECT_EQ(Sha256().update("abc").hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  const char* const digests[] = {
      "c705dc2abdf95e2f14bd119fc54aa691624f0c4a247fec7d85107a898efc0872",
      "db0fc4711fa0bd22613fcfc9a086b4c5b9bc111b725ca0f527405c92c7a78675"};
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

/// Where a sealed cursor of an opted-in stream leaves it.
enum class CursorSpot { kBuiltProgram, kElidedProgram, kBoundary };

/// Classifies `cursor`, restoring it into a fresh opted-in stream: its
/// flags word (2) marks a live program, and inside a built one the
/// stream hands back that program's head, one test per outcome before
/// the cursor (word 8).
CursorSpot spot_of(const enumeration::ExhaustiveOptions& options,
                   const std::vector<std::uint64_t>& cursor) {
  enumeration::ExhaustiveStream stream(options);
  EXPECT_TRUE(stream.elide_repeats());
  EXPECT_TRUE(stream.restore_cursor(cursor));
  std::vector<litmus::LitmusTest> head;
  stream.restored_run_head(head);
  if ((cursor[2] & 2) == 0) {
    EXPECT_TRUE(head.empty());
    return CursorSpot::kBoundary;
  }
  if (head.empty()) return CursorSpot::kElidedProgram;
  EXPECT_EQ(head.size(), cursor[8]);
  return CursorSpot::kBuiltProgram;
}

/// True iff the built program `cursor` lies inside has, after the
/// cursor, a test whose class its head holds: a resume that forgot the
/// head would call that test novel.
bool head_class_recurs(const enumeration::ExhaustiveOptions& options,
                       const std::vector<std::uint64_t>& cursor) {
  enumeration::ExhaustiveStream stream(options);
  EXPECT_TRUE(stream.elide_repeats());
  EXPECT_TRUE(stream.restore_cursor(cursor));
  std::vector<litmus::LitmusTest> head;
  stream.restored_run_head(head);
  if (head.empty()) return false;
  litmus::KeyScratch scratch;
  std::vector<util::Key128> classes;
  for (const auto& test : head) {
    classes.push_back(litmus::canonical_fingerprint(test, scratch));
  }
  std::vector<litmus::LitmusTest> chunk;
  for (bool more = true; more;) {
    chunk.clear();
    more = stream.next_chunk(chunk);
    for (const auto& test : chunk) {
      if (test.shared_program() != head.front().shared_program()) {
        return false;
      }
      const util::Key128 key = litmus::canonical_fingerprint(test, scratch);
      if (std::find(classes.begin(), classes.end(), key) != classes.end()) {
        return true;
      }
    }
  }
  return false;
}

TEST(ElidedRepeats, ResumedRunEqualsTheUninterruptedRun) {
  // Kill a run sealed after every chunk right after a seal whose cursor
  // lies inside a built program (one whose tail repeats a class of its
  // head), inside an elided one and at a program boundary, past a third
  // of the slice; resume it from the store the kill left.  The resumed
  // run dedups inside each program run with no key from the
  // checkpoint: the head of a built program it lands in is rebuilt, and
  // every program before the cursor counts as streamed.
  for (const bool deps : {false, true}) {
    for (const int chunk_size : {1, 7}) {
      const std::string label = label_of(deps, chunk_size, 4);
      const enumeration::ExhaustiveOptions options = slice(deps, chunk_size);
      enumeration::ExhaustiveStream whole_stream(options);
      const StreamedRun whole = stream_run(whole_stream, RunSpec{});
      // Seal n covers the first n chunks; the last chunk never seals.
      std::map<CursorSpot, std::size_t> seals;
      for (std::size_t c = whole.stats.chunks / 3;
           c + 1 < whole.stats.chunks && seals.size() < 3; ++c) {
        const CursorSpot spot = spot_of(options, whole.cursors[c]);
        if (spot != CursorSpot::kBuiltProgram ||
            head_class_recurs(options, whole.cursors[c])) {
          seals.emplace(spot, c + 1);
        }
      }
      ASSERT_EQ(seals.size(), 3u) << label;
      for (const auto& [spot, seal] : seals) {
        const std::string at = label + " seal=" + std::to_string(seal);
        MemFs fs;
        RunSpec spec;
        spec.sealed = true;
        spec.fs = &fs;
        spec.kill_after_seals = static_cast<int>(seal);
        enumeration::ExhaustiveStream killed_stream(options);
        const StreamedRun killed = stream_run(killed_stream, spec);
        ASSERT_TRUE(killed.interrupted) << at;

        spec.kill_after_seals = -1;
        spec.resume = true;
        enumeration::ExhaustiveStream resumed_stream(options);
        const StreamedRun resumed = stream_run(resumed_stream, spec);
        ASSERT_FALSE(resumed.interrupted) << at;
        StreamedRun joined = killed.prefix(seal);
        joined.append(resumed);
        expect_same_delivery(joined, whole, at);
        expect_same_totals(resumed.stats, whole.stats, at);
        // The resumed run streamed only the positions after the seal.
        std::size_t sealed = 0;
        for (std::size_t k = 0; k < seal; ++k) {
          sealed += whole.chunk_counts[3 * k];
        }
        EXPECT_EQ(resumed.built_tests + resumed.elided_tests,
                  whole.stats.tests_streamed - sealed)
            << at;
        EXPECT_EQ(fs.files().size(), 1u) << at;
      }
    }
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
