// Contention stress for the streaming pipeline, sized to stay tier-1
// fast but to maximize cross-thread traffic: tiny chunks (so the
// producer hand-off, the sharded claim phase, and the merged
// prepare+evaluate pass all cycle hundreds of times), duplicate-heavy
// corpora (so cross-chunk sealing and within-chunk min-index races both
// fire constantly), and more threads than this machine likely has
// cores.  CI runs this under ThreadSanitizer (the `tsan` job); the
// assertions here pin determinism, the TSan run pins data-race freedom.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "engine/test_stream.h"
#include "engine/verdict_engine.h"
#include "enumeration/exhaustive.h"
#include "enumeration/suite.h"
#include "explore/space.h"
#include "models/zoo.h"

namespace mcmc {
namespace {

// A duplicate-rich corpus: several interleaved copies of the suite so
// almost every chunk mixes novel tests with duplicates of earlier (and
// same-chunk) ones.
std::vector<litmus::LitmusTest> duplicate_heavy_corpus(int copies) {
  const auto suite = enumeration::corollary1_suite(true);
  std::vector<litmus::LitmusTest> corpus;
  for (std::size_t i = 0; i < suite.size(); ++i) {
    for (int c = 0; c < copies; ++c) {
      corpus.push_back(suite[i]);
    }
  }
  return corpus;
}

struct Folded {
  std::vector<std::string> names;
  std::vector<char> bits;
  std::size_t novel = 0;
  std::size_t duplicates = 0;
};

Folded run_once(const std::vector<litmus::LitmusTest>& corpus, int threads,
                std::size_t chunk_size) {
  engine::EngineOptions options;
  options.num_threads = threads;
  engine::VerdictEngine eng(options);

  const std::vector<core::MemoryModel> models = {
      models::sc(), models::tso(), models::pso(),
      explore::ModelChoices{2, 1, 3, 0}.to_model()};

  engine::VectorSource source(corpus, chunk_size);
  Folded folded;
  const auto stats = eng.run_stream(
      models, source,
      [&](const std::vector<litmus::LitmusTest>& novel,
          const std::vector<util::Key128>&, const engine::BitMatrix& verdicts,
          const engine::StreamChunkStats&) {
        for (std::size_t i = 0; i < novel.size(); ++i) {
          folded.names.push_back(novel[i].name());
          for (int m = 0; m < verdicts.rows(); ++m) {
            folded.bits.push_back(verdicts.get(m, static_cast<int>(i)) ? 1 : 0);
          }
        }
      });
  folded.novel = stats.novel_tests;
  folded.duplicates = stats.duplicate_tests;
  return folded;
}

TEST(StreamStress, TinyChunksManyThreadsDuplicateHeavy) {
  const auto corpus = duplicate_heavy_corpus(5);
  const auto reference = run_once(corpus, 1, 7);
  ASSERT_GT(reference.novel, 0u);
  ASSERT_GT(reference.duplicates, reference.novel);  // 5 copies: ~80% dups

  for (int round = 0; round < 3; ++round) {
    for (const int threads : {4, 8}) {
      const auto contended = run_once(corpus, threads, 7);
      EXPECT_EQ(contended.names, reference.names)
          << "threads=" << threads << " round=" << round;
      EXPECT_EQ(contended.bits, reference.bits)
          << "threads=" << threads << " round=" << round;
      EXPECT_EQ(contended.novel, reference.novel);
      EXPECT_EQ(contended.duplicates, reference.duplicates);
    }
  }
}

TEST(StreamStress, ExhaustiveSliceTinyChunksUnderContention) {
  // The real generator under the same pressure: a 2-location 2-access
  // slice in 64-test chunks, 8 threads on (likely) fewer cores.
  enumeration::ExhaustiveOptions slice;
  slice.bounds.max_accesses_per_thread = 2;
  slice.bounds.num_locations = 2;
  slice.chunk_size = 64;

  auto run = [&](int threads) {
    engine::EngineOptions options;
    options.num_threads = threads;
    engine::VerdictEngine eng(options);
    enumeration::ExhaustiveStream stream(slice);
    std::vector<std::string> names;
    const auto stats = eng.run_stream(
        {models::sc(), models::rmo()}, stream,
        [&](const std::vector<litmus::LitmusTest>& novel,
            const std::vector<util::Key128>&, const engine::BitMatrix&,
            const engine::StreamChunkStats&) {
          for (const auto& t : novel) names.push_back(t.name());
        });
    return std::make_pair(std::move(names), stats.novel_tests);
  };

  const auto [serial_names, serial_novel] = run(1);
  const auto [contended_names, contended_novel] = run(8);
  EXPECT_EQ(contended_names, serial_names);
  EXPECT_EQ(contended_novel, serial_novel);
  EXPECT_GT(serial_novel, 100u);
}

}  // namespace
}  // namespace mcmc
