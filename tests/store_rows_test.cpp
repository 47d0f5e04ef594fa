// Differential coverage of the row-level store path (VerdictEngine::
// run_rows), the only path that reads or writes a verdict store.  The
// Theorem harness sweeps its candidates through it: on both 2-access
// slices, at 1 and 4 threads, a checkpointed harness run must
// reproduce the store-less run's matrix and evaluation counts, and
// leave a store file byte for byte equal to a reference run's.  The
// reference streams the same extremes, sweeps the same candidates with
// a store-less run_matrix that decides every cell on its own (the cache
// off), and writes every verdict with a store column into the store
// cell by cell.  A warm rerun then serves the whole sweep from the
// store.  run_matrix on a store-attached engine takes the same row
// path.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_set>
#include <vector>

#include "engine/verdict_engine.h"
#include "enumeration/exhaustive.h"
#include "enumeration/suite.h"
#include "explore/distinguish.h"
#include "explore/space.h"
#include "models/special_fence.h"
#include "store/fs.h"
#include "store/verdict_store.h"
#include "util/hash128.h"
#include "util/mutex.h"

namespace mcmc {
namespace {

/// Chunks sealed per checkpoint: every chunk, so the segment chain
/// grows and folds many times over a slice.
constexpr int kSealEvery = 1;

enumeration::ExhaustiveOptions slice_options(bool deps) {
  enumeration::ExhaustiveOptions options;
  options.bounds.max_accesses_per_thread = 2;
  options.bounds.deps = deps;
  options.chunk_size = 256;
  return options;
}

std::vector<core::MemoryModel> ninety_models() {
  std::vector<core::MemoryModel> out;
  for (const auto& c : explore::model_space(true)) out.push_back(c.to_model());
  return out;
}

std::string slurp(const std::string& path) {
  std::string bytes;
  EXPECT_TRUE(store::RealFs::instance().read_file(path, bytes)) << path;
  return bytes;
}

struct SliceRun {
  explore::DistinguishMatrix matrix;
  engine::EngineStats sweep;
  std::size_t candidates = 0;
  /// The store's own cell counters over the whole run.
  std::uint64_t store_hits = 0;
  std::uint64_t store_misses = 0;
  std::string bytes;  ///< the store file the run left
};

engine::EngineOptions with_threads(int threads) {
  engine::EngineOptions options;
  options.num_threads = threads;
  return options;
}

/// The reference engines: with the cache off, a store-less run_matrix
/// decides every cell through the direct batch and shares no row code
/// with run_rows.
engine::EngineOptions cellwise(int threads) {
  engine::EngineOptions options = with_threads(threads);
  options.cache_enabled = false;
  return options;
}

/// The harness, checkpointed into a fresh store at `path` (or, with an
/// empty path, store-less).
SliceRun harness_run(const std::vector<core::MemoryModel>& models, bool deps,
                int threads, const std::string& path) {
  SliceRun run;
  std::unique_ptr<store::VerdictStore> vstore;
  store::StreamPersistence persistence;
  explore::TheoremHarnessOptions options;
  if (!path.empty()) {
    vstore = store::VerdictStore::open(path,
                                       explore::harness_store_meta(models))
                 .store;
    persistence.path = path;
    persistence.checkpoint_every_chunks = kSealEvery;
    options.verdict_store = vstore.get();
    options.persistence = &persistence;
  }
  engine::VerdictEngine eng(with_threads(threads));
  enumeration::ExhaustiveStream stream(slice_options(deps));
  explore::TheoremHarnessReport report;
  run.matrix = explore::distinguishability_streamed(eng, models, stream,
                                                    options, &report);
  run.sweep = report.sweep;
  run.candidates = report.candidate_tests;
  if (vstore != nullptr) {
    run.store_hits = vstore->hits();
    run.store_misses = vstore->misses();
    run.bytes = slurp(path);
  }
  return run;
}

/// A reference run that shares no row or store code with run_rows: the
/// same extremes stream, with each chunk's candidates swept cell by cell
/// by a store-less run_matrix and every verdict with a store column
/// written with set_bit_locked, in candidate order, under one exclusive
/// hold per chunk (an unchanged bit dirties nothing, as with run_rows).
/// Its `sweep` holds the store traffic the row path must report: one
/// probe per canonical class per chunk, which misses the first time the
/// class is swept and hits later.  Its seals carry the harness's sink
/// layout (distinguish.cpp: version, model count, candidate and
/// filtered counts, sweep seconds, then the distinct verdict columns),
/// so both runs commit equal-sized segments and fold at the same seals.
SliceRun reference_run(const std::vector<core::MemoryModel>& models, bool deps,
                  int threads, const std::string& path) {
  SliceRun run;
  const auto n = static_cast<int>(models.size());
  const std::size_t words = (models.size() + 63) / 64;
  auto vstore =
      store::VerdictStore::open(path, explore::harness_store_meta(models))
          .store;
  engine::VerdictEngine eng(with_threads(threads));
  engine::VerdictEngine sweep(cellwise(threads));
  // Store columns of the swept models (-1: custom predicates, none).
  std::vector<int> cols;
  std::size_t column_models = 0;
  for (const auto& model : models) {
    cols.push_back(model.formula().has_custom()
                       ? -1
                       : vstore->column_of(store::model_store_key(model)));
    if (cols.back() >= 0) ++column_models;
  }
  std::unordered_set<util::Key128, util::Key128Hash> swept_classes;
  std::size_t row_probes = 0;

  run.matrix = explore::DistinguishMatrix(n);
  std::set<std::vector<std::uint64_t>> columns;
  std::size_t filtered = 0;
  store::StreamPersistence persistence;
  persistence.path = path;
  persistence.checkpoint_every_chunks = kSealEvery;
  persistence.save_sink = [&](std::vector<std::uint64_t>& out) {
    out = {3, models.size(), run.candidates, filtered, 0, columns.size()};
    for (const auto& column : columns) {
      out.insert(out.end(), column.begin(), column.end());
    }
  };
  engine::StreamOptions stream_options;
  for (const auto& model : models) {
    stream_options.force_structural_keys =
        stream_options.force_structural_keys || model.formula().has_custom();
  }
  stream_options.verdict_store = vstore.get();
  stream_options.persistence = &persistence;

  enumeration::ExhaustiveStream stream(slice_options(deps));
  std::vector<litmus::LitmusTest> candidates;
  (void)eng.run_stream(
      explore::extreme_models(), stream,
      [&](const std::vector<litmus::LitmusTest>& novel,
          const std::vector<util::Key128>&, const engine::BitMatrix& verdicts,
          const engine::StreamChunkStats&) {
        candidates.clear();
        for (std::size_t i = 0; i < novel.size(); ++i) {
          const auto t = static_cast<int>(i);
          if (verdicts.get(0, t) && !verdicts.get(1, t)) {
            candidates.push_back(novel[i]);
          } else {
            ++filtered;
          }
        }
        run.candidates += candidates.size();
        if (candidates.empty()) return;
        const engine::BitMatrix swept = sweep.run_matrix(models, candidates);
        litmus::KeyScratch scratch;
        std::vector<util::Key128> keys;
        std::unordered_set<util::Key128, util::Key128Hash> chunk_rows;
        for (const auto& candidate : candidates) {
          keys.push_back(litmus::canonical_fingerprint(candidate, scratch));
          if (chunk_rows.insert(keys.back()).second) {
            ++row_probes;
            swept_classes.insert(keys.back());
          }
        }
        {
          store::VerdictStore& out = *vstore;
          util::ExclusiveLock lock(out.mu());
          for (int t = 0; t < swept.cols(); ++t) {
            for (int m = 0; m < n; ++m) {
              const int col = cols[static_cast<std::size_t>(m)];
              if (col >= 0) {
                out.set_bit_locked(keys[static_cast<std::size_t>(t)], col,
                                   swept.get(m, t));
              }
            }
          }
        }
        for (int t = 0; t < swept.cols(); ++t) {
          std::vector<std::uint64_t> column(words, 0);
          for (int m = 0; m < n; ++m) {
            if (swept.get(m, t)) {
              column[static_cast<std::size_t>(m) / 64] |=
                  1ULL << (static_cast<std::size_t>(m) % 64);
            }
          }
          if (columns.insert(column).second) run.matrix.fold_column(column);
        }
      },
      stream_options);
  run.sweep.cells = models.size() * run.candidates;
  run.sweep.store_misses = column_models * swept_classes.size();
  run.sweep.store_hits = column_models * (row_probes - swept_classes.size());
  run.store_hits = vstore->hits();
  run.store_misses = vstore->misses();
  run.bytes = slurp(path);
  return run;
}

/// A base file without its generation word and trailer: the header
/// (56 bytes), then everything after the generation up to the trailer.
std::string without_generation(const std::string& bytes) {
  if (bytes.size() < 56 + 8 + 16) return bytes;
  return bytes.substr(0, 56) + bytes.substr(64, bytes.size() - 64 - 16);
}

/// The sweep's evaluation counts equal the store-less harness's: with
/// canonical stream keys every candidate is a class of its own, so a
/// cold store serves none of its cells.
void expect_same_evaluation(const engine::EngineStats& got,
                            const engine::EngineStats& want,
                            const std::string& label) {
  EXPECT_EQ(got.cells, want.cells) << label;
  EXPECT_EQ(got.checks_run, want.checks_run) << label;
  EXPECT_EQ(got.searches, want.searches) << label;
  EXPECT_EQ(got.unique_analyses, want.unique_analyses) << label;
}

class StoreRows : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    path_ = ::testing::TempDir() + "store_rows_" + info->name() + ".mcvs";
    scrub();
  }
  void TearDown() override { scrub(); }

  void scrub() const {
    for (const std::string& base : {path_, path_ + ".ref"}) {
      for (int i = 0; i <= 64; ++i) {
        const std::string file =
            i == 0 ? base : base + "." + std::to_string(i);
        std::remove(file.c_str());
        std::remove((file + ".tmp").c_str());
        std::remove((file + ".corrupt").c_str());
      }
    }
  }

  /// The whole differential on one slice at one thread count; `custom`:
  /// the last model has custom predicates (and so no store column).
  void check(const std::vector<core::MemoryModel>& models, bool deps,
             int threads, bool custom = false) {
    const std::string label = std::string(deps ? "dep" : "no-dep") +
                              " slice, " + std::to_string(threads) +
                              " threads";
    scrub();
    const SliceRun bare = harness_run(models, deps, threads, "");
    const SliceRun rows = harness_run(models, deps, threads, path_);
    const SliceRun ref = reference_run(models, deps, threads, path_ + ".ref");

    EXPECT_TRUE(rows.matrix == bare.matrix) << label;
    EXPECT_TRUE(ref.matrix == bare.matrix) << label;
    EXPECT_GT(bare.matrix.distinguished_pairs(), 0) << label;
    ASSERT_GT(rows.candidates, 0u) << label;
    EXPECT_EQ(rows.candidates, ref.candidates) << label;

    ASSERT_FALSE(rows.bytes.empty()) << label;
    EXPECT_TRUE(rows.bytes == ref.bytes) << label << ": store files differ";
    EXPECT_EQ(rows.sweep.cells, ref.sweep.cells) << label;
    EXPECT_EQ(rows.sweep.store_hits, ref.sweep.store_hits) << label;
    EXPECT_EQ(rows.sweep.store_misses, ref.sweep.store_misses) << label;
    // The store's own counters: the stream's probes, which the reference
    // shares, plus the sweep's.
    EXPECT_EQ(rows.store_hits, ref.store_hits + rows.sweep.store_hits)
        << label;
    EXPECT_EQ(rows.store_misses, ref.store_misses + rows.sweep.store_misses)
        << label;
    if (!custom) {
      expect_same_evaluation(rows.sweep, bare.sweep, label);
      EXPECT_EQ(rows.sweep.store_hits, 0u) << label;
      EXPECT_EQ(rows.sweep.store_misses, rows.sweep.cells) << label;
    }

    // Warm: the finished store serves every sweep cell it has a column
    // for (all of them, unless a model is custom), and leaves the file
    // as it was.
    const SliceRun warm = harness_run(models, deps, threads, path_);
    EXPECT_TRUE(warm.matrix == bare.matrix) << label;
    EXPECT_EQ(warm.sweep.cells, rows.sweep.cells) << label;
    EXPECT_EQ(warm.sweep.store_misses, 0u) << label;
    if (custom) {
      EXPECT_EQ(warm.sweep.checks_run, rows.candidates) << label;
      // Its store holds only the sweep's rows, so the warm run's seals
      // soon outgrow the base and fold it: a later generation of the
      // same rows.
      EXPECT_TRUE(without_generation(warm.bytes) ==
                  without_generation(rows.bytes))
          << label << ": a warm run changed a row";
    } else {
      EXPECT_EQ(warm.sweep.checks_run, 0u) << label;
      EXPECT_EQ(warm.sweep.searches, 0u) << label;
      EXPECT_EQ(warm.sweep.store_hits, warm.sweep.cells) << label;
      EXPECT_TRUE(warm.bytes == rows.bytes) << label << ": a warm run wrote";
    }
  }

  std::string path_;
};

TEST_F(StoreRows, NoDepSliceMatchesTheCellwiseReference) {
  const auto models = ninety_models();
  for (const int threads : {1, 4}) check(models, /*deps=*/false, threads);
}

TEST_F(StoreRows, DepSliceMatchesTheCellwiseReference) {
  const auto models = ninety_models();
  for (const int threads : {1, 4}) check(models, /*deps=*/true, threads);
}

TEST_F(StoreRows, StructuralKeysStoreTheCellwiseReferencesRows) {
  // A custom-predicate model forces structural stream keys: the sweep
  // keys its candidates by canonical fingerprint itself, candidates of
  // one canonical class share a store row, and the custom model's
  // cells are decided per test and never stored.
  auto models = ninety_models();
  models.push_back(models::special_fence_chain(1));
  ASSERT_TRUE(models.back().formula().has_custom());
  for (const int threads : {1, 4}) {
    check(models, /*deps=*/false, threads, /*custom=*/true);
  }
}

TEST_F(StoreRows, AttachedStoreMatrixTakesTheRowPath) {
  // run_matrix on a store-attached engine is run_rows over the store:
  // the with-dep Corollary-1 suite, with a custom-predicate model that
  // has no store column, at 1 and 4 threads, against a cell-by-cell
  // reference.
  auto models = ninety_models();
  models.push_back(models::special_fence_chain(1));
  const auto tests = enumeration::corollary1_suite(true);
  ASSERT_EQ(tests.size(), 124u);
  const auto num_models = static_cast<int>(models.size());
  const auto num_tests = static_cast<int>(tests.size());
  litmus::KeyScratch scratch;
  std::vector<util::Key128> keys;
  for (const auto& test : tests) {
    keys.push_back(litmus::canonical_fingerprint(test, scratch));
  }
  const std::unordered_set<util::Key128, util::Key128Hash> classes(
      keys.begin(), keys.end());

  for (const int threads : {1, 4}) {
    const std::string label = std::to_string(threads) + " threads";
    engine::VerdictEngine bare(cellwise(threads));
    const engine::BitMatrix want = bare.run_matrix(models, tests);

    store::VerdictStore vstore(explore::harness_store_meta(ninety_models()));
    engine::VerdictEngine eng(with_threads(threads));
    eng.set_store(&vstore);
    EXPECT_TRUE(eng.run_matrix(models, tests) == want) << label;
    EXPECT_EQ(eng.last_stats().store_hits, 0u) << label;

    // One row per canonical class, its columns equal to the matrix.
    EXPECT_EQ(vstore.size(), classes.size()) << label;
    for (int t = 0; t < num_tests; ++t) {
      for (int m = 0; m + 1 < num_models; ++m) {
        const int col = vstore.column_of(
            store::model_store_key(models[static_cast<std::size_t>(m)]));
        ASSERT_GE(col, 0) << label;
        EXPECT_EQ(vstore.probe_bit(keys[static_cast<std::size_t>(t)], col),
                  std::optional<bool>(want.get(m, t)))
            << label << ": model " << m << ", test " << t;
      }
    }

    // A fresh engine on the warm store evaluates only the custom
    // model's cells, one per test.
    engine::VerdictEngine warm(with_threads(threads));
    warm.set_store(&vstore);
    EXPECT_TRUE(warm.run_matrix(models, tests) == want) << label;
    EXPECT_EQ(warm.last_stats().store_misses, 0u) << label;
    EXPECT_EQ(warm.last_stats().checks_run, tests.size()) << label;
  }
}

}  // namespace
}  // namespace mcmc
