#include "explore/distinguish.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <numeric>

#include "core/formula.h"
#include "util/check.h"
#include "util/hash128.h"
#include "util/timer.h"

namespace mcmc::explore {

namespace {

std::size_t words_for(int num_models) {
  return (static_cast<std::size_t>(num_models) + 63) / 64;
}

/// Version word of the harness checkpoint-sink payload.  Version 3
/// dropped the caller-owned extra section that version 2 appended;
/// version 4 added the sweep's counters, so a resumed run reports the
/// whole sweep.  Payloads of any other version are rejected, degrading
/// a stale resume to a from-scratch run.
constexpr std::uint64_t kSinkVersion = 4;

/// The sweep's counters, in the order the sink payload carries them.
std::array<std::size_t*, 9> sweep_counters(engine::EngineStats& sweep) {
  return {&sweep.cells,           &sweep.checks_run, &sweep.searches,
          &sweep.dedup_hits,      &sweep.store_hits, &sweep.store_misses,
          &sweep.explicit_checks, &sweep.sat_checks, &sweep.unique_analyses};
}
constexpr std::size_t kSinkHeader = 5 + 9;  // through the sweep counters

}  // namespace

DistinguishMatrix::DistinguishMatrix(int num_models)
    : bits_(num_models, num_models) {}

DistinguishMatrix::DistinguishMatrix(const engine::BitMatrix& verdicts)
    : DistinguishMatrix(verdicts.rows()) {
  for (int a = 0; a < num_models(); ++a) {
    for (int b = a + 1; b < num_models(); ++b) {
      if (!verdicts.rows_equal(a, b)) {
        bits_.set(a, b, true);
        bits_.set(b, a, true);
      }
    }
  }
}

bool DistinguishMatrix::distinguished(int a, int b) const {
  MCMC_REQUIRE(a >= 0 && a < num_models() && b >= 0 && b < num_models());
  return bits_.get(a, b);
}

long long DistinguishMatrix::distinguished_pairs() const {
  long long count = 0;
  for (int a = 0; a < num_models(); ++a) {
    for (int b = a + 1; b < num_models(); ++b) {
      if (bits_.get(a, b)) ++count;
    }
  }
  return count;
}

void DistinguishMatrix::fold_column(const std::uint64_t* column) {
  const int n = num_models();
  for (int a = 0; a < n; ++a) {
    const bool va = (column[static_cast<std::size_t>(a) / 64] >>
                     (static_cast<std::size_t>(a) % 64)) &
                    1ULL;
    for (int b = a + 1; b < n; ++b) {
      const bool vb = (column[static_cast<std::size_t>(b) / 64] >>
                       (static_cast<std::size_t>(b) % 64)) &
                      1ULL;
      if (va != vb) {
        bits_.set(a, b, true);
        bits_.set(b, a, true);
      }
    }
  }
}

bool DistinguishMatrix::subset_of(const DistinguishMatrix& other) const {
  MCMC_REQUIRE(num_models() == other.num_models());
  for (int a = 0; a < num_models(); ++a) {
    const std::uint64_t* mine = bits_.row(a);
    const std::uint64_t* theirs = other.bits_.row(a);
    for (std::size_t w = 0; w < bits_.words_per_row(); ++w) {
      if ((mine[w] & ~theirs[w]) != 0) return false;
    }
  }
  return true;
}

std::vector<std::pair<int, int>> DistinguishMatrix::pairs_beyond(
    const DistinguishMatrix& other) const {
  MCMC_REQUIRE(num_models() == other.num_models());
  std::vector<std::pair<int, int>> out;
  for (int a = 0; a < num_models(); ++a) {
    for (int b = a + 1; b < num_models(); ++b) {
      if (bits_.get(a, b) && !other.bits_.get(a, b)) out.emplace_back(a, b);
    }
  }
  return out;
}

namespace {

/// Folds every test's verdict column, a row of a tests x models
/// verdict matrix, deduplicating identical columns across the whole run
/// (only distinct columns pay the quadratic pair sweep).  The distinct
/// ones lie back to back in one flat array, found through an
/// open-addressed table of their indices.
class ColumnFolder {
 public:
  ColumnFolder(DistinguishMatrix& matrix, std::size_t& columns_counter)
      : matrix_(matrix),
        words_(words_for(matrix.num_models())),
        columns_counter_(columns_counter) {}

  void fold(const engine::BitMatrix& verdicts) {
    MCMC_REQUIRE(verdicts.cols() == matrix_.num_models());
    for (int t = 0; t < verdicts.rows(); ++t) insert(verdicts.row(t));
  }

  /// Appends [count, column words...] in the columns' lexicographic
  /// word order, so equal fold states export identical words (the
  /// checkpoint file stays bit-for-bit deterministic).
  void export_state(std::vector<std::uint64_t>& out) const {
    std::vector<std::size_t> order(count_);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return std::lexicographical_compare(column(a), column(a) + words_,
                                          column(b), column(b) + words_);
    });
    out.push_back(count_);
    for (const std::size_t c : order) {
      out.insert(out.end(), column(c), column(c) + words_);
    }
  }

  /// Re-adopts an export_state image starting at data[pos].  The
  /// matrix is a pure function of the folded-column set, so refolding
  /// the columns reconstructs it exactly; no separate matrix
  /// serialization exists to drift out of sync.
  [[nodiscard]] bool restore_state(const std::vector<std::uint64_t>& data,
                                   std::size_t& pos) {
    const std::size_t w = words_;
    if (w == 0 || pos >= data.size()) return false;
    const std::uint64_t count = data[pos];
    if (count > (data.size() - pos - 1) / w) return false;
    ++pos;
    for (std::uint64_t c = 0; c < count; ++c) {
      insert(&data[pos]);
      pos += w;
    }
    return true;
  }

 private:
  static constexpr std::size_t kFree = ~std::size_t{0};

  [[nodiscard]] const std::uint64_t* column(std::size_t c) const {
    return columns_.data() + c * words_;
  }

  /// The slot of the folded column equal to `words`, or the free slot
  /// where it goes.
  [[nodiscard]] std::size_t find(const std::uint64_t* words) const {
    std::uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (std::size_t w = 0; w < words_; ++w) h = util::mix64(h ^ words[w]);
    const std::size_t mask = slots_.size() - 1;
    std::size_t at = static_cast<std::size_t>(h) & mask;
    while (slots_[at] != kFree &&
           !std::equal(words, words + words_, column(slots_[at]))) {
      at = (at + 1) & mask;
    }
    return at;
  }

  /// Folds `words` (words_ of them, outside columns_) unless an equal
  /// column was folded before.
  void insert(const std::uint64_t* words) {
    if (2 * (count_ + 1) > slots_.size()) {  // grow, and re-slot them all
      slots_.assign(slots_.empty() ? 64 : 2 * slots_.size(), kFree);
      for (std::size_t c = 0; c < count_; ++c) slots_[find(column(c))] = c;
    }
    const std::size_t at = find(words);
    if (slots_[at] != kFree) return;
    slots_[at] = count_++;
    columns_.insert(columns_.end(), words, words + words_);
    matrix_.fold_column(words);
    ++columns_counter_;
  }

  DistinguishMatrix& matrix_;
  std::size_t words_;
  std::size_t& columns_counter_;
  std::vector<std::uint64_t> columns_;  ///< distinct columns, in fold order
  std::size_t count_ = 0;               ///< distinct columns
  std::vector<std::size_t> slots_;      ///< column indices, or kFree
};

}  // namespace

std::vector<core::MemoryModel> extreme_models() {
  return {core::MemoryModel("weakest-class", core::f_false()),
          core::MemoryModel("strongest-class", core::f_true())};
}

store::StoreMeta harness_store_meta(
    const std::vector<core::MemoryModel>& models) {
  std::vector<core::MemoryModel> all = extreme_models();
  all.insert(all.end(), models.begin(), models.end());
  return store::StoreMeta::from_models(all);
}

DistinguishMatrix distinguishability(
    engine::VerdictEngine& eng, const std::vector<core::MemoryModel>& models,
    const std::vector<litmus::LitmusTest>& tests) {
  return DistinguishMatrix(eng.run_matrix(models, tests));
}

DistinguishMatrix distinguishability_streamed(
    engine::VerdictEngine& eng, const std::vector<core::MemoryModel>& models,
    engine::TestSource& source, const TheoremHarnessOptions& options,
    TheoremHarnessReport* report, const ChunkProgress& progress) {
  const int n = static_cast<int>(models.size());
  DistinguishMatrix matrix(n);
  TheoremHarnessReport local;
  TheoremHarnessReport& rep = report != nullptr ? *report : local;
  rep = TheoremHarnessReport{};
  ColumnFolder folder(matrix, rep.verdict_columns);

  // Checkpoint sink: the harness state a resumed run re-adopts is the
  // distinct-column fold (the matrix is a pure function of it) plus the
  // prefilter and sweep counters.  Layout: [version, n, candidate_tests,
  // filtered_tests, sweep_seconds bits, 9 sweep counters, count,
  // columns...].  The hooks
  // are installed over the caller's persistence copy — sink state is
  // the harness's, not the caller's, to carry.
  store::StreamPersistence persist;
  const bool persisted =
      options.persistence != nullptr && options.verdict_store != nullptr;
  if (persisted) {
    persist = *options.persistence;
    persist.save_sink = [&rep, &folder, n](std::vector<std::uint64_t>& out) {
      out.clear();
      out.push_back(kSinkVersion);
      out.push_back(static_cast<std::uint64_t>(n));
      out.push_back(rep.candidate_tests);
      out.push_back(rep.filtered_tests);
      std::uint64_t seconds_bits = 0;
      std::memcpy(&seconds_bits, &rep.sweep_seconds, sizeof seconds_bits);
      out.push_back(seconds_bits);
      for (const std::size_t* counter : sweep_counters(rep.sweep)) {
        out.push_back(*counter);
      }
      folder.export_state(out);
    };
    persist.restore_sink =
        [&rep, &folder, n](const std::vector<std::uint64_t>& data) {
          // Validate the full payload shape before mutating anything,
          // so a rejected sink leaves the harness in its fresh state.
          const std::size_t w = words_for(n);
          if (data.size() < kSinkHeader + 1 || data[0] != kSinkVersion ||
              data[1] != static_cast<std::uint64_t>(n) || w == 0) {
            return false;
          }
          const std::uint64_t count = data[kSinkHeader];
          if (count > (data.size() - kSinkHeader - 1) / w ||
              data.size() - kSinkHeader - 1 !=
                  static_cast<std::size_t>(count) * w) {
            return false;
          }
          std::size_t pos = kSinkHeader;
          if (!folder.restore_state(data, pos)) return false;
          rep.candidate_tests = static_cast<std::size_t>(data[2]);
          rep.filtered_tests = static_cast<std::size_t>(data[3]);
          std::uint64_t seconds_bits = data[4];
          std::memcpy(&rep.sweep_seconds, &seconds_bits,
                      sizeof seconds_bits);
          std::size_t word = 5;
          for (std::size_t* counter : sweep_counters(rep.sweep)) {
            *counter = static_cast<std::size_t>(data[word++]);
          }
          return true;
        };
  }

  // Structural dedup keys if any of `models` carries custom predicates:
  // the prefiltered stream sees only the (custom-free) extremes, but
  // its survivors are swept with `models`.
  engine::StreamOptions stream_options;
  for (const auto& model : models) {
    stream_options.force_structural_keys =
        stream_options.force_structural_keys || model.formula().has_custom();
  }
  stream_options.verdict_store = options.verdict_store;
  if (persisted) stream_options.persistence = &persist;

  if (!options.filter_extremes) {
    rep.stream = eng.run_stream(
        models, source,
        [&](const std::vector<litmus::LitmusTest>& novel,
            const std::vector<util::Key128>& /*novel_keys*/,
            const engine::BitMatrix& verdicts,
            const engine::StreamChunkStats& cs) {
          if (!novel.empty()) folder.fold(verdicts);
          if (progress) progress(cs);
        },
        stream_options);
    rep.candidate_tests = rep.stream.novel_tests;
    return matrix;
  }

  // Extremes prefilter: the stream itself is evaluated only against the
  // class extremes; the full model sweep runs on the (few) tests that
  // are allowed by F = false yet forbidden by F = true — any other test
  // receives one uniform verdict across the whole class (monotonicity)
  // and cannot distinguish a pair.
  const std::vector<core::MemoryModel> extremes = extreme_models();

  // The sweep runs in the sink on the caller's engine, whose pool is
  // idle between the stream's stages; the stream has already copied the
  // chunk's stats, so the two stay apart.  It takes the engine's
  // row-level store path: one store row per candidate class, one direct
  // batch for the cells the store lacks, one write-back.  Its verdicts
  // are folded immediately, so nothing is cached in memory (a
  // million-test stream must not pin |models| x |tests| entries); the
  // store is what a warm rerun serves from.
  const engine::RowModels sweep_rows(models, options.verdict_store);
  // Under canonical stream keys the candidates are canonically unique
  // and the stream's keys are their store rows.  Under structural keys
  // the sweep keys the candidates by canonical fingerprint (run_rows
  // computes them when handed no keys), and candidates sharing one
  // share a row.
  const bool stream_keys_are_rows = !stream_options.force_structural_keys;

  std::vector<litmus::LitmusTest> candidates;
  std::vector<util::Key128> candidate_keys;
  rep.stream = eng.run_stream(
      extremes, source,
      [&](const std::vector<litmus::LitmusTest>& novel,
          const std::vector<util::Key128>& novel_keys,
          const engine::BitMatrix& verdicts,
          const engine::StreamChunkStats& cs) {
        candidates.clear();
        candidate_keys.clear();
        for (std::size_t i = 0; i < novel.size(); ++i) {
          const std::uint64_t allows = verdicts.row(static_cast<int>(i))[0];
          const bool weak_allows = (allows & 1) != 0;
          const bool strong_allows = (allows & 2) != 0;
          if (weak_allows && !strong_allows) {
            candidates.push_back(novel[i]);
            if (stream_keys_are_rows) candidate_keys.push_back(novel_keys[i]);
          } else {
            ++rep.filtered_tests;
          }
        }
        rep.candidate_tests += candidates.size();
        if (!candidates.empty()) {
          util::Timer sweep_timer;
          folder.fold(eng.run_rows(sweep_rows, candidates, candidate_keys));
          rep.sweep += eng.last_stats();
          rep.sweep_seconds += sweep_timer.seconds();
        }
        if (progress) progress(cs);
      },
      stream_options);
  return matrix;
}

}  // namespace mcmc::explore
