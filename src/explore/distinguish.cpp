#include "explore/distinguish.h"

#include <algorithm>
#include <cstring>
#include <set>

#include "core/formula.h"
#include "util/check.h"
#include "util/timer.h"

namespace mcmc::explore {

namespace {

std::size_t words_for(int num_models) {
  return (static_cast<std::size_t>(num_models) + 63) / 64;
}

/// Version word of the harness checkpoint-sink payload.  Version 3
/// dropped the caller-owned extra section that version 2 appended;
/// payloads of any other version are rejected, degrading a stale resume
/// to a from-scratch run.
constexpr std::uint64_t kSinkVersion = 3;

}  // namespace

DistinguishMatrix::DistinguishMatrix(int num_models)
    : bits_(num_models, num_models) {}

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

long long DistinguishMatrix::total_pairs() const {
  const long long n = num_models();
  return n * (n - 1) / 2;
}

void DistinguishMatrix::fold_column(const std::vector<std::uint64_t>& column) {
  const int n = num_models();
  MCMC_REQUIRE(column.size() == words_for(n));
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

/// Folds every test column of a models x tests verdict matrix,
/// deduplicating identical columns across the whole run (only distinct
/// columns pay the quadratic pair sweep).
class ColumnFolder {
 public:
  ColumnFolder(DistinguishMatrix& matrix, int num_models,
               std::size_t& columns_counter)
      : matrix_(matrix),
        num_models_(num_models),
        columns_counter_(columns_counter) {}

  void fold(const engine::BitMatrix& verdicts) {
    MCMC_REQUIRE(verdicts.rows() == num_models_);
    std::vector<std::uint64_t> column(words_for(num_models_));
    for (int t = 0; t < verdicts.cols(); ++t) {
      std::fill(column.begin(), column.end(), 0);
      for (int m = 0; m < num_models_; ++m) {
        if (verdicts.get(m, t)) {
          column[static_cast<std::size_t>(m) / 64] |=
              1ULL << (static_cast<std::size_t>(m) % 64);
        }
      }
      if (seen_.insert(column).second) {
        matrix_.fold_column(column);
        ++columns_counter_;
      }
    }
  }

  /// Appends [count, column words...] — std::set iterates in column
  /// order, so equal fold states export identical words (the
  /// checkpoint file stays bit-for-bit deterministic).
  void export_state(std::vector<std::uint64_t>& out) const {
    out.push_back(seen_.size());
    for (const auto& column : seen_)
      out.insert(out.end(), column.begin(), column.end());
  }

  /// Re-adopts an export_state image starting at data[pos].  The
  /// matrix is a pure function of the folded-column set, so refolding
  /// the columns reconstructs it exactly; no separate matrix
  /// serialization exists to drift out of sync.
  [[nodiscard]] bool restore_state(const std::vector<std::uint64_t>& data,
                                   std::size_t& pos) {
    const std::size_t w = words_for(num_models_);
    if (w == 0 || pos >= data.size()) return false;
    const std::uint64_t count = data[pos];
    if (count > (data.size() - pos - 1) / w) return false;
    ++pos;
    std::vector<std::uint64_t> column(w);
    for (std::uint64_t c = 0; c < count; ++c) {
      std::copy(data.begin() + static_cast<std::ptrdiff_t>(pos),
                data.begin() + static_cast<std::ptrdiff_t>(pos + w),
                column.begin());
      pos += w;
      if (seen_.insert(column).second) {
        matrix_.fold_column(column);
        ++columns_counter_;
      }
    }
    return true;
  }

 private:
  DistinguishMatrix& matrix_;
  int num_models_;
  std::size_t& columns_counter_;
  std::set<std::vector<std::uint64_t>> seen_;
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
  const int n = static_cast<int>(models.size());
  DistinguishMatrix matrix(n);
  std::size_t columns = 0;
  ColumnFolder folder(matrix, n, columns);
  folder.fold(eng.run_matrix(models, tests));
  return matrix;
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
  ColumnFolder folder(matrix, n, rep.verdict_columns);

  // Checkpoint sink: the harness state a resumed run re-adopts is the
  // distinct-column fold (the matrix is a pure function of it) plus the
  // prefilter counters.  Layout: [version, n, candidate_tests,
  // filtered_tests, sweep_seconds bits, count, columns...].  The hooks
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
      folder.export_state(out);
    };
    persist.restore_sink =
        [&rep, &folder, n](const std::vector<std::uint64_t>& data) {
          // Validate the full payload shape before mutating anything,
          // so a rejected sink leaves the harness in its fresh state.
          const std::size_t w = words_for(n);
          if (data.size() < 6 || data[0] != kSinkVersion ||
              data[1] != static_cast<std::uint64_t>(n) || w == 0) {
            return false;
          }
          const std::uint64_t count = data[5];
          if (count > (data.size() - 6) / w ||
              data.size() - 6 != static_cast<std::size_t>(count) * w) {
            return false;
          }
          std::size_t pos = 5;
          if (!folder.restore_state(data, pos)) return false;
          rep.candidate_tests = static_cast<std::size_t>(data[2]);
          rep.filtered_tests = static_cast<std::size_t>(data[3]);
          std::uint64_t seconds_bits = data[4];
          std::memcpy(&rep.sweep_seconds, &seconds_bits,
                      sizeof seconds_bits);
          return true;
        };
  }

  if (!options.filter_extremes) {
    engine::StreamOptions stream_options = options.stream;
    stream_options.verdict_store = options.verdict_store;
    if (persisted) stream_options.persistence = &persist;
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

  // The stream only sees the (custom-free) extremes, but its survivors
  // are swept with the caller's models: if any of those carries custom
  // predicates, canonical dedup of the stream would be unsound for the
  // sweep, so force structural keys.
  engine::StreamOptions stream_options = options.stream;
  for (const auto& model : models) {
    stream_options.force_structural_keys =
        stream_options.force_structural_keys || model.formula().has_custom();
  }
  stream_options.verdict_store = options.verdict_store;
  if (persisted) stream_options.persistence = &persist;

  // The sweep takes the engine's row-level store path: one store row
  // per candidate class, one direct batch for the cells the store
  // lacks, one write-back.  Its verdicts are folded immediately, so
  // nothing is cached in memory (a million-test stream must not pin
  // |models| x |tests| entries); the store is what a warm rerun serves
  // from.  A separate engine keeps the sweep's statistics apart.
  engine::VerdictEngine sweep(eng.options());
  const engine::RowModels sweep_rows(models, options.verdict_store);
  // Under canonical stream keys the candidates are canonically unique
  // and the stream's keys are their store rows.  Structural keys are
  // sound rows only without a store; with one, the sweep keys the
  // candidates by canonical fingerprint (run_rows computes them when
  // handed no keys), and candidates sharing one share a row.
  const bool stream_keys_are_rows = !stream_options.force_structural_keys ||
                                    options.verdict_store == nullptr;

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
          const bool weak_allows = verdicts.get(0, static_cast<int>(i));
          const bool strong_allows = verdicts.get(1, static_cast<int>(i));
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
          folder.fold(sweep.run_rows(sweep_rows, candidates, candidate_keys));
          rep.sweep_seconds += sweep_timer.seconds();
        }
        if (progress) progress(cs);
      },
      stream_options);
  rep.sweep = sweep.total_stats();
  return matrix;
}

}  // namespace mcmc::explore
