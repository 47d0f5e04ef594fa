#include "engine/verdict_engine.h"

#include <algorithm>
#include <exception>
#include <optional>
#include <sstream>
#include <thread>
#include <utility>

#include "core/analysis.h"
#include "core/formula.h"
#include "engine/key_set.h"
#include "store/verdict_store.h"
#include "util/check.h"
#include "util/hash128.h"
#include "util/mutex.h"
#include "util/timer.h"

namespace mcmc::engine {

namespace {

/// Model words per test: bit m % 64 of word m / 64 stands for model m.
std::size_t model_words(std::size_t models) { return (models + 63) / 64; }

/// The bit of index `i` within its word.
std::uint64_t bit_of(std::size_t i) { return 1ULL << (i % 64); }

/// Calls `fn` with the index of every bit set in the `words` words at
/// `row`, in ascending order.
template <typename Fn>
void for_each_bit(const std::uint64_t* row, std::size_t words, const Fn& fn) {
  for (std::size_t w = 0; w < words; ++w) {
    for (std::uint64_t bits = row[w]; bits != 0; bits &= bits - 1) {
      fn(w * 64 + static_cast<std::size_t>(__builtin_ctzll(bits)));
    }
  }
}

std::size_t count_bits(const std::uint64_t* row, std::size_t words) {
  std::size_t n = 0;
  for (std::size_t w = 0; w < words; ++w) {
    n += static_cast<std::size_t>(__builtin_popcountll(row[w]));
  }
  return n;
}

/// Groups `keys` into rows in order of first occurrence: row_of[i] is
/// the row of keys[i], first[r] the index of row r's first key.
void group_rows(const std::vector<util::Key128>& keys, std::vector<int>& row_of,
                std::vector<int>& first) {
  constexpr int kFree = -1;
  std::size_t size = 16;
  while (size < 2 * keys.size()) size *= 2;
  const std::size_t mask = size - 1;
  std::vector<int> slots(size, kFree);  // row ids, open-addressed by key
  row_of.resize(keys.size());
  first.clear();
  for (std::size_t i = 0; i < keys.size(); ++i) {
    std::size_t at = static_cast<std::size_t>(keys[i].hi) & mask;
    while (slots[at] != kFree &&
           keys[static_cast<std::size_t>(
               first[static_cast<std::size_t>(slots[at])])] != keys[i]) {
      at = (at + 1) & mask;
    }
    if (slots[at] == kFree) {
      slots[at] = static_cast<int>(first.size());
      first.push_back(static_cast<int>(i));
    }
    row_of[i] = slots[at];
  }
}

/// One program's models grouped by reorder mask, each class with its
/// models as model words: models with equal masks share one search per
/// test.  Reused across programs: its buffers keep their size.
class MaskClasses {
 public:
  /// Compiles every model of `set` against `analysis` and groups them,
  /// `words` model words per class.
  void compile(const core::FormulaSet& set, const core::Analysis& analysis,
               std::size_t words) {
    set.compile(analysis, masks_, scratch_);
    const auto n = static_cast<std::size_t>(analysis.num_events());
    words_ = words;
    reps_.clear();
    models_.clear();
    for (std::size_t m = 0; m < masks_.size(); ++m) {
      const auto& rows = masks_[m].rows;
      std::size_t c = 0;
      while (c < reps_.size() &&
             !std::equal(rows.begin(), rows.begin() + n,
                         masks_[reps_[c]].rows.begin())) {
        ++c;
      }
      if (c == reps_.size()) {
        reps_.push_back(m);
        models_.resize(models_.size() + words, 0);
      }
      models_[c * words + m / 64] |= bit_of(m);
    }
  }

  /// Decides `test` for the models set in `want`: one search per class
  /// that shares a model with it, and an allowed outcome ORs those
  /// shared models into `verdicts`.  Returns the searches run.
  std::size_t decide(const core::PreparedTest& test, const std::uint64_t* want,
                     std::uint64_t* verdicts) const {
    std::size_t searches = 0;
    for (std::size_t c = 0; c < reps_.size(); ++c) {
      const std::uint64_t* models = &models_[c * words_];
      std::uint64_t shared = 0;
      for (std::size_t w = 0; w < words_; ++w) shared |= models[w] & want[w];
      if (shared == 0) continue;
      ++searches;
      if (!test.allowed(masks_[reps_[c]])) continue;
      for (std::size_t w = 0; w < words_; ++w) {
        verdicts[w] |= models[w] & want[w];
      }
    }
    return searches;
  }

 private:
  std::vector<core::ReorderMask> masks_;  ///< per model of the set
  std::vector<std::uint64_t> scratch_;    ///< FormulaSet node rows
  std::size_t words_ = 0;                 ///< model words per class
  std::vector<std::size_t> reps_;         ///< class -> its first model
  std::vector<std::uint64_t> models_;     ///< class -> its model words
};

/// One evaluation thread's verdict state, refilled for every program run
/// (the Analysis and the mask classes) and every test (the prepared
/// test): once its buffers have grown to the largest program and test
/// seen, deciding a test allocates nothing.
struct Workspace {
  core::Analysis analysis;
  core::PreparedTest prepared;
  MaskClasses classes;
  bool entered = false;
};

/// A workspace entered for one program run.  Leaving it, by an
/// exception too, drops the run's program: a workspace holds no program
/// pointer past its run, whose tests may then die.
class WorkspaceRun {
 public:
  explicit WorkspaceRun(Workspace& ws) : ws_(ws) { ws_.entered = true; }
  ~WorkspaceRun() {
    ws_.analysis.clear();
    ws_.entered = false;
  }
  WorkspaceRun(const WorkspaceRun&) = delete;
  WorkspaceRun& operator=(const WorkspaceRun&) = delete;

 private:
  Workspace& ws_;
};

std::vector<core::Formula> formulas_of(
    const std::vector<core::MemoryModel>& models) {
  std::vector<core::Formula> formulas;
  formulas.reserve(models.size());
  for (const auto& model : models) formulas.push_back(model.formula());
  return formulas;
}

}  // namespace

EngineStats& EngineStats::operator+=(const EngineStats& other) {
  cells += other.cells;
  checks_run += other.checks_run;
  searches += other.searches;
  dedup_hits += other.dedup_hits;
  store_hits += other.store_hits;
  store_misses += other.store_misses;
  explicit_checks += other.explicit_checks;
  sat_checks += other.sat_checks;
  unique_analyses += other.unique_analyses;
  if (other.threads_used > threads_used) threads_used = other.threads_used;
  wall_seconds += other.wall_seconds;
  eval_seconds += other.eval_seconds;
  return *this;
}

std::string EngineStats::to_string() const {
  std::ostringstream os;
  os << "cells=" << cells << " checks=" << checks_run
     << " searches=" << searches << " dedup_hits=" << dedup_hits;
  if (store_hits + store_misses > 0) {
    os << " store_hits=" << store_hits << "/" << (store_hits + store_misses);
  }
  os << " backends=explicit:" << explicit_checks << "/sat:" << sat_checks
     << " analyses=" << unique_analyses << " threads=" << threads_used
     << " wall=" << wall_seconds << "s eval=" << eval_seconds << "s";
  return os.str();
}

RowModels::RowModels(const std::vector<core::MemoryModel>& models,
                     store::VerdictStore* vstore)
    : models_(models),
      vstore_(vstore),
      set_(formulas_of(models)),
      words_(model_words(models.size())) {
  free_.assign(words_, 0);
  custom_.assign(words_, 0);
  stored_.assign(words_, 0);
  col_.assign(models.size(), -1);
  if (vstore != nullptr) columns_.assign(vstore->words_per_row(), 0);
  for (std::size_t m = 0; m < models.size(); ++m) {
    const bool custom = models[m].formula().has_custom();
    (custom ? custom_ : free_)[m / 64] |= bit_of(m);
    if (vstore == nullptr || custom) continue;
    col_[m] = vstore->column_of(store::model_store_key(models[m]));
    if (col_[m] >= 0) {
      const auto col = static_cast<std::size_t>(col_[m]);
      columns_[col / 64] |= bit_of(col);
      stored_[m / 64] |= bit_of(m);
    }
  }
}

std::size_t RowModels::from_store(const std::uint64_t* valid,
                                  const std::uint64_t* bits,
                                  std::uint64_t* served,
                                  std::uint64_t* allowed) const {
  // A row holding none of the columns serves none; one holding all of
  // them serves every model with a column.
  bool none = true;
  bool every = true;
  for (std::size_t w = 0; w < columns_.size(); ++w) {
    const std::uint64_t held = valid[w] & columns_[w];
    none = none && held == 0;
    every = every && held == columns_[w];
  }
  if (none) return 0;
  if (every) {
    for (std::size_t w = 0; w < words_; ++w) served[w] |= stored_[w];
  }
  std::size_t hits = 0;
  for (std::size_t m = 0; m < col_.size(); ++m) {
    if (col_[m] < 0) continue;
    const auto col = static_cast<std::size_t>(col_[m]);
    if (!every) {
      if ((valid[col / 64] & bit_of(col)) == 0) continue;
      served[m / 64] |= bit_of(m);
    }
    ++hits;
    if ((bits[col / 64] & bit_of(col)) != 0) allowed[m / 64] |= bit_of(m);
  }
  return hits;
}

bool RowModels::to_store(const std::uint64_t* evaluated,
                         const std::uint64_t* verdicts, std::uint64_t* mask,
                         std::uint64_t* bits) const {
  bool added = false;
  for_each_bit(evaluated, words_, [&](std::size_t m) {
    if (col_[m] < 0) return;
    const auto col = static_cast<std::size_t>(col_[m]);
    mask[col / 64] |= bit_of(col);
    if ((verdicts[m / 64] & bit_of(m)) != 0) bits[col / 64] |= bit_of(col);
    added = true;
  });
  return added;
}

VerdictEngine::VerdictEngine(EngineOptions options) : options_(options) {
  MCMC_REQUIRE(options_.num_threads >= 0);
}

VerdictEngine::~VerdictEngine() = default;

int VerdictEngine::effective_threads() const {
  if (options_.num_threads > 0) return options_.num_threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

ThreadPool& VerdictEngine::pool() {
  if (pool_ == nullptr) {
    pool_ = std::make_unique<ThreadPool>(effective_threads());
  }
  return *pool_;
}

void VerdictEngine::record(const EngineStats& stats) {
  last_stats_ = stats;
  total_stats_ += stats;
}

std::vector<std::uint64_t> VerdictEngine::evaluate(
    const RowModels& rows, const std::vector<litmus::LitmusTest>& tests,
    const std::vector<std::uint64_t>& want, EngineStats& stats) {
  // ---- Only tests with a nonzero want row are analyzed and prepared.
  // Consecutive such tests that share one program object form a program
  // run (the stream emits a program's outcomes back to back, and copies
  // of a test share its program), and each run is one pool task:
  // analyze the program, compile the models into masks and group the
  // equal ones, then prepare its tests one at a time and run one search
  // per mask class that shares a model with the test's want row.  All of
  // that is refilled in the running thread's workspace.  Grouping only
  // shares work: a test sharing nothing is a run of its own. ----
  const auto& models = rows.models_;
  const std::size_t words = rows.words_;
  std::vector<std::size_t> eval_tests;
  for (std::size_t t = 0; t < tests.size(); ++t) {
    if (count_bits(want.data() + t * words, words) > 0) {
      eval_tests.push_back(t);
    }
  }
  // Run r covers eval_tests[run_begin[r] .. run_begin[r + 1]).
  std::vector<std::size_t> run_begin;
  const core::Program* run_program = nullptr;
  for (std::size_t i = 0; i < eval_tests.size(); ++i) {
    const auto& program = tests[eval_tests[i]].program();
    if (&program != run_program) run_begin.push_back(i);
    run_program = &program;
  }
  const std::size_t num_runs = run_begin.size();
  run_begin.push_back(eval_tests.size());

  // Each task writes only its own tests' verdict words, and its counters
  // once at its end: neighbouring runs execute at the same moment, so
  // per-search increments into adjacent entries would share cache lines.
  std::vector<std::uint64_t> verdicts(want.size(), 0);
  struct RunCounts {
    std::size_t searches = 0;
    std::size_t explicit_checks = 0;
    std::size_t sat_checks = 0;
  };
  std::vector<RunCounts> run_counts(num_runs);
  const auto run_task = [&](std::size_t r) {
    // The thread's own workspace.  A batch nested in this run on the
    // same thread (a custom predicate may run one) takes a fresh one
    // instead of entering it twice.
    thread_local Workspace mine;
    std::optional<Workspace> nested;
    Workspace& ws = mine.entered ? nested.emplace() : mine;
    const WorkspaceRun entered(ws);
    ws.analysis.reset(tests[eval_tests[run_begin[r]]].program());
    // Up to 64 events the explicit search decides each mask class;
    // beyond that there are no masks, and each wanted model is
    // evaluated per event pair and decided by the SAT engine.
    const bool by_mask = ws.analysis.masks_valid();
    if (by_mask) ws.classes.compile(rows.set_, ws.analysis, words);
    RunCounts counts;
    std::size_t& path_checks =
        by_mask ? counts.explicit_checks : counts.sat_checks;
    for (std::size_t i = run_begin[r]; i < run_begin[r + 1]; ++i) {
      const std::size_t t = eval_tests[i];
      const std::uint64_t* asked = &want[t * words];
      std::uint64_t* out = &verdicts[t * words];
      ws.prepared.prepare(ws.analysis, tests[t].outcome());
      if (by_mask) {
        counts.searches += ws.classes.decide(ws.prepared, asked, out);
      } else {
        for_each_bit(asked, words, [&](std::size_t m) {
          if (ws.prepared.allowed(models[m])) out[m / 64] |= bit_of(m);
          ++counts.searches;
        });
      }
      path_checks += count_bits(asked, words);
    }
    run_counts[r] = counts;
  };
  const int threads = effective_threads();
  util::Timer eval_timer;
  if (threads > 1 && num_runs > 1) {
    pool().parallel_for(num_runs, run_task);
    stats.threads_used = threads;
  } else {
    for (std::size_t r = 0; r < num_runs; ++r) run_task(r);
    stats.threads_used = 1;
  }
  stats.eval_seconds += eval_timer.seconds();
  stats.unique_analyses += num_runs;
  for (const RunCounts& counts : run_counts) {
    stats.checks_run += counts.explicit_checks + counts.sat_checks;
    stats.searches += counts.searches;
    stats.explicit_checks += counts.explicit_checks;
    stats.sat_checks += counts.sat_checks;
  }
  return verdicts;
}

BitMatrix VerdictEngine::run_matrix(
    const std::vector<core::MemoryModel>& models,
    const std::vector<litmus::LitmusTest>& tests) {
  BitMatrix by_test;
  if (options_.cache_enabled || store_ != nullptr) {
    by_test = run_rows(RowModels(models, store_), tests, {});
  } else {
    // The reference setting: every test asks the direct batch for every
    // model.
    util::Timer timer;
    EngineStats stats;
    stats.cells = models.size() * tests.size();
    const RowModels all(models, nullptr);
    std::vector<std::uint64_t> want(tests.size() * all.words_);
    for (std::size_t t = 0; t < tests.size(); ++t) {
      for (std::size_t w = 0; w < all.words_; ++w) {
        want[t * all.words_ + w] = all.free_[w] | all.custom_[w];
      }
    }
    by_test = BitMatrix(static_cast<int>(tests.size()),
                        static_cast<int>(models.size()),
                        evaluate(all, tests, want, stats));
    stats.wall_seconds = timer.seconds();
    record(stats);
  }
  return by_test.transposed();
}

BitMatrix VerdictEngine::run_rows(const RowModels& rows,
                                  const std::vector<litmus::LitmusTest>& tests,
                                  const std::vector<util::Key128>& keys) {
  util::Timer timer;
  const std::size_t num_models = rows.models_.size();
  const std::size_t num_tests = tests.size();
  const std::size_t words = rows.words_;
  MCMC_REQUIRE_MSG(keys.empty() || keys.size() == tests.size(),
                   "run_rows needs one key per test");
  EngineStats stats;
  stats.cells = num_models * num_tests;
  if (stats.cells == 0) {
    record(stats);
    return BitMatrix(static_cast<int>(num_tests), static_cast<int>(num_models));
  }

  // ---- Rows: tests with equal keys share one. ----
  std::vector<util::Key128> computed;
  if (keys.empty()) {
    computed.resize(tests.size());
    parallel_ranges(pool(), tests.size(), [&](std::size_t begin,
                                              std::size_t end) {
      litmus::KeyScratch scratch;
      for (std::size_t t = begin; t < end; ++t) {
        computed[t] = litmus::canonical_fingerprint(tests[t], scratch);
      }
    });
  }
  const std::vector<util::Key128>& test_keys = keys.empty() ? computed : keys;
  std::vector<int> row_of;  // test -> row
  std::vector<int> first;   // row -> its first test
  group_rows(test_keys, row_of, first);
  std::vector<std::size_t> row_size(first.size(), 0);
  for (const int row : row_of) ++row_size[static_cast<std::size_t>(row)];
  const auto row_key = [&](std::size_t row) {
    return test_keys[static_cast<std::size_t>(first[row])];
  };

  // ---- One probe per row, under one shared hold, turned into model
  // words: the models whose column the row holds (served) and those it
  // holds as allowed.  Without a store every row serves nothing. ----
  store::VerdictStore* const vstore = rows.vstore_;
  const std::size_t store_words =
      vstore != nullptr ? vstore->words_per_row() : 0;
  std::vector<std::uint64_t> served(first.size() * words, 0);
  std::vector<std::uint64_t> allowed;
  if (vstore != nullptr) {
    allowed.assign(first.size() * words, 0);
    const std::size_t stored = count_bits(rows.stored_.data(), words);
    std::vector<std::uint64_t> valid(store_words);
    std::vector<std::uint64_t> bits(store_words);
    util::SharedLock lock(vstore->mu());
    for (std::size_t row = 0; row < first.size(); ++row) {
      vstore->probe_words_locked(row_key(row), rows.columns(), valid.data(),
                                 bits.data());
      const std::size_t hits =
          rows.from_store(valid.data(), bits.data(), &served[row * words],
                          &allowed[row * words]);
      stats.store_hits += hits;
      stats.store_misses += stored - hits;
    }
  }

  // ---- One want row per test: a row's first test asks for the
  // custom-free models its store row lacks, every test for the
  // custom-predicate models (their verdicts are neither shared nor
  // stored).  A row's other tests share its custom-free verdicts as
  // dedup hits, whether the store served them or they are
  // evaluated. ----
  const std::size_t num_free = count_bits(rows.free_.data(), words);
  std::vector<std::uint64_t> want(num_tests * words);
  for (std::size_t t = 0; t < num_tests; ++t) {
    const auto row = static_cast<std::size_t>(row_of[t]);
    std::uint64_t* asked = &want[t * words];
    if (static_cast<std::size_t>(first[row]) != t) {
      std::copy(rows.custom_.begin(), rows.custom_.end(), asked);
      continue;
    }
    stats.dedup_hits += (row_size[row] - 1) * num_free;
    for (std::size_t w = 0; w < words; ++w) {
      asked[w] = (rows.free_[w] & ~served[row * words + w]) | rows.custom_[w];
    }
  }

  std::vector<std::uint64_t> out = evaluate(rows, tests, want, stats);

  // ---- A row's first test takes the store-served verdicts, and its
  // evaluated ones go back to the store, under one exclusive hold, so
  // the next run (or the next process) serves them from disk.  Only a
  // call that gave a row a column takes that hold, and only such a row
  // is written, so store-served verdicts never dirty the store. ----
  if (vstore != nullptr) {
    std::vector<std::uint64_t> mask(first.size() * store_words, 0);
    std::vector<std::uint64_t> bits(first.size() * store_words, 0);
    bool added = false;
    for (std::size_t row = 0; row < first.size(); ++row) {
      const auto t = static_cast<std::size_t>(first[row]);
      for (std::size_t w = 0; w < words; ++w) {
        out[t * words + w] |= allowed[row * words + w];
      }
      added = rows.to_store(&want[t * words], &out[t * words],
                            &mask[row * store_words],
                            &bits[row * store_words]) ||
              added;
    }
    if (added) {
      util::ExclusiveLock lock(vstore->mu());
      for (std::size_t row = 0; row < first.size(); ++row) {
        // A row given no column has an empty mask: the store skips it.
        vstore->write_row_locked(row_key(row), &mask[row * store_words],
                                 &bits[row * store_words]);
      }
    }
  }

  // ---- A row's later tests take its first test's custom-free
  // verdicts. ----
  for (std::size_t t = 0; t < num_tests; ++t) {
    const auto from = static_cast<std::size_t>(
        first[static_cast<std::size_t>(row_of[t])]);
    if (from == t) continue;
    for (std::size_t w = 0; w < words; ++w) {
      out[t * words + w] |= out[from * words + w] & rows.free_[w];
    }
  }

  BitMatrix verdicts(static_cast<int>(num_tests), static_cast<int>(num_models),
                     std::move(out));
  stats.wall_seconds = timer.seconds();
  record(stats);
  return verdicts;
}

StreamStageTimes& StreamStageTimes::operator+=(const StreamStageTimes& other) {
  produce += other.produce;
  wait += other.wait;
  release += other.release;
  keys += other.keys;
  dedup += other.dedup;
  verdict += other.verdict;
  sink += other.sink;
  seal += other.seal;
  write += other.write;
  return *this;
}

std::string StreamStageTimes::to_string() const {
  std::ostringstream os;
  os << "produce=" << produce << "s wait=" << wait << "s release=" << release
     << "s keys=" << keys << "s dedup=" << dedup << "s verdict=" << verdict
     << "s sink=" << sink << "s seal=" << seal << "s write=" << write << "s";
  return os.str();
}

double StreamStats::dedup_rate() const {
  return tests_streamed == 0
             ? 0.0
             : static_cast<double>(duplicate_tests) /
                   static_cast<double>(tests_streamed);
}

double StreamStats::unattributed_seconds() const {
  return wall_seconds - stages.wait - stages.release - stages.keys -
         stages.dedup - stages.verdict - stages.sink - stages.seal;
}

std::string StreamStats::to_string() const {
  std::ostringstream os;
  os << "chunks=" << chunks << " streamed=" << tests_streamed
     << " novel=" << novel_tests << " duplicates=" << duplicate_tests
     << " repeats=" << repeat_tests
     << " (dedup " << static_cast<int>(100.0 * dedup_rate() + 0.5)
     << "%) wall=" << wall_seconds
     << "s unattributed=" << unattributed_seconds()
     << "s stages[" << stages.to_string() << "]";
  if (commits > 0) {
    os << " commits=" << commits << " (" << bytes_committed << " bytes)";
  }
  os << " [" << engine.to_string() << "]";
  return os.str();
}

namespace {

/// Canonical keys are only sound for models built from the built-in
/// predicates; one custom-predicate model (or a caller that re-uses the
/// novel tests against custom models) forces structural keys for the
/// whole stream filter.
bool structural_keys(const std::vector<core::MemoryModel>& models,
                     bool forced) {
  for (const auto& model : models) {
    forced = forced || model.formula().has_custom();
  }
  return forced;
}

/// The store the stream's row path probes: the caller's, only under
/// canonical dedup keys (the novel tests' keys are then store keys)
/// with a store column for every streamed model; null otherwise.
store::VerdictStore* stream_store(const std::vector<core::MemoryModel>& models,
                                  store::VerdictStore* vstore,
                                  bool structural) {
  if (vstore == nullptr || structural) return nullptr;
  for (const auto& model : models) {
    if (vstore->column_of(store::model_store_key(model)) < 0) return nullptr;
  }
  return vstore;
}

}  // namespace

/// One run_stream call: the per-run state, hoisted per-chunk buffers,
/// and the stage steps the run loop drives chunk by chunk.
struct VerdictEngine::StreamRun {
  StreamRun(VerdictEngine& engine, const std::vector<core::MemoryModel>& ms,
            TestSource& source, const StreamOptions& options)
      : eng(engine),
        structural(structural_keys(ms, options.force_structural_keys)),
        vstore(options.verdict_store),
        row_models(ms, stream_store(ms, options.verdict_store, structural)) {
    if (vstore != nullptr && options.persistence != nullptr &&
        !options.persistence->path.empty()) {
      persist = options.persistence;
    }
    // Canonical keys settle a repeat without its test, so the source may
    // elide (and certify its program runs); structural keys need every
    // test.  The opt-in precedes the restore and the first pull.
    certified = !structural && source.elide_repeats();
    if (!certified) seen.emplace();

    // Checkpoint/resume, for a certified stream only: the classes before
    // its cursor recur only in the live program's head.  Each restore
    // step validates before mutating, and the cursor goes first: if the
    // sink then refuses its state, the source is rewound to the start it
    // snapshotted, so a failed resume streams from scratch instead.
    bool resumed = false;
    if (certified && persist != nullptr && persist->resume) {
      // checkpoint() hands out a copy (the stored one lives under the
      // store's lock), so the restore steps below work on a stable
      // value.
      const std::optional<store::StreamCheckpoint> ck = vstore->checkpoint();
      std::vector<std::uint64_t> start;
      if (ck.has_value() && source.snapshot_cursor(start) &&
          source.restore_cursor(ck->source_cursor)) {
        if (!persist->restore_sink || persist->restore_sink(ck->sink_state)) {
          total.chunks = static_cast<std::size_t>(ck->chunks);
          total.tests_streamed = static_cast<std::size_t>(ck->tests_streamed);
          total.novel_tests = static_cast<std::size_t>(ck->novel_tests);
          total.duplicate_tests =
              static_cast<std::size_t>(ck->duplicate_tests);
          seed_run(source);
          resumed = true;
        } else {
          const bool rewound = source.restore_cursor(start);
          MCMC_CHECK_MSG(rewound, "a source refused its own start cursor");
        }
      }
    }
    // A stream that did not adopt the checkpoint drops it first (an
    // unusable one, or any left by a run this one does not resume) and
    // recomputes from scratch.
    if (persist != nullptr && !resumed) vstore->clear_checkpoint();

    // The prefetcher runs on its own thread, not a pool worker, so
    // production overlaps consumption even for a 1-thread engine.
    prefetcher.emplace(source);
  }

  /// Claims the classes of the restored live program run's head.
  void seed_run(const TestSource& source) {
    std::vector<litmus::LitmusTest> head;
    source.restored_run_head(head);
    litmus::KeyScratch scratch;
    for (const litmus::LitmusTest& test : head) {
      (void)claim_in_run(test.program(),
                         litmus::canonical_fingerprint(test, scratch));
    }
    if (!head.empty()) run_program = head.back().shared_program();
  }

  /// Releases the previous chunk, then pulls the next into `chunk`;
  /// false once the source is done.  Release moves the delivered novel
  /// tests back into their slots and hands the chunk back to the
  /// producer thread, which destroys the tests it built.  The positions
  /// the source elided count as streamed duplicates and as repeats.
  bool produce(StreamChunkStats& cs) {
    util::Timer release_timer;
    for (std::size_t k = 0; k < novel.size(); ++k) {
      chunk[static_cast<std::size_t>(novel_idx[k])] = std::move(novel[k]);
    }
    novel.clear();
    prefetcher->recycle(chunk);
    cs.stages.release = release_timer.seconds();
    const bool more = prefetcher->next_chunk(chunk);
    cs.stages.produce = prefetcher->last_produce_seconds();
    cs.stages.wait = prefetcher->last_wait_seconds();
    cs.index = total.chunks;
    cs.repeats = prefetcher->elided();
    MCMC_CHECK_MSG(certified || cs.repeats == 0,
                   "the source elided tests without the stream's opt-in");
    cs.duplicates = cs.repeats;
    cs.streamed = chunk.size() + cs.repeats;
    // An empty final pull never reaches verdict(), which folds the rest.
    if (cs.streamed == 0) total.stages += cs.stages;
    return more;
  }

  /// Keys (parallel): fingerprints fan out across the pool in
  /// contiguous ranges, each worker reusing one KeyScratch.  The
  /// canonical fingerprint hashes the canonicalized event walk directly
  /// — no Analysis, no key string, no per-test allocation — building the
  /// program's core::KeyFacts once per run of consecutive tests that
  /// share one program object and hashing only each outcome's words.
  void keys(StreamChunkStats& cs) {
    util::Timer timer;
    const std::size_t n = chunk.size();
    key_hashes.resize(n);
    parallel_ranges(eng.pool(), n, [&](std::size_t begin, std::size_t end) {
      litmus::KeyScratch scratch;
      // Compared only against programs the chunk still holds, so an
      // equal address means the same object.
      const core::Program* loaded = nullptr;
      for (std::size_t i = begin; i < end; ++i) {
        const litmus::LitmusTest& test = chunk[i];
        if (structural) {
          key_hashes[i] = litmus::structural_fingerprint(test);
        } else {
          if (&test.program() != loaded) {
            litmus::load_key_facts(test.program(), scratch);
            loaded = &test.program();
          }
          key_hashes[i] =
              litmus::canonical_fingerprint_loaded(test.outcome(), scratch);
        }
      }
    });
    cs.stages.keys = timer.seconds();
  }

  /// Resolve (serial, chunk order; the `dedup` stage): a test is novel
  /// iff its key is new to its program run, for a certified source (no
  /// class spans two runs), or new to the stream's KeySet.  The first
  /// occurrence of a class is thus its novel test under any thread
  /// count; an elided repeat's class occurred before it, and produce
  /// counted it already.
  void resolve(StreamChunkStats& cs) {
    util::Timer timer;
    novel_idx.clear();
    for (std::size_t i = 0; i < chunk.size(); ++i) {
      if (certified ? claim_in_run(chunk[i].program(), key_hashes[i])
                    : seen->insert(key_hashes[i])) {
        novel_idx.push_back(static_cast<int>(i));
      } else {
        ++cs.duplicates;
      }
    }
    // The run goes on past the chunk's end holding its program, so no
    // later program object can take its address while it lasts.
    if (certified && !chunk.empty()) run_program = chunk.back().shared_program();
    cs.novel = novel_idx.size();
    cs.stages.dedup = timer.seconds();
  }

  /// True iff `key` is new to the program run of `program`, a program
  /// the chunk or run_program holds, which it then claims.
  bool claim_in_run(const core::Program& program, util::Key128 key) {
    if (&program != run_address) {
      run_address = &program;
      run_keys.clear();
    } else if (std::find(run_keys.begin(), run_keys.end(), key) !=
               run_keys.end()) {
      return false;
    }
    run_keys.push_back(key);
    return true;
  }

  /// Verdict: the novel tests move out of the chunk with their keys
  /// (produce moves them back), are decided on the row path and are
  /// delivered.  Under canonical keys the novel tests are canonically
  /// unique and their keys are store keys: one row-level store probe,
  /// one direct batch for the cells the store missed (a test whose whole
  /// row is on disk skips evaluation entirely) and one write-back.
  /// Structural keys are no store keys, so run_rows keys the novel tests
  /// canonically itself: structurally distinct tests of one canonical
  /// class still share their custom-free verdicts.  The chunk sink runs
  /// last, timed as the `sink` stage.
  void verdict(StreamChunkStats& cs, const StreamChunkSink& on_chunk) {
    util::Timer timer;
    novel_keys.clear();
    for (const int t : novel_idx) {
      novel.push_back(std::move(chunk[static_cast<std::size_t>(t)]));
      novel_keys.push_back(key_hashes[static_cast<std::size_t>(t)]);
    }
    const BitMatrix verdicts =
        structural ? eng.run_rows(row_models, novel, {})
                   : eng.run_rows(row_models, novel, novel_keys);
    cs.engine = eng.last_stats_;
    cs.stages.verdict = timer.seconds();

    ++total.chunks;
    total.tests_streamed += cs.streamed;
    total.novel_tests += cs.novel;
    total.duplicate_tests += cs.duplicates;
    total.repeat_tests += cs.repeats;
    total.stages += cs.stages;
    total.engine += cs.engine;
    if (on_chunk) {
      util::Timer sink_timer;
      on_chunk(novel, novel_keys, verdicts, cs);
      total.stages.sink += sink_timer.seconds();
    }
  }

  /// Seal: every K chunks, capture the rows changed since the previous
  /// seal with, for a certified stream, its resumable state (cursor,
  /// counters, sink; other streams seal rows alone), and hand it to the
  /// seal writer, which writes it as one delta segment (or a base)
  /// while the stream runs on.  The previous seal's write is waited for
  /// first, so one write is in flight at a time and the consumer makes
  /// no Fs call while it runs.  A failed write (full disk, failing
  /// fsync) is not fatal: the previous commit stands, and the next seal
  /// retries as a base carrying everything.
  void seal() {
    if (persist == nullptr || persist->checkpoint_every_chunks <= 0 ||
        ++chunks_since_seal < persist->checkpoint_every_chunks) {
      return;
    }
    util::Timer timer;
    join_writer();
    store::StreamCheckpoint ck;
    if (certified && prefetcher->snapshot_cursor(ck.source_cursor)) {
      ck.chunks = total.chunks;
      ck.tests_streamed = total.tests_streamed;
      ck.novel_tests = total.novel_tests;
      ck.duplicate_tests = total.duplicate_tests;
      if (persist->save_sink) persist->save_sink(ck.sink_state);
      vstore->set_checkpoint(std::move(ck));
    }
    chunks_since_seal = 0;
    start_write(vstore->capture_commit(persist->path, /*fold=*/false));
    total.stages.seal += timer.seconds();
  }

  /// Completion: the checkpoint has served its purpose; once the last
  /// seal's write is joined and the writer stopped, fold the chain into
  /// one checkpoint-free file, synchronously, so the run returns with
  /// it durable (a run that changed no row leaves the base untouched).
  void complete() {
    if (persist == nullptr) return;
    util::Timer timer;
    join_writer();
    stop_writer();
    vstore->clear_checkpoint();
    const std::uint64_t before = vstore->bytes_committed();
    if (vstore->commit(persist->path, persist->fs, /*fold=*/true)) {
      ++total.commits;
      total.bytes_committed += vstore->bytes_committed() - before;
    }
    total.stages.seal += timer.seconds();
  }

  /// Hands `capture` to the seal writer; the first seal starts it.
  void start_write(store::VerdictStore::Capture capture) {
    {
      util::MutexLock lock(writer_mu);
      pending.emplace(std::move(capture));
      in_flight = true;
    }
    writer_cv.notify_all();
    if (!writer.joinable()) writer = std::thread([this] { write_seals(); });
  }

  /// The seal writer's thread: writes each capture handed over until
  /// stopped with none pending.
  void write_seals() {
    for (;;) {
      std::optional<store::VerdictStore::Capture> capture;
      {
        util::MutexLock lock(writer_mu);
        while (!pending && !stop_writing) writer_cv.wait(writer_mu);
        if (!pending) return;
        capture.emplace(std::move(*pending));
        pending.reset();
      }
      util::Timer timer;
      const std::uint64_t before = vstore->bytes_committed();
      Write write;
      try {
        write.ok = vstore->write_commit(std::move(*capture), persist->fs);
      } catch (...) {
        write.error = std::current_exception();
      }
      write.bytes = vstore->bytes_committed() - before;
      write.seconds = timer.seconds();
      {
        util::MutexLock lock(writer_mu);
        written.emplace(std::move(write));
        in_flight = false;
      }
      writer_cv.notify_all();
    }
  }

  /// Waits for the seal write in flight, if any, and accounts for it: a
  /// successful one is a commit and a seal, and the kill hook fires
  /// once the seals reach its count.  An exception the write threw is
  /// rethrown here.
  void join_writer() {
    std::optional<Write> write;
    {
      util::MutexLock lock(writer_mu);
      while (in_flight) writer_cv.wait(writer_mu);
      write.swap(written);
    }
    if (!write) return;
    total.stages.write += write->seconds;
    if (write->error) std::rethrow_exception(write->error);
    if (!write->ok) return;
    ++total.commits;
    total.bytes_committed += write->bytes;
    ++seals;
    if (persist->kill_after_seals >= 0 && seals >= persist->kill_after_seals) {
      // Nothing was captured since the seal's rename: on-disk state is
      // exactly a SIGKILL's right after it.
      throw store::StreamInterrupted("stream killed by test hook after seal " +
                                     std::to_string(seals));
    }
  }

  /// Ends the seal writer's thread once a pending write has landed.
  void stop_writer() {
    if (!writer.joinable()) return;
    {
      util::MutexLock lock(writer_mu);
      stop_writing = true;
    }
    writer_cv.notify_all();
    writer.join();
  }

  /// A run that unwinds (a throwing sink, the kill hook) lets the seal
  /// writer finish before the store and its files are handed back.
  ~StreamRun() { stop_writer(); }

  VerdictEngine& eng;
  /// Structural dedup keys instead of canonical ones.
  const bool structural;
  /// The caller's store (may be null); with `persist`, seals commit to
  /// it.
  store::VerdictStore* const vstore;
  /// The streamed models bound to the store the row path probes (see
  /// stream_store).
  const RowModels row_models;
  const store::StreamPersistence* persist = nullptr;
  /// The source accepted the opt-in, certifying its program runs.
  bool certified = false;
  /// A certified stream's live program run: its program's address, the
  /// keys claimed in it, and its program, held past the chunk's end.
  const core::Program* run_address = nullptr;
  std::vector<util::Key128> run_keys;
  std::shared_ptr<const core::Program> run_program;
  /// Every key claimed, for a source that does not certify.
  std::optional<KeySet> seen;
  StreamStats total;
  /// Every chunk is pulled through it; emplaced once the source is
  /// restored.
  std::optional<ChunkPrefetcher> prefetcher;

  // Per-chunk buffers, reused across chunks.
  std::vector<litmus::LitmusTest> chunk;
  std::vector<litmus::LitmusTest> novel;
  std::vector<util::Key128> key_hashes;
  std::vector<int> novel_idx;
  std::vector<util::Key128> novel_keys;

  // The seal counters.
  int seals = 0;
  int chunks_since_seal = 0;

  /// What one seal write left for join_writer.
  struct Write {
    bool ok = false;
    std::uint64_t bytes = 0;
    double seconds = 0.0;
    std::exception_ptr error;
  };
  // The seal writer: one thread per run, fed one capture at a time;
  // `in_flight` from a hand-over until its write is reported.
  std::thread writer;
  util::Mutex writer_mu;
  util::CondVar writer_cv;
  std::optional<store::VerdictStore::Capture> pending GUARDED_BY(writer_mu);
  bool in_flight GUARDED_BY(writer_mu) = false;
  std::optional<Write> written GUARDED_BY(writer_mu);
  bool stop_writing GUARDED_BY(writer_mu) = false;
};

StreamStats VerdictEngine::run_stream(
    const std::vector<core::MemoryModel>& models, TestSource& source,
    const StreamChunkSink& on_chunk, const StreamOptions& stream_options) {
  util::Timer timer;
  StreamRun run(*this, models, source, stream_options);
  bool more = true;
  while (more) {
    StreamChunkStats cs;
    more = run.produce(cs);
    if (cs.streamed == 0) continue;
    run.keys(cs);
    run.resolve(cs);
    run.verdict(cs, on_chunk);
    if (more) run.seal();
  }
  run.complete();
  run.total.wall_seconds = timer.seconds();
  return run.total;
}

}  // namespace mcmc::engine
