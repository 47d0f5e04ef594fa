#include "engine/verdict_engine.h"

#include <algorithm>
#include <optional>
#include <sstream>
#include <thread>

#include "core/analysis.h"
#include "engine/sharded_key_set.h"
#include "store/verdict_store.h"
#include "util/check.h"
#include "util/hash128.h"
#include "util/mutex.h"
#include "util/timer.h"

namespace mcmc::engine {

std::string to_string(Backend backend) {
  switch (backend) {
    case Backend::Explicit:
      return "explicit";
    case Backend::Sat:
      return "sat";
    case Backend::Adaptive:
      return "adaptive";
  }
  MCMC_UNREACHABLE("bad backend");
}

bool parse_backend(const std::string& text, Backend& out) {
  if (text == "explicit") {
    out = Backend::Explicit;
  } else if (text == "sat") {
    out = Backend::Sat;
  } else if (text == "adaptive") {
    out = Backend::Adaptive;
  } else {
    return false;
  }
  return true;
}

namespace {

/// run_rows' store traffic: every row is probed under one shared hold
/// and written back under one exclusive hold — one index lookup per row
/// each way, and a row is written back only if the call added a column
/// to it, so store-served verdicts never dirty the store.
class StoreRows {
 public:
  explicit StoreRows(std::size_t words) : words_(words) {}

  /// Adds a row for `key`, asking the probe for the columns set in
  /// `want` (words_ words).
  void add(util::Key128 key, const std::uint64_t* want) {
    keys_.push_back(key);
    want_.insert(want_.end(), want, want + words_);
    valid_.resize(valid_.size() + words_, 0);
    bits_.resize(bits_.size() + words_, 0);
    touched_.push_back(0);
  }

  void probe(const store::VerdictStore& vstore) {
    util::SharedLock lock(vstore.mu());
    for (std::size_t r = 0; r < keys_.size(); ++r) {
      vstore.probe_words_locked(keys_[r], &want_[r * words_],
                                &valid_[r * words_], &bits_[r * words_]);
    }
  }

  /// The verdict of (row, col) if the store held it (or set() added it).
  [[nodiscard]] std::optional<bool> get(std::size_t row, int col) const {
    if ((valid_[at(row, col)] & bit(col)) == 0) return std::nullopt;
    return (bits_[at(row, col)] & bit(col)) != 0;
  }

  /// Records a verdict for write-back; a column the row already holds
  /// is left as it is (verdicts are deterministic).
  void set(std::size_t row, int col, bool verdict) {
    const std::size_t i = at(row, col);
    if ((valid_[i] & bit(col)) != 0) return;
    valid_[i] |= bit(col);
    if (verdict) bits_[i] |= bit(col);
    touched_[row] = 1;
  }

  void write_back(store::VerdictStore& vstore) {
    if (std::find(touched_.begin(), touched_.end(), 1) == touched_.end()) {
      return;
    }
    util::ExclusiveLock lock(vstore.mu());
    for (std::size_t r = 0; r < keys_.size(); ++r) {
      if (touched_[r] != 0) {
        vstore.write_row_locked(keys_[r], &valid_[r * words_],
                                &bits_[r * words_]);
      }
    }
  }

 private:
  [[nodiscard]] std::size_t at(std::size_t row, int col) const {
    return row * words_ + static_cast<std::size_t>(col) / 64;
  }
  [[nodiscard]] static std::uint64_t bit(int col) {
    return 1ULL << (static_cast<std::size_t>(col) % 64);
  }

  std::size_t words_;
  std::vector<util::Key128> keys_;
  std::vector<std::uint64_t> want_;   ///< rows x words_
  std::vector<std::uint64_t> valid_;  ///< rows x words_
  std::vector<std::uint64_t> bits_;   ///< rows x words_
  std::vector<char> touched_;         ///< set() added a column
};

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

/// One program's models grouped by reorder mask, and each group's
/// verdict on the test being decided: models with equal masks share one
/// search per test.
class MaskClasses {
 public:
  /// Compiles every model of `set` against `analysis` and groups them.
  void compile(const core::FormulaSet& set, const core::Analysis& analysis) {
    set.compile(analysis, masks_, scratch_);
    const auto n = static_cast<std::size_t>(analysis.num_events());
    class_of_.resize(masks_.size());
    reps_.clear();
    for (std::size_t m = 0; m < masks_.size(); ++m) {
      const auto& rows = masks_[m].rows;
      std::size_t c = 0;
      while (c < reps_.size() &&
             !std::equal(rows.begin(), rows.begin() + n,
                         masks_[reps_[c]].rows.begin())) {
        ++c;
      }
      if (c == reps_.size()) reps_.push_back(m);
      class_of_[m] = c;
    }
  }

  /// Forgets the previous test's verdicts.
  void begin_test() { verdicts_.assign(reps_.size(), kUnknown); }

  /// The verdict of `model` on `test`, searching only if no model of its
  /// class has been decided on this test yet.
  bool decide(int model, const core::PreparedTest& test, core::Engine engine,
              std::size_t& searches) {
    const std::size_t c = class_of_[static_cast<std::size_t>(model)];
    if (verdicts_[c] == kUnknown) {
      verdicts_[c] = test.allowed(masks_[reps_[c]], engine) ? 1 : 0;
      ++searches;
    }
    return verdicts_[c] != 0;
  }

 private:
  static constexpr signed char kUnknown = -1;

  std::vector<core::ReorderMask> masks_;  ///< per model of the set
  std::vector<std::uint64_t> scratch_;    ///< FormulaSet node rows
  std::vector<std::size_t> class_of_;     ///< model -> class
  std::vector<std::size_t> reps_;         ///< class -> its first model
  std::vector<signed char> verdicts_;     ///< class -> verdict or kUnknown
};

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
     << " wall=" << wall_seconds << "s";
  return os.str();
}

RowModels::RowModels(const std::vector<core::MemoryModel>& models,
                     store::VerdictStore* vstore)
    : models_(models), vstore_(vstore) {
  col_.assign(models.size(), -1);
  custom_.resize(models.size());
  if (vstore != nullptr) want_.assign(vstore->words_per_row(), 0);
  for (std::size_t m = 0; m < models.size(); ++m) {
    custom_[m] = models[m].formula().has_custom() ? 1 : 0;
    if (vstore == nullptr || custom_[m] != 0) continue;
    col_[m] = vstore->column_of(store::model_store_key(models[m]));
    if (col_[m] >= 0) {
      const auto col = static_cast<std::size_t>(col_[m]);
      want_[col / 64] |= 1ULL << (col % 64);
    }
  }
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

core::Engine VerdictEngine::resolve_backend(int num_events) const {
  switch (options_.backend) {
    case Backend::Explicit:
      return core::Engine::Explicit;
    case Backend::Sat:
      return core::Engine::Sat;
    case Backend::Adaptive:
      // The explicit engine's transitive-closure bitmasks hold 64 events.
      return num_events <= 64 ? core::Engine::Explicit : core::Engine::Sat;
  }
  MCMC_UNREACHABLE("bad backend");
}

WorkStealingPool& VerdictEngine::pool() {
  if (pool_ == nullptr) {
    pool_ = std::make_unique<WorkStealingPool>(effective_threads());
  }
  return *pool_;
}

void VerdictEngine::record(const EngineStats& stats) {
  last_stats_ = stats;
  total_stats_ += stats;
}

std::vector<char> VerdictEngine::evaluate(
    const std::vector<core::MemoryModel>& models,
    const std::vector<litmus::LitmusTest>& tests,
    const std::vector<VerdictRequest>& requests, EngineStats& stats) {
  // ---- Only tests some request needs are analyzed and prepared.  The
  // requests are bucketed by test; consecutive such tests that share one
  // program object form a program run (the stream emits a program's
  // outcomes back to back, and copies of a test share its program), and
  // each run is one pool task: analyze the program, compile the batch's
  // models into masks and group the equal ones, then prepare its tests
  // one at a time and run one search per distinct mask a test's cells
  // ask for.  A worker holds one Analysis and one prepared test at a
  // time.  Grouping only shares work: a test sharing nothing is a run of
  // its own. ----
  const int num_tests = static_cast<int>(tests.size());
  // Cells of test t: cell_of[cell_begin[t] .. cell_begin[t + 1]).
  std::vector<std::size_t> cell_begin(tests.size() + 1, 0);
  for (const auto& r : requests) {
    ++cell_begin[static_cast<std::size_t>(r.test) + 1];
  }
  std::vector<int> eval_tests;
  for (int t = 0; t < num_tests; ++t) {
    const auto st = static_cast<std::size_t>(t);
    if (cell_begin[st + 1] > 0) eval_tests.push_back(t);
    cell_begin[st + 1] += cell_begin[st];
  }
  std::vector<std::size_t> cell_of(requests.size());
  {
    std::vector<std::size_t> next(cell_begin.begin(), cell_begin.end() - 1);
    for (std::size_t k = 0; k < requests.size(); ++k) {
      cell_of[next[static_cast<std::size_t>(requests[k].test)]++] = k;
    }
  }
  // Run r covers eval_tests[run_begin[r] .. run_begin[r + 1]).
  std::vector<std::size_t> run_begin;
  const core::Program* run_program = nullptr;
  for (std::size_t i = 0; i < eval_tests.size(); ++i) {
    const auto& program =
        tests[static_cast<std::size_t>(eval_tests[i])].program();
    if (&program != run_program) run_begin.push_back(i);
    run_program = &program;
  }
  const std::size_t num_runs = run_begin.size();
  run_begin.push_back(eval_tests.size());

  // The batch's models, compiled once for all of its program runs.
  std::vector<core::Formula> formulas;
  if (num_runs > 0) {
    for (const auto& model : models) formulas.push_back(model.formula());
  }
  const core::FormulaSet set(std::move(formulas));
  // Each task writes only its own cells' verdicts and its own counters.
  std::vector<char> results(requests.size(), 0);
  struct RunCounts {
    std::size_t searches = 0;
    std::size_t explicit_checks = 0;
    std::size_t sat_checks = 0;
  };
  std::vector<RunCounts> run_counts(num_runs);
  const auto run_task = [&](std::size_t r) {
    const auto analysis = core::analyze_shared(
        tests[static_cast<std::size_t>(eval_tests[run_begin[r]])]
            .shared_program());
    const core::Engine backend = resolve_backend(analysis->num_events());
    // Beyond 64 events there are no masks: each cell evaluates its
    // model per event pair.
    const bool by_mask = analysis->masks_valid();
    MaskClasses classes;
    if (by_mask) classes.compile(set, *analysis);
    RunCounts& counts = run_counts[r];
    std::size_t& backend_checks = backend == core::Engine::Explicit
                                      ? counts.explicit_checks
                                      : counts.sat_checks;
    for (std::size_t i = run_begin[r]; i < run_begin[r + 1]; ++i) {
      const auto t = static_cast<std::size_t>(eval_tests[i]);
      const core::PreparedTest prepared(analysis, tests[t].outcome());
      if (by_mask) classes.begin_test();
      for (std::size_t c = cell_begin[t]; c < cell_begin[t + 1]; ++c) {
        const std::size_t k = cell_of[c];
        const int m = requests[k].model;
        bool verdict = false;
        if (by_mask) {
          verdict = classes.decide(m, prepared, backend, counts.searches);
        } else {
          verdict = prepared.allowed(models[static_cast<std::size_t>(m)],
                                     backend);
          ++counts.searches;
        }
        results[k] = verdict ? 1 : 0;
      }
      backend_checks += cell_begin[t + 1] - cell_begin[t];
    }
  };
  const int threads = effective_threads();
  if (threads > 1 && num_runs > 1) {
    pool().parallel_for(num_runs, run_task);
    stats.threads_used = threads;
  } else {
    for (std::size_t r = 0; r < num_runs; ++r) run_task(r);
    stats.threads_used = 1;
  }
  stats.checks_run += requests.size();
  stats.unique_analyses += num_runs;
  for (const RunCounts& counts : run_counts) {
    stats.searches += counts.searches;
    stats.explicit_checks += counts.explicit_checks;
    stats.sat_checks += counts.sat_checks;
  }
  return results;
}

BitMatrix VerdictEngine::run_matrix(
    const std::vector<core::MemoryModel>& models,
    const std::vector<litmus::LitmusTest>& tests) {
  if (options_.cache_enabled || store_ != nullptr) {
    return run_rows(RowModels(models, store_), tests, {});
  }
  // The reference setting: every cell is a request of the direct batch.
  util::Timer timer;
  EngineStats stats;
  stats.cells = models.size() * tests.size();
  std::vector<VerdictRequest> requests;
  requests.reserve(stats.cells);
  const int num_models = static_cast<int>(models.size());
  const int num_tests = static_cast<int>(tests.size());
  for (int t = 0; t < num_tests; ++t) {
    for (int m = 0; m < num_models; ++m) requests.push_back({m, t});
  }
  const auto flat = evaluate(models, tests, requests, stats);
  BitMatrix verdicts(num_models, num_tests);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (flat[i] != 0) verdicts.set(requests[i].model, requests[i].test, true);
  }
  stats.wall_seconds = timer.seconds();
  record(stats);
  return verdicts;
}

BitMatrix VerdictEngine::run_rows(const RowModels& rows,
                                  const std::vector<litmus::LitmusTest>& tests,
                                  const std::vector<util::Key128>& keys) {
  util::Timer timer;
  const auto& models = rows.models_;
  const int num_models = static_cast<int>(models.size());
  const int num_tests = static_cast<int>(tests.size());
  MCMC_REQUIRE_MSG(keys.empty() || keys.size() == tests.size(),
                   "run_rows needs one key per test");
  BitMatrix verdicts(num_models, num_tests);
  EngineStats stats;
  stats.cells = models.size() * tests.size();
  if (stats.cells == 0) {
    record(stats);
    return verdicts;
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

  // ---- One probe per row, under one shared hold. ----
  store::VerdictStore* const vstore = rows.vstore_;
  StoreRows store_rows(vstore != nullptr ? vstore->words_per_row() : 0);
  if (vstore != nullptr) {
    for (const int t : first) {
      store_rows.add(test_keys[static_cast<std::size_t>(t)],
                     rows.want_.data());
    }
    store_rows.probe(*vstore);
  }

  // ---- The cells the store lacks, for one direct batch: a custom-free
  // model is decided once per row, on the row's first test; a
  // custom-predicate model once per test (its verdicts are neither
  // shared nor stored).  A row's other tests share the verdict as dedup
  // hits, whether the store served it or it is evaluated. ----
  std::vector<VerdictRequest> requests;
  for (int t = 0; t < num_tests; ++t) {
    const auto row =
        static_cast<std::size_t>(row_of[static_cast<std::size_t>(t)]);
    const bool row_first = first[row] == t;
    for (int m = 0; m < num_models; ++m) {
      const auto ms = static_cast<std::size_t>(m);
      const bool custom = rows.custom_[ms] != 0;
      if (!custom) {
        if (!row_first) continue;
        stats.dedup_hits += row_size[row] - 1;
      }
      const int col = rows.col_[ms];
      if (vstore != nullptr && col >= 0) {
        const std::optional<bool> hit = store_rows.get(row, col);
        if (hit.has_value()) {
          if (*hit) verdicts.set(m, t, true);
          ++stats.store_hits;
          continue;
        }
        ++stats.store_misses;
      }
      requests.push_back({m, t});
    }
  }

  const auto flat = evaluate(models, tests, requests, stats);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const auto [m, t] = requests[i];
    const bool verdict = flat[i] != 0;
    if (verdict) verdicts.set(m, t, true);
    const int col = rows.col_[static_cast<std::size_t>(m)];
    if (vstore != nullptr && col >= 0) {
      store_rows.set(
          static_cast<std::size_t>(row_of[static_cast<std::size_t>(t)]), col,
          verdict);
    }
  }
  // Evaluated cells go back to the store, so the next run (or the next
  // process) serves them from disk.
  if (vstore != nullptr) store_rows.write_back(*vstore);

  // ---- A row's later tests take its first test's custom-free
  // verdicts. ----
  for (int t = 0; t < num_tests; ++t) {
    const int from = first[static_cast<std::size_t>(
        row_of[static_cast<std::size_t>(t)])];
    if (from == t) continue;
    for (int m = 0; m < num_models; ++m) {
      if (rows.custom_[static_cast<std::size_t>(m)] == 0 &&
          verdicts.get(m, from)) {
        verdicts.set(m, t, true);
      }
    }
  }

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
  seal += other.seal;
  return *this;
}

std::string StreamStageTimes::to_string() const {
  std::ostringstream os;
  os << "produce=" << produce << "s wait=" << wait << "s release=" << release
     << "s keys=" << keys << "s dedup=" << dedup << "s verdict=" << verdict
     << "s seal=" << seal << "s";
  return os.str();
}

double StreamStats::dedup_rate() const {
  return tests_streamed == 0
             ? 0.0
             : static_cast<double>(duplicate_tests) /
                   static_cast<double>(tests_streamed);
}

std::string StreamStats::to_string() const {
  std::ostringstream os;
  os << "chunks=" << chunks << " streamed=" << tests_streamed
     << " novel=" << novel_tests << " duplicates=" << duplicate_tests
     << " repeats=" << repeat_tests
     << " (dedup " << static_cast<int>(100.0 * dedup_rate() + 0.5)
     << "%) wall=" << wall_seconds << "s stages[" << stages.to_string()
     << (overlapped ? " (produce overlapped)" : "") << "]";
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
    // Checkpoint/resume.  Restoring happens before the prefetcher
    // exists, directly on the raw source; both restore steps validate
    // before mutating, so a failed resume degrades to streaming from
    // scratch rather than diverging.
    if (vstore != nullptr && options.persistence != nullptr &&
        !options.persistence->path.empty()) {
      persist = options.persistence;
    }
    bool resumed = false;
    if (persist != nullptr && persist->resume) {
      // checkpoint() hands out a copy (the stored one lives under the
      // store's lock), so the restore steps below work on a stable
      // value.
      const std::optional<store::StreamCheckpoint> ck = vstore->checkpoint();
      if (ck.has_value() &&
          (!persist->restore_sink || persist->restore_sink(ck->sink_state)) &&
          source.restore_cursor(ck->source_cursor)) {
        seen.seed(ck->seen_keys);
        total.chunks = static_cast<std::size_t>(ck->chunks);
        total.tests_streamed = static_cast<std::size_t>(ck->tests_streamed);
        total.novel_tests = static_cast<std::size_t>(ck->novel_tests);
        total.duplicate_tests = static_cast<std::size_t>(ck->duplicate_tests);
        resumed = true;
      }
    }
    // Seals extend the store's checkpoint with the keys claimed since
    // the previous seal, so a stream that did not adopt the checkpoint
    // drops it first (an unusable one, or any left by a run this one
    // does not resume) and recomputes from scratch.
    if (persist != nullptr && !resumed) vstore->clear_checkpoint();

    // The prefetcher runs on its own thread, not a pool worker, so
    // overlap engages even for a 1-thread engine.  Cursor capture
    // exists only for checkpoint seals; without persistence the
    // producer thread skips the per-chunk snapshot.
    total.overlapped = options.overlap_production;
    if (total.overlapped) prefetcher.emplace(source, 1, persist != nullptr);
    input = total.overlapped ? &*prefetcher : &source;
  }

  /// Releases the previous chunk, then pulls the next into `chunk`;
  /// false once the source is done.  Release moves the delivered novel
  /// tests back into their slots and, under overlap, hands the chunk
  /// back to the producer thread, which destroys the tests it built;
  /// without overlap it frees them here.
  bool produce(StreamChunkStats& cs) {
    util::Timer release_timer;
    for (std::size_t k = 0; k < novel.size(); ++k) {
      chunk[static_cast<std::size_t>(novel_idx[k])] = std::move(novel[k]);
    }
    novel.clear();
    if (prefetcher) {
      prefetcher->recycle(chunk);
    } else {
      chunk.clear();
    }
    cs.stages.release = release_timer.seconds();
    util::Timer timer;
    const bool more = input->next_chunk(chunk);
    cs.stages.produce =
        prefetcher ? prefetcher->last_produce_seconds() : timer.seconds();
    cs.stages.wait = prefetcher ? prefetcher->last_wait_seconds() : 0.0;
    // An empty final pull never reaches verdict(), which folds the rest.
    if (chunk.empty()) total.stages += cs.stages;
    cs.index = total.chunks;
    cs.streamed = chunk.size();
    return more;
  }

  /// Keys (parallel): fingerprints fan out across the pool in
  /// contiguous ranges, each worker reusing one KeyScratch.  The
  /// canonical fingerprint hashes the canonicalized event walk directly
  /// — no Analysis, no key string, no per-test allocation — building the
  /// program's core::KeyFacts once per run of consecutive tests that
  /// share one program object and hashing only each outcome's words;
  /// the 128-bit digest is claimed in the sharded set as it goes.
  /// Under canonical keys a test the source marks as a repeat is a
  /// settled duplicate: its class was claimed when it first occurred,
  /// earlier in this stream, so it is neither fingerprinted nor
  /// claimed.
  void keys(StreamChunkStats& cs) {
    util::Timer timer;
    const std::size_t n = chunk.size();
    key_hashes.resize(n);
    dup_of_past.assign(n, 0);
    const std::vector<char>* marks =
        structural ? nullptr : input->repeat_marks();
    if (marks != nullptr) {
      MCMC_CHECK_MSG(marks->size() == n,
                     "repeat marks do not match the chunk's tests");
      cs.repeats = static_cast<std::size_t>(
          std::count_if(marks->begin(), marks->end(),
                        [](char mark) { return mark != 0; }));
    }
    seen.begin_chunk();
    parallel_ranges(eng.pool(), n, [&](std::size_t begin, std::size_t end) {
      litmus::KeyScratch scratch;
      // Compared only against programs the chunk still holds, so an
      // equal address means the same object.
      const core::Program* loaded = nullptr;
      for (std::size_t i = begin; i < end; ++i) {
        if (marks != nullptr && (*marks)[i] != 0) {
          dup_of_past[i] = 1;
          continue;
        }
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
        dup_of_past[i] =
            seen.claim(key_hashes[i], static_cast<std::uint32_t>(i)) ? 1 : 0;
      }
    });
    cs.stages.keys = timer.seconds();
  }

  /// Resolve (serial, chunk order): a test is novel iff its key is new
  /// to the stream and it holds the chunk's minimum index for that key
  /// — exactly what serial insertion in chunk order would decide,
  /// making results independent of thread count.
  void resolve(StreamChunkStats& cs) {
    util::Timer timer;
    novel_idx.clear();
    for (std::size_t i = 0; i < chunk.size(); ++i) {
      if (dup_of_past[i] != 0 ||
          seen.owner(key_hashes[i]) != static_cast<std::uint32_t>(i)) {
        ++cs.duplicates;
        continue;
      }
      novel_idx.push_back(static_cast<int>(i));
      if (persist != nullptr) {
        seal_keys.push_back(ShardedKeySet::normalized(key_hashes[i]));
      }
    }
    cs.novel = novel_idx.size();
    cs.stages.dedup = timer.seconds();
  }

  /// Verdict: the novel tests move out of the chunk with their keys
  /// (produce moves them back; every Analysis keeps its program alive,
  /// core::analyze_shared), are decided on the row path and are
  /// delivered.  Under canonical keys the novel tests are canonically
  /// unique and their keys are store keys: one row-level store probe,
  /// one direct batch for the cells the store missed (a test whose whole
  /// row is on disk skips evaluation entirely) and one write-back.
  /// Structural keys are no store keys, so run_rows keys the novel tests
  /// canonically itself: structurally distinct tests of one canonical
  /// class still share their custom-free verdicts.
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
    if (on_chunk) on_chunk(novel, novel_keys, verdicts, cs);
  }

  /// Seal: every K chunks, commit the resumable state (cursor, the
  /// dedup keys claimed since the previous seal, counters, sink)
  /// together with the rows changed since then as one delta segment.
  /// A failed commit (full disk, failing fsync) is not fatal — the
  /// previous commit stands, and sealing retries after the next chunk
  /// with a base carrying everything.
  void seal() {
    if (persist == nullptr || persist->checkpoint_every_chunks <= 0 ||
        ++chunks_since_seal < persist->checkpoint_every_chunks) {
      return;
    }
    util::Timer timer;
    store::StreamCheckpoint ck;
    if (input->snapshot_cursor(ck.source_cursor)) {
      ck.chunks = total.chunks;
      ck.tests_streamed = total.tests_streamed;
      ck.novel_tests = total.novel_tests;
      ck.duplicate_tests = total.duplicate_tests;
      ck.seen_keys = std::move(seal_keys);
      seal_keys.clear();
      if (persist->save_sink) persist->save_sink(ck.sink_state);
      vstore->extend_checkpoint(std::move(ck));
      if (commit(/*fold=*/false)) {
        chunks_since_seal = 0;
        ++seals;
        if (persist->kill_after_seals >= 0 &&
            seals >= persist->kill_after_seals) {
          // The seal is already committed: on-disk state is exactly a
          // SIGKILL's right after the rename.
          throw store::StreamInterrupted(
              "stream killed by test hook after seal " +
              std::to_string(seals));
        }
      }
    }
    total.stages.seal += timer.seconds();
  }

  /// Completion: the checkpoint has served its purpose; fold the chain
  /// into one checkpoint-free file so the next run starts clean (a run
  /// that changed no row leaves the base untouched).
  void complete() {
    if (persist == nullptr) return;
    util::Timer timer;
    vstore->clear_checkpoint();
    (void)commit(/*fold=*/true);
    total.stages.seal += timer.seconds();
  }

  bool commit(bool fold) {
    const std::uint64_t before = vstore->bytes_committed();
    if (!vstore->commit(persist->path, persist->fs, fold)) return false;
    ++total.commits;
    total.bytes_committed += vstore->bytes_committed() - before;
    return true;
  }

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
  ShardedKeySet seen;
  StreamStats total;
  std::optional<ChunkPrefetcher> prefetcher;
  /// The prefetcher, or the raw source.
  TestSource* input = nullptr;

  // Per-chunk buffers, reused across chunks.
  std::vector<litmus::LitmusTest> chunk;
  std::vector<litmus::LitmusTest> novel;
  std::vector<util::Key128> key_hashes;
  std::vector<char> dup_of_past;
  std::vector<int> novel_idx;
  std::vector<util::Key128> novel_keys;

  // Keys claimed since the last seal, and the seal counters.
  std::vector<util::Key128> seal_keys;
  int seals = 0;
  int chunks_since_seal = 0;
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
    if (run.chunk.empty()) continue;
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
