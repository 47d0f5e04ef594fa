// The unified batched verdict pipeline.
//
// Every result in the paper reduces to "is this outcome allowed under
// this model?" asked thousands of times.  VerdictEngine owns that loop
// for the whole repository: callers hand it models and tests and get
// back a packed verdict matrix, with the engine handling
//
//   * per-program analysis, done once per run of consecutive
//     evaluated tests that share one program object (the stream's
//     outcomes of a program, copies of a test) and shared across those
//     tests and every model — deduplicated and store-served tests never
//     pay for one,
//   * one workspace per evaluation thread: a core::Analysis reset to
//     each program run, a core::PreparedTest re-prepared for each test
//     and the run's mask classes, all refilled in place, so once their
//     buffers have grown a test costs no heap allocation; a workspace
//     holds no program past its run,
//   * canonical-test deduplication within a call: symmetric tests
//     (thread-permuted, location-renamed) share one row of verdicts,
//     keyed by litmus::canonical_fingerprint (128-bit, allocation-free;
//     litmus::canonical_key is its audited string form) — models with
//     custom predicates, whose semantics may observe raw
//     thread/location identity, are decided per test instead,
//   * mask-class evaluation in model words: the models are hash-consed
//     once per RowModels as a core::FormulaSet, whose masks are written
//     per program in one pass (shared subformulas evaluated once);
//     models with equal masks on a program get equal verdicts on each
//     of its outcomes.  A test's requested models and its verdicts are
//     64-bit model words (bit m % 64 of word m / 64 is model m), and
//     each mask class records its models as words, so every prepared
//     test (rf maps and HbProblem skeletons, prepared once per test)
//     runs one search per class that shares a model with its want row
//     and, when the outcome is allowed, ORs the shared models into its
//     verdicts: O(classes) per test, not O(models),
//   * the decision procedure picked by test size: up to the 64 events
//     the bitmask rows hold, precompiled masks and the explicit closure
//     search; beyond that there are no masks, and each wanted model is
//     evaluated per event pair and decided by the SAT engine,
//   * a std::thread pool whose threads claim tasks from one shared
//     counter, one task per program run (analyze, compile masks, then
//     prepare and decide its tests one at a time),
//   * streamed corpora (run_stream), prefetched one chunk ahead by one
//     producer thread,
//   * row-level verdict-store traffic (run_rows, the one batch path:
//     run_matrix, the stream, the Theorem harness's sweep and litmusd
//     take it): one store probe per canonical class, turned into model
//     words once; one want row per test for one direct batch (a row's
//     first test asks for the custom-free models its store row lacks,
//     every test for the custom-predicate ones); one write-back, and
//   * per-batch statistics (cells, checks, searches, dedup and store
//     hits, explicit/SAT split, wall time and its evaluation share).
//
// No verdict outlives a call: the verdict store (store::VerdictStore)
// is what keeps them.  explore::AdmissibilityMatrix, model
// fingerprinting, the examples, and the bench sweeps all route through
// this engine.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/formula.h"
#include "core/model.h"
#include "core/prepared.h"
#include "engine/bit_matrix.h"
#include "engine/test_stream.h"
#include "engine/thread_pool.h"
#include "litmus/test.h"
#include "util/hash128.h"

namespace mcmc::store {
class VerdictStore;
struct StreamPersistence;
}  // namespace mcmc::store

namespace mcmc::engine {

struct EngineOptions {
  /// Total evaluation threads, including the caller; 0 means
  /// std::thread::hardware_concurrency().
  int num_threads = 0;
  /// false: a run_matrix without an attached store asks the direct
  /// batch for every model on every test, sharing no row between tests
  /// — the reference setting of the differential tests and of perfbench's
  /// serve oracle, which share no row code with the path they check.
  /// The name is kept from the in-memory verdict cache it once
  /// switched, because those callers set it.  run_rows, run_stream and
  /// a store-attached run_matrix ignore it.
  bool cache_enabled = true;
};

/// Per-batch accounting (also accumulated across an engine's lifetime).
struct EngineStats {
  std::size_t cells = 0;           ///< verdicts requested
  std::size_t checks_run = 0;      ///< cells decided by evaluation (not
                                   ///  by a store or dedup hit)
  std::size_t searches = 0;        ///< closure or SAT searches run for
                                   ///  them: one per distinct mask among
                                   ///  a test's checks (one per check
                                   ///  beyond 64 events)
  std::size_t dedup_hits = 0;      ///< shared within the call via keys
  std::size_t store_hits = 0;      ///< served by the verdict store
  std::size_t store_misses = 0;    ///< store probes that found nothing
  std::size_t explicit_checks = 0; ///< checks decided on the mask path
                                   ///  (explicit search, <= 64 events)
  std::size_t sat_checks = 0;      ///< checks decided per event pair by
                                   ///  the SAT engine (> 64 events)
  std::size_t unique_analyses = 0; ///< programs analyzed this batch:
                                   ///  one per run of evaluated tests
                                   ///  sharing a program object
                                   ///  (dedup/store hits need none)
  int threads_used = 1;
  double wall_seconds = 0.0;
  double eval_seconds = 0.0;       ///< of the wall, the evaluation's
                                   ///  analyze-and-search section (the
                                   ///  pool's parallel_for, or the serial
                                   ///  loop at 1 thread); the rest is
                                   ///  keys, rows and store traffic

  EngineStats& operator+=(const EngineStats& other);
  /// One-line rendering for the bench harnesses.
  [[nodiscard]] std::string to_string() const;
};

/// Options for a streaming run (see VerdictEngine::run_stream).
struct StreamOptions {
  /// Force structural dedup keys even when every streamed model is
  /// custom-free.  Callers that reuse the delivered verdicts beyond the
  /// streamed models (e.g. the extremes-prefiltered Theorem harness,
  /// which sweeps a different model set over the novel tests) must set
  /// this when any of *those* models carries custom predicates —
  /// canonical sharing is unsound for them.
  bool force_structural_keys = false;
  /// Persistent verdict store consulted per novel test (caller-owned,
  /// may be null).  The novel tests always take the row path
  /// (VerdictEngine::run_rows); when every streamed model has a store
  /// column and the stream dedups by canonical fingerprints, that path
  /// probes this store with the stream's keys: only the cells the store
  /// lacks are evaluated — a test whose full verdict row is present
  /// skips evaluation entirely — and evaluated cells are written back;
  /// this is what makes a warm rerun serve from disk.  Ignored under
  /// structural keys.  The engine's own store (set_store) is never
  /// consulted by a stream.
  store::VerdictStore* verdict_store = nullptr;
  /// Chunk-granular checkpoint/resume of the stream into
  /// `verdict_store` (null = no checkpointing; requires
  /// `verdict_store`).  See store::StreamPersistence.
  const store::StreamPersistence* persistence = nullptr;
};

/// Per-stage wall time of the streaming pipeline.  `produce` is time
/// the producer thread spent inside the source's next_chunk — it runs
/// concurrently with the other stages, so it is overlap, not critical
/// path.  `wait` is the critical-path share of production: the time
/// the consumer blocked for a chunk the producer thread had not
/// finished.  `release` is the consumer's share of tearing down the
/// previous chunk before it pulls the next: the hand-back to the
/// producer thread (ChunkPrefetcher::recycle), whose destruction of the
/// handed-back tests counts in its `produce`.
/// `keys` is the parallel fingerprint phase, `dedup` the serial
/// chunk-order claims of the keys (in each program run's key list for a
/// certifying source, in the stream's KeySet otherwise), `verdict`
/// the batched evaluation, `sink` the chunk sink (the caller's
/// on_chunk: the Theorem harness's sweep runs there), `seal` the time
/// a persisted stream's consumer is held at its seals: each seal's
/// capture and its wait for the previous seal's write, and the
/// completion's wait and synchronous fold.  `write` is the seal
/// writer's busy time (the background writes of the seals); like
/// `produce` it runs on its own thread, off the critical path.
/// A chunk's own stats carry no `sink` time: the sink receives them
/// before it runs.
struct StreamStageTimes {
  double produce = 0.0;
  double wait = 0.0;
  double release = 0.0;
  double keys = 0.0;
  double dedup = 0.0;
  double verdict = 0.0;
  double sink = 0.0;
  double seal = 0.0;
  double write = 0.0;

  StreamStageTimes& operator+=(const StreamStageTimes& other);
  [[nodiscard]] std::string to_string() const;
};

/// Accounting for one streamed chunk.
struct StreamChunkStats {
  std::size_t index = 0;      ///< 0-based chunk number
  std::size_t streamed = 0;   ///< stream positions the chunk spans:
                              ///  tests pulled plus elided ones
  std::size_t novel = 0;      ///< first-of-their-class tests evaluated
  std::size_t duplicates = 0; ///< cross-chunk dedup hits
  std::size_t repeats = 0;    ///< duplicates the source elided
                              ///  (TestSource::elided): never built
                              ///  or keyed
  StreamStageTimes stages;    ///< this chunk's per-stage wall breakdown
  EngineStats engine;         ///< engine stats of this chunk's batch
};

/// Accounting for a whole streamed run.
struct StreamStats {
  std::size_t chunks = 0;
  std::size_t tests_streamed = 0;
  std::size_t novel_tests = 0;
  std::size_t duplicate_tests = 0;  ///< cross-chunk dedup hits
  /// Duplicates the source elided: never built, so never keyed
  /// (TestSource::elided).
  std::size_t repeat_tests = 0;
  StreamStageTimes stages;          ///< accumulated per-stage breakdown
  EngineStats engine;               ///< accumulated over chunk batches
  std::size_t commits = 0;          ///< store commits: seals + completion
  /// Bytes those commits wrote.
  std::uint64_t bytes_committed = 0;
  double wall_seconds = 0.0;

  /// Fraction of streamed tests served by the cross-chunk dedup.
  [[nodiscard]] double dedup_rate() const;
  /// The wall time no consumer-side stage holds: the wall minus wait,
  /// release, keys, dedup, verdict, sink and seal.  Produce and write
  /// overlap those stages on their own threads, so they are not
  /// subtracted.
  [[nodiscard]] double unattributed_seconds() const;
  /// Keys-stage cost per streamed test in nanoseconds — the
  /// fingerprint path's scaling number.  bench_exhaustive reports it
  /// per space so the dep-extended run is directly comparable against
  /// the no-dep baseline.  Elided repeats count as streamed tests
  /// whose keys cost nothing.
  [[nodiscard]] double keys_ns_per_test() const {
    return tests_streamed == 0
               ? 0.0
               : stages.keys * 1e9 / static_cast<double>(tests_streamed);
  }
  [[nodiscard]] std::string to_string() const;
};

/// Per-chunk delivery: the chunk's novel tests, their dedup keys (the
/// stream's keys stage computed them: canonical fingerprints, or
/// structural ones when the stream dedups structurally), their tests x
/// models verdict matrix (row i holds novel test i's model words, as
/// run_rows returns them), and the chunk accounting.  Duplicate tests
/// are not re-delivered (their verdicts equal an earlier chunk's).
using StreamChunkSink = std::function<void(
    const std::vector<litmus::LitmusTest>& novel_tests,
    const std::vector<util::Key128>& novel_keys, const BitMatrix& verdicts,
    const StreamChunkStats& stats)>;

/// A model list bound to a verdict store for VerdictEngine::run_rows:
/// each model's store column is resolved, and the models' formulas are
/// hash-consed into one core::FormulaSet, once, not per call.  It
/// translates between the store's columns and model words (bit m % 64
/// of word m / 64 is model m, one word per 64 models): a probed store
/// row into the models it serves, and evaluated verdicts into the
/// columns written back.  Holds references: `models` and `vstore`
/// (caller-owned, may be null) must outlive it.
class RowModels {
 public:
  RowModels(const std::vector<core::MemoryModel>& models,
            store::VerdictStore* vstore);

  /// The models' store columns, in store words: what a row probe asks
  /// for (VerdictStore::probe_words_locked's `want`).
  [[nodiscard]] const std::uint64_t* columns() const {
    return columns_.data();
  }

  /// Turns a store row probed for columns() (`valid` and `bits`, in
  /// store words) into model words: ORs into `served` the models whose
  /// column the row holds, and into `allowed` those it holds as allowed.
  /// Returns the number of models served.
  std::size_t from_store(const std::uint64_t* valid, const std::uint64_t* bits,
                         std::uint64_t* served, std::uint64_t* allowed) const;

 private:
  friend class VerdictEngine;

  /// Records, in store words, the verdicts (`verdicts`) of the models
  /// set in `evaluated` that have a store column: their columns go into
  /// `mask`, the allowed ones into `bits`.  False iff none has one.
  bool to_store(const std::uint64_t* evaluated, const std::uint64_t* verdicts,
                std::uint64_t* mask, std::uint64_t* bits) const;

  const std::vector<core::MemoryModel>& models_;
  store::VerdictStore* vstore_;
  core::FormulaSet set_;  ///< the models, hash-consed once
  /// Model words per test.
  std::size_t words_;
  /// Custom-free models, decided once per row.
  std::vector<std::uint64_t> free_;
  /// Custom-predicate models, decided per test.
  std::vector<std::uint64_t> custom_;
  /// Models with a store column.
  std::vector<std::uint64_t> stored_;
  /// Store column per model, -1: none.
  std::vector<int> col_;
  /// The models' store columns, in store words.
  std::vector<std::uint64_t> columns_;
};

/// Batched, parallel (model, test) verdict evaluation.
class VerdictEngine {
 public:
  explicit VerdictEngine(EngineOptions options = {});
  ~VerdictEngine();

  VerdictEngine(const VerdictEngine&) = delete;
  VerdictEngine& operator=(const VerdictEngine&) = delete;

  /// Evaluates the full `models` x `tests` cross product; bit (m, t) of
  /// the models x tests result is the verdict of model `m` on test `t`.
  /// This is run_rows(RowModels(models, store), tests, {}) with the
  /// attached store (set_store), or none, transposed; with
  /// cache_enabled off and no store, every test asks the direct batch
  /// for every model instead.
  [[nodiscard]] BitMatrix run_matrix(
      const std::vector<core::MemoryModel>& models,
      const std::vector<litmus::LitmusTest>& tests);

  /// The engine's batch path: the tests x models verdict matrix of
  /// `tests` under the models `rows` binds, row t holding test t's model
  /// words (bit (t, m) is model m's verdict on test t), with tests keyed
  /// by `keys`: their canonical
  /// fingerprints (litmus::canonical_fingerprint), parallel to `tests`,
  /// or empty to have them computed here.  Tests with equal keys share
  /// one row: one probe per row of the store `rows` binds (may be null)
  /// under one shared hold, one direct batch for the cells the store
  /// lacks — each custom-free model decided once per row, on its first
  /// test, a custom-predicate model per test — and one write-back under
  /// one exclusive hold of the rows this call added a column to.  A
  /// row's later tests count as dedup hits, whether the store served the
  /// row's cell or it was evaluated.  Requests, store rows and verdicts
  /// travel as model words, and the matrix adopts the verdict words.
  /// Throws std::invalid_argument unless `keys` is empty or as long as
  /// `tests`.
  [[nodiscard]] BitMatrix run_rows(const RowModels& rows,
                                   const std::vector<litmus::LitmusTest>& tests,
                                   const std::vector<util::Key128>& keys);

  /// Streaming evaluation: pulls chunks from `source` until exhausted,
  /// evaluates the `models` x chunk product for each, and invokes
  /// `on_chunk` (may be null) after every chunk.  Tests whose canonical
  /// fingerprint appeared earlier in the stream are counted as
  /// duplicates and skipped; keys are 128-bit fingerprints (no key
  /// string ever materialized; engine::AuditedSource cross-checks them
  /// against the string keys).  Under canonical keys run_stream opts
  /// `source` in to eliding repeats (TestSource::elide_repeats) before
  /// it restores the source and before the first pull, and settles
  /// every elided position as a duplicate; so `source` must be fresh:
  /// run_stream has to see every test it delivers.  A source that
  /// accepts certifies that no class spans two of its program runs, so
  /// a test is novel iff its key is new to its run: the stream holds one
  /// run's keys, and its peak resident set stays O(chunk size) no matter
  /// how long it runs.  Otherwise (structural keys, which never opt in —
  /// a canonical repeat need not be a structural one — or a source that
  /// refuses) an engine::KeySet holds every class's key, 16 bytes each:
  /// O(chunk size + unique classes).  Only a certified stream writes or
  /// resumes a checkpoint; the others seal rows alone.
  ///
  /// The run is a parallel pipeline: a producer thread (not a pool
  /// worker) prefetches the next chunk while the consumer processes the
  /// current one, and fingerprinting fans out across the pool's threads
  /// in contiguous ranges, each with its own scratch tables.  `on_chunk`
  /// runs between the stages, with the pool idle, so it may run batches
  /// on this engine.  A persisted stream captures each seal on the
  /// consumer and writes it on the run's one seal writer thread while
  /// the next chunks stream (store::StreamPersistence); each write is
  /// waited for at the next seal and before the completion's fold, and
  /// the writer thread is joined before run_stream returns or
  /// rethrows.
  /// Streamed results are bit-for-bit deterministic under any thread
  /// count: chunk boundaries come from the single producer, the
  /// consumer claims the keys serially in chunk order, so a class's
  /// first occurrence is its novel test, and novel tests, verdict bits,
  /// and chunk stats are folded in chunk order.
  StreamStats run_stream(const std::vector<core::MemoryModel>& models,
                         TestSource& source, const StreamChunkSink& on_chunk,
                         const StreamOptions& stream_options = {});

  /// Attaches a persistent verdict store (caller-owned, may be null to
  /// detach) that run_matrix then takes the row path against: one probe
  /// per canonical class, the missing cells evaluated, and evaluated
  /// verdicts written back.  Only models with a store column
  /// (custom-free, see store::model_store_key) are stored — the store
  /// holds canonical fingerprints exclusively.  run_rows and run_stream
  /// never read it: they use the store they are given.
  void set_store(store::VerdictStore* store) { store_ = store; }

  /// Stats of the most recent batch.
  [[nodiscard]] const EngineStats& last_stats() const { return last_stats_; }
  /// Stats accumulated over the engine's lifetime.
  [[nodiscard]] const EngineStats& total_stats() const { return total_stats_; }

  /// Threads a batch will actually use (resolves the 0 = hardware
  /// default).
  [[nodiscard]] int effective_threads() const;

 private:
  ThreadPool& pool();
  /// The direct batch (no store, no rows): `want` holds one row of
  /// rows.words_ model words per test, a set bit one check, and the
  /// result holds the verdicts in the same layout, bit m set iff model m
  /// was asked for and allows the test.  Program runs share an Analysis,
  /// each test runs one search per mask class that shares a model with
  /// its want row, and all of it is refilled in the running thread's
  /// workspace; a test with an empty row is not prepared.  Adds the
  /// checks, searches, explicit/SAT split, analyses and eval_seconds to
  /// `stats` and sets its threads_used.
  [[nodiscard]] std::vector<std::uint64_t> evaluate(
      const RowModels& rows, const std::vector<litmus::LitmusTest>& tests,
      const std::vector<std::uint64_t>& want, EngineStats& stats);
  /// Makes `stats` the last batch's and adds it to the lifetime total.
  void record(const EngineStats& stats);
  /// run_stream's per-run state and stage steps (verdict_engine.cpp).
  struct StreamRun;

  EngineOptions options_;
  std::unique_ptr<ThreadPool> pool_;  // created on first use
  store::VerdictStore* store_ = nullptr;    // caller-owned, optional

  EngineStats last_stats_;
  EngineStats total_stats_;
};

}  // namespace mcmc::engine
