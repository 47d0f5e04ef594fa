// The unified batched verdict pipeline.
//
// Every result in the paper reduces to "is this outcome allowed under
// this model?" asked thousands of times.  VerdictEngine owns that loop
// for the whole repository: callers hand it models and tests and get
// back a packed verdict matrix, with the engine handling
//
//   * per-program Analysis construction, done once per run of
//     consecutive evaluated tests that share one program object (the
//     stream's outcomes of a program, copies of a test) and shared
//     across those tests and every model — deduplicated and
//     store-served tests never pay for one,
//   * canonical-test deduplication within a call: symmetric tests
//     (thread-permuted, location-renamed) share one row of verdicts,
//     keyed by litmus::canonical_fingerprint (128-bit, allocation-free;
//     litmus::canonical_key is its audited string form) — models with
//     custom predicates, whose semantics may observe raw
//     thread/location identity, are decided per test instead,
//   * mask-class evaluation: the batch's models are compiled once as a
//     core::FormulaSet, whose masks are written per program in one pass
//     (shared subformulas evaluated once); models with equal masks on a
//     program get equal verdicts on each of its outcomes, so every
//     prepared test (core::PreparedTest: rf maps and HbProblem
//     skeletons, built once per test) runs one search per distinct
//     mask its requested models have, not one per cell,
//   * backend selection per test: the explicit-closure engine, the SAT
//     engine, or adaptive (explicit for small instances, SAT beyond the
//     explicit engine's 64-event bitmask limit, where there are no masks
//     and each cell evaluates its model per event pair),
//   * a work-stealing std::thread pool running one task per program run
//     (analyze, compile masks, then prepare and decide its tests one at
//     a time),
//   * row-level verdict-store traffic (run_rows, the one batch path:
//     run_matrix, the stream, the Theorem harness's sweep and litmusd
//     take it): one store probe per canonical class, one direct batch
//     for the cells the store lacks, one write-back, and
//   * per-batch statistics (cells, checks, searches, dedup and store
//     hits, backend split, wall time).
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

#include "core/checker.h"
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

/// Which admissibility decision procedure evaluates a cell.
enum class Backend {
  Explicit,  ///< core::Engine::Explicit for every cell (<= 64 events)
  Sat,       ///< core::Engine::Sat for every cell
  Adaptive,  ///< Explicit up to the explicit engine's 64 events, Sat above
};

[[nodiscard]] std::string to_string(Backend backend);

/// Parses "explicit" / "sat" / "adaptive" (as used by the bench flags).
[[nodiscard]] bool parse_backend(const std::string& text, Backend& out);

struct EngineOptions {
  Backend backend = Backend::Adaptive;
  /// Total evaluation threads, including the caller; 0 means
  /// std::thread::hardware_concurrency().
  int num_threads = 0;
  /// false: a run_matrix without an attached store decides every cell
  /// through the direct batch, with nothing shared between cells — the
  /// reference setting of the differential tests and of perfbench's
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
  std::size_t explicit_checks = 0; ///< checks decided by the explicit engine
  std::size_t sat_checks = 0;      ///< checks decided by the SAT engine
  std::size_t unique_analyses = 0; ///< Analysis objects built this batch:
                                   ///  one per run of evaluated tests
                                   ///  sharing a program object
                                   ///  (dedup/store hits build none)
  int threads_used = 1;
  double wall_seconds = 0.0;

  EngineStats& operator+=(const EngineStats& other);
  /// One-line rendering for the bench harnesses.
  [[nodiscard]] std::string to_string() const;
};

/// Options for a streaming run (see VerdictEngine::run_stream).
struct StreamOptions {
  /// Overlap chunk production with consumption: a producer thread
  /// (engine::ChunkPrefetcher, dedicated — not a pool worker, so this
  /// engages even for a 1-thread engine) materializes the next chunks
  /// while the pool processes the current one.  Never changes results
  /// (chunk order and boundaries are preserved).
  bool overlap_production = true;
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
/// spent inside the source's next_chunk — with overlap_production it
/// runs concurrently with the other stages, so it is overlap, not
/// critical path.  `wait` is the critical-path share of production:
/// the time the consumer blocked for a chunk the producer thread had
/// not finished (0 without overlap, where produce is all critical
/// path).  `release` is the consumer's share of tearing down the
/// previous chunk before it pulls the next: under overlap the hand-back
/// to the producer thread (ChunkPrefetcher::recycle), whose destruction
/// of the handed-back tests counts in its `produce`; without overlap the
/// whole teardown.
/// `keys` is the parallel fingerprint/claim phase, `dedup` the serial
/// chunk-order ownership resolution, `verdict` the batched evaluation
/// plus delivery, `seal` the checkpoint seals and the completion commit
/// of a persisted stream.
struct StreamStageTimes {
  double produce = 0.0;
  double wait = 0.0;
  double release = 0.0;
  double keys = 0.0;
  double dedup = 0.0;
  double verdict = 0.0;
  double seal = 0.0;

  StreamStageTimes& operator+=(const StreamStageTimes& other);
  [[nodiscard]] std::string to_string() const;
};

/// Accounting for one streamed chunk.
struct StreamChunkStats {
  std::size_t index = 0;      ///< 0-based chunk number
  std::size_t streamed = 0;   ///< tests pulled from the source
  std::size_t novel = 0;      ///< first-of-their-class tests evaluated
  std::size_t duplicates = 0; ///< cross-chunk dedup hits
  std::size_t repeats = 0;    ///< duplicates settled by the source's
                              ///  repeat marks, without keys
  StreamStageTimes stages;    ///< this chunk's per-stage wall breakdown
  EngineStats engine;         ///< engine stats of this chunk's batch
};

/// Accounting for a whole streamed run.
struct StreamStats {
  std::size_t chunks = 0;
  std::size_t tests_streamed = 0;
  std::size_t novel_tests = 0;
  std::size_t duplicate_tests = 0;  ///< cross-chunk dedup hits
  /// Duplicates settled by the source's repeat marks: their keys were
  /// never computed (TestSource::repeat_marks).
  std::size_t repeat_tests = 0;
  StreamStageTimes stages;          ///< accumulated per-stage breakdown
  bool overlapped = false;          ///< producer thread was engaged
  EngineStats engine;               ///< accumulated over chunk batches
  std::size_t commits = 0;          ///< store commits: seals + completion
  /// Bytes those commits wrote.
  std::uint64_t bytes_committed = 0;
  double wall_seconds = 0.0;

  /// Fraction of streamed tests served by the cross-chunk dedup.
  [[nodiscard]] double dedup_rate() const;
  /// Keys-stage cost per streamed test in nanoseconds — the
  /// fingerprint path's scaling number.  bench_exhaustive reports it
  /// per space so the dep-extended run is directly comparable against
  /// the no-dep baseline.  Marked repeats count as streamed tests
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
/// structural ones when the stream dedups structurally), their models
/// x tests verdict matrix, and the chunk accounting.  Duplicate tests
/// are not re-delivered (their verdicts equal an earlier chunk's).
using StreamChunkSink = std::function<void(
    const std::vector<litmus::LitmusTest>& novel_tests,
    const std::vector<util::Key128>& novel_keys, const BitMatrix& verdicts,
    const StreamChunkStats& stats)>;

/// A model list bound to a verdict store for VerdictEngine::run_rows:
/// each model's store column is resolved once, not per call.  Holds
/// references: `models` and `vstore` (caller-owned, may be null) must
/// outlive it.
class RowModels {
 public:
  RowModels(const std::vector<core::MemoryModel>& models,
            store::VerdictStore* vstore);

 private:
  friend class VerdictEngine;

  const std::vector<core::MemoryModel>& models_;
  store::VerdictStore* vstore_;
  std::vector<int> col_;             ///< store column per model, -1: none
  std::vector<char> custom_;         ///< custom predicates: per test
  std::vector<std::uint64_t> want_;  ///< the models' store columns
};

/// Batched, parallel (model, test) verdict evaluation.
class VerdictEngine {
 public:
  explicit VerdictEngine(EngineOptions options = {});
  ~VerdictEngine();

  VerdictEngine(const VerdictEngine&) = delete;
  VerdictEngine& operator=(const VerdictEngine&) = delete;

  /// Evaluates the full `models` x `tests` cross product; bit (m, t) of
  /// the result is the verdict of model `m` on test `t`.  This is
  /// run_rows(RowModels(models, store), tests, {}) with the attached
  /// store (set_store), or none; with cache_enabled off and no store,
  /// every cell is decided by the direct batch instead.
  [[nodiscard]] BitMatrix run_matrix(
      const std::vector<core::MemoryModel>& models,
      const std::vector<litmus::LitmusTest>& tests);

  /// The engine's batch path: the verdict matrix of the models `rows`
  /// binds x `tests`, with tests keyed by `keys`: their canonical
  /// fingerprints (litmus::canonical_fingerprint), parallel to `tests`,
  /// or empty to have them computed here.  Tests with equal keys share
  /// one row: one probe per row of the store `rows` binds (may be null)
  /// under one shared hold, one direct batch for the cells the store
  /// lacks — each custom-free model decided once per row, on its first
  /// test, a custom-predicate model per test — and one write-back under
  /// one exclusive hold of the rows this call added a column to.  A
  /// row's later tests count as dedup hits, whether the store served the
  /// row's cell or it was evaluated.  Throws std::invalid_argument
  /// unless `keys` is empty or as long as `tests`.
  [[nodiscard]] BitMatrix run_rows(const RowModels& rows,
                                   const std::vector<litmus::LitmusTest>& tests,
                                   const std::vector<util::Key128>& keys);

  /// Streaming evaluation: pulls chunks from `source` until exhausted,
  /// evaluates the `models` x chunk product for each, and invokes
  /// `on_chunk` (may be null) after every chunk.  Tests whose canonical
  /// fingerprint appeared earlier in the stream are counted as
  /// duplicates and skipped — the dedup set stores the 128-bit
  /// fingerprints directly (16 bytes per class, no Analysis and no key
  /// string ever materialized; engine::AuditedSource cross-checks them
  /// against the string keys), so the peak resident set stays
  /// O(chunk size + unique classes) no matter how long the stream runs.
  /// Under canonical keys a test the source marks as a repeat
  /// (TestSource::repeat_marks) is settled as a duplicate without
  /// being fingerprinted, so `source` must be fresh or just restored:
  /// run_stream has to see every test it delivers.  Structural keys
  /// ignore the marks (a canonical repeat need not be a structural
  /// one).
  ///
  /// The run is a parallel pipeline: chunk production overlaps with
  /// consumption (overlap_production), fingerprinting fans out across
  /// the work-stealing pool with per-worker scratch tables, and claims
  /// go to a mutex-striped shard set.  Streamed results are bit-for-bit
  /// deterministic under any thread count: chunk boundaries come from
  /// the single producer, within-chunk duplicate resolution picks the
  /// minimum index regardless of claim order, and novel tests, verdict
  /// bits, and chunk stats are folded in chunk order.
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

  [[nodiscard]] const EngineOptions& options() const { return options_; }

  /// Threads a batch will actually use (resolves the 0 = hardware
  /// default).
  [[nodiscard]] int effective_threads() const;

 private:
  /// One cell of a direct batch: indices into the caller's model and
  /// test vectors.
  struct VerdictRequest {
    int model = 0;
    int test = 0;
  };

  [[nodiscard]] core::Engine resolve_backend(int num_events) const;
  WorkStealingPool& pool();
  /// The direct batch: every request is one check (no store, no rows);
  /// program runs share an Analysis, and each test runs one search per
  /// distinct mask its requests ask for.  Adds the checks, searches,
  /// backend split and analyses to `stats` and sets its threads_used.
  [[nodiscard]] std::vector<char> evaluate(
      const std::vector<core::MemoryModel>& models,
      const std::vector<litmus::LitmusTest>& tests,
      const std::vector<VerdictRequest>& requests, EngineStats& stats);
  /// Makes `stats` the last batch's and adds it to the lifetime total.
  void record(const EngineStats& stats);
  /// run_stream's per-run state and stage steps (verdict_engine.cpp).
  struct StreamRun;

  EngineOptions options_;
  std::unique_ptr<WorkStealingPool> pool_;  // created on first use
  store::VerdictStore* store_ = nullptr;    // caller-owned, optional

  EngineStats last_stats_;
  EngineStats total_stats_;
};

}  // namespace mcmc::engine
