// The unified batched verdict pipeline.
//
// Every result in the paper reduces to "is this outcome allowed under
// this model?" asked thousands of times.  VerdictEngine owns that loop
// for the whole repository: callers hand it a batch of (model, test)
// cells and get back a packed verdict matrix, with the engine handling
//
//   * per-test Analysis construction, done once per test that actually
//     reaches evaluation and shared across models — deduplicated and
//     cache-served tests never pay for one,
//   * canonical-test deduplication: symmetric tests (thread-permuted,
//     location-renamed) share verdicts through a persistent cache keyed
//     by litmus::canonical_fingerprint (128-bit, allocation-free;
//     litmus::canonical_key is its audited string form) — falling back
//     to structural fingerprints for models with custom predicates,
//     whose semantics may observe raw thread/location identity,
//   * the prepared-check fast path (core::PreparedTest): per-test rf
//     enumeration and HbProblem skeletons built once and shared across
//     every model and worker thread, with the model's must-not-reorder
//     formula compiled into per-event bitmask rows per cell instead of
//     re-walked per event pair per rf map,
//   * backend selection per cell: the explicit-closure engine, the SAT
//     engine, or adaptive (explicit for small instances, SAT beyond the
//     explicit engine's 64-event bitmask limit),
//   * a work-stealing std::thread pool parallelizing across cells, and
//   * per-batch statistics (checks run, cache hits, backend split,
//     formula evaluations saved, wall time).
//
// explore::AdmissibilityMatrix, model fingerprinting, the examples, and
// the bench sweeps all route through this engine.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/checker.h"
#include "core/model.h"
#include "core/prepared.h"
#include "engine/bit_matrix.h"
#include "engine/test_stream.h"
#include "engine/thread_pool.h"
#include "litmus/test.h"
#include "util/hash128.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace mcmc::store {
class VerdictStore;
struct StreamPersistence;
}  // namespace mcmc::store

namespace mcmc::engine {

/// Which admissibility decision procedure evaluates a cell.
enum class Backend {
  Explicit,  ///< core::Engine::Explicit for every cell (<= 64 events)
  Sat,       ///< core::Engine::Sat for every cell
  Adaptive,  ///< Explicit below `sat_event_threshold` events, Sat above
};

[[nodiscard]] std::string to_string(Backend backend);

/// Parses "explicit" / "sat" / "adaptive" (as used by the bench flags).
[[nodiscard]] bool parse_backend(const std::string& text, Backend& out);

struct EngineOptions {
  Backend backend = Backend::Adaptive;
  /// Total evaluation threads, including the caller; 0 means
  /// std::thread::hardware_concurrency().
  int num_threads = 0;
  /// Master switch for the verdict cache (both within-batch dedup and
  /// the persistent cross-batch map).
  bool cache_enabled = true;
  /// Use canonical keys (thread-permutation / location-renaming
  /// invariant) where sound; structural keys otherwise.  Disabling
  /// keeps only exact structural dedup.
  bool canonical_dedup = true;
  /// Adaptive backend: instances with more events than this go to SAT.
  /// The explicit engine's transitive-closure bitmasks cap it at 64.
  int sat_event_threshold = 64;
  /// Route checks through the prepared fast path (core::PreparedTest:
  /// shared rf enumeration + skeletons, compiled reorder masks,
  /// allocation-free explicit search).  Off = the PR-1 per-cell
  /// core::is_allowed loop, kept for benchmarking and differential
  /// testing; verdicts are bit-for-bit identical either way.
  bool prepared = true;
};

/// One cell of a batch: indices into the caller's model and test vectors.
struct VerdictRequest {
  int model = 0;
  int test = 0;
};

/// Per-batch accounting (also accumulated across an engine's lifetime).
struct EngineStats {
  std::size_t cells = 0;           ///< verdicts requested
  std::size_t checks_run = 0;      ///< core::is_allowed invocations
  std::size_t cache_hits = 0;      ///< served by the persistent cache
  std::size_t dedup_hits = 0;      ///< shared within the batch via keys
  std::size_t store_hits = 0;      ///< served by the attached verdict store
  std::size_t store_misses = 0;    ///< store probes that found nothing
  std::size_t explicit_checks = 0; ///< checks decided by the explicit engine
  std::size_t sat_checks = 0;      ///< checks decided by the SAT engine
  std::size_t unique_analyses = 0; ///< Analysis constructions this batch
                                   ///  (tests reaching evaluation only:
                                   ///  dedup/cache hits build none)

  // Prepared-path accounting (zero when EngineOptions::prepared is off).
  std::size_t rf_enums_saved = 0;  ///< enumerate_read_from calls avoided
                                   ///  vs one-per-check (checks minus
                                   ///  distinct tests evaluated)
  std::size_t skeletons_reused = 0;///< skeleton consultations beyond each
                                   ///  prepared test's first build
  std::size_t formula_evals = 0;   ///< formula evaluations run: compiled
                                   ///  matrix traversals + per-pair
                                   ///  fallbacks (custom predicates,
                                   ///  >64-event analyses)
  std::size_t formula_evals_saved = 0; ///< per-pair F evaluations the
                                   ///  per-cell path would have run,
                                   ///  minus the evaluations above

  int threads_used = 1;
  double wall_seconds = 0.0;

  EngineStats& operator+=(const EngineStats& other);
  /// One-line rendering for the bench harnesses.
  [[nodiscard]] std::string to_string() const;
};

/// Options for a streaming run (see VerdictEngine::run_stream).
struct StreamOptions {
  /// Skip tests whose dedup key was already seen earlier in the stream
  /// (canonical keys, or structural keys when any model's formula has
  /// custom predicates).  Duplicates are counted, not re-evaluated or
  /// re-delivered: a duplicate's verdicts equal its first
  /// occurrence's, so downstream aggregation loses nothing.
  bool dedup_across_chunks = true;
  /// Overlap chunk production with consumption: a producer thread
  /// (engine::ChunkPrefetcher, dedicated — not a pool worker, so this
  /// engages even for a 1-thread engine) materializes the next chunks
  /// while the pool processes the current one.  Never changes results
  /// (chunk order and boundaries are preserved).
  bool overlap_production = true;
  /// Mutex stripes of the cross-chunk dedup set (rounded up to a power
  /// of two); 0 means the default (ShardedKeySet::kDefaultShards).
  int dedup_shards = 0;
  /// Fingerprint audit: additionally compute every test's legacy string
  /// key (building the Analysis the fingerprint path skips) and verify,
  /// both directions, that fingerprint equality coincides with string
  /// key equality — a fingerprint collision between distinct keys or
  /// two fingerprints for one key throws mid-stream.  This re-adds the
  /// per-test Analysis plus O(classes x key length) memory the
  /// fingerprint path removed, so it is for tests (the slow full-space
  /// run proves the whole 5.16M-test matrix is collision-free), not
  /// production streams.
  bool audit_dedup_keys = false;
  /// Force structural dedup keys even when every streamed model is
  /// custom-free.  Callers that reuse the delivered verdicts beyond the
  /// streamed models (e.g. the extremes-prefiltered Theorem harness,
  /// which sweeps a different model set over the novel tests) must set
  /// this when any of *those* models carries custom predicates —
  /// canonical sharing is unsound for them.
  bool force_structural_keys = false;
  /// Feed the novel verdicts into the engine's persistent verdict
  /// cache.  Off by default: a million-test stream against 90 models
  /// would pin |models| x |unique tests| cache entries, while the
  /// seen-key filter above already provides cross-chunk sharing at
  /// O(unique tests) memory.
  bool persist_verdicts = false;
  /// Persistent verdict store consulted per novel test (caller-owned,
  /// may be null).  When every streamed model has a store column and
  /// the stream dedups by canonical fingerprints, only the cells the
  /// store lacks are evaluated — a test whose full verdict row is
  /// present skips evaluation entirely — and evaluated cells are
  /// written back; this is what makes a warm rerun serve from disk.
  /// Ignored under structural keys (the store holds canonical
  /// fingerprints only).
  store::VerdictStore* verdict_store = nullptr;
  /// Chunk-granular checkpoint/resume of the stream into
  /// `verdict_store` (null = no checkpointing; requires
  /// `verdict_store`).  See store::StreamPersistence.
  const store::StreamPersistence* persistence = nullptr;
};

/// Per-stage wall time of the streaming pipeline.  `produce` is time
/// spent inside the source's next_chunk — with overlap_production it
/// runs concurrently with the other stages, so it is overlap, not
/// critical path.  `keys` is the parallel fingerprint/claim phase,
/// `dedup` the serial chunk-order ownership resolution, `verdict` the
/// batched evaluation plus delivery, `seal` the checkpoint seals and
/// the completion commit of a persisted stream.
struct StreamStageTimes {
  double produce = 0.0;
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
  StreamStageTimes stages;    ///< this chunk's per-stage wall breakdown
  EngineStats engine;         ///< engine stats of this chunk's batch
};

/// Accounting for a whole streamed run.
struct StreamStats {
  std::size_t chunks = 0;
  std::size_t tests_streamed = 0;
  std::size_t novel_tests = 0;
  std::size_t duplicate_tests = 0;  ///< cross-chunk dedup hits
  StreamStageTimes stages;          ///< accumulated per-stage breakdown
  int dedup_shards = 0;             ///< stripes of the cross-chunk set
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
  /// the no-dep baseline.
  [[nodiscard]] double keys_ns_per_test() const {
    return tests_streamed == 0
               ? 0.0
               : stages.keys * 1e9 / static_cast<double>(tests_streamed);
  }
  [[nodiscard]] std::string to_string() const;
};

/// Per-chunk delivery: the chunk's novel tests, their models x tests
/// verdict matrix, and the chunk accounting.  Duplicate tests are not
/// re-delivered (their verdicts equal an earlier chunk's).
using StreamChunkSink = std::function<void(
    const std::vector<litmus::LitmusTest>& novel_tests,
    const BitMatrix& verdicts, const StreamChunkStats& stats)>;

/// Batched, parallel, cached (model, test) verdict evaluation.
class VerdictEngine {
 public:
  explicit VerdictEngine(EngineOptions options = {});
  ~VerdictEngine();

  VerdictEngine(const VerdictEngine&) = delete;
  VerdictEngine& operator=(const VerdictEngine&) = delete;

  /// Evaluates the full `models` x `tests` cross product; bit (m, t) of
  /// the result is the verdict of model `m` on test `t`.
  [[nodiscard]] BitMatrix run_matrix(
      const std::vector<core::MemoryModel>& models,
      const std::vector<litmus::LitmusTest>& tests);

  /// Evaluates an arbitrary batch of cells; `result[i]` is the verdict
  /// for `requests[i]`.  Request indices must lie within the vectors.
  [[nodiscard]] std::vector<char> run_batch(
      const std::vector<core::MemoryModel>& models,
      const std::vector<litmus::LitmusTest>& tests,
      const std::vector<VerdictRequest>& requests);

  /// Single-cell convenience; still goes through the cache.
  [[nodiscard]] bool allowed(const core::MemoryModel& model,
                             const litmus::LitmusTest& test);

  /// Streaming evaluation: pulls chunks from `source` until exhausted,
  /// evaluates the `models` x chunk product for each, and invokes
  /// `on_chunk` (may be null) after every chunk.  With
  /// StreamOptions::dedup_across_chunks (the default), tests whose
  /// canonical fingerprint appeared in an earlier chunk are counted as
  /// duplicates and skipped — the dedup set stores the 128-bit
  /// fingerprints directly (16 bytes per class, no Analysis and no key
  /// string ever materialized; auditable via audit_dedup_keys), so the
  /// peak resident set stays O(chunk size + unique classes) no matter
  /// how long the stream runs.
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
  /// detach) consulted by every grouped batch: a (model, test-class)
  /// pair missing the in-memory cache probes the store before
  /// evaluating, and evaluated verdicts are written back.  Only models
  /// with a store column (custom-free, see store::model_store_key)
  /// participate, and only under canonical dedup — the store holds
  /// canonical fingerprints exclusively.
  void set_store(store::VerdictStore* store) { store_ = store; }
  [[nodiscard]] store::VerdictStore* store() const { return store_; }

  /// Stats of the most recent batch.
  [[nodiscard]] const EngineStats& last_stats() const { return last_stats_; }
  /// Stats accumulated over the engine's lifetime.
  [[nodiscard]] const EngineStats& total_stats() const { return total_stats_; }

  [[nodiscard]] const EngineOptions& options() const { return options_; }
  [[nodiscard]] std::size_t cache_size() const;
  void clear_cache();

  /// Threads a batch will actually use (resolves the 0 = hardware
  /// default).
  [[nodiscard]] int effective_threads() const;

 private:
  [[nodiscard]] core::Engine resolve_backend(int num_events) const;
  WorkStealingPool& pool();
  /// run_batch with control over the cache layer.  `persist_verdicts`
  /// gates the persistent-cache writes; `use_cache` false skips
  /// fingerprint computation, interning, and lookups entirely — the
  /// streaming path passes it for batches whose tests its canonical
  /// seen-key filter already proved unique (no within-batch group could
  /// ever merge, so re-deriving fingerprints would be pure overhead).
  /// `premade_analyses`, when given, is aligned with `tests`; entries
  /// present are adopted (moved from) instead of re-analyzing — the
  /// streaming audit mode hands over the analyses it built for the
  /// legacy-key cross-check.
  [[nodiscard]] std::vector<char> run_batch_impl(
      const std::vector<core::MemoryModel>& models,
      const std::vector<litmus::LitmusTest>& tests,
      const std::vector<VerdictRequest>& requests, bool persist_verdicts,
      bool use_cache = true,
      std::vector<std::unique_ptr<core::Analysis>>* premade_analyses =
          nullptr);
  [[nodiscard]] BitMatrix run_matrix_impl(
      const std::vector<core::MemoryModel>& models,
      const std::vector<litmus::LitmusTest>& tests, bool persist_verdicts,
      bool use_cache = true);

  EngineOptions options_;
  std::unique_ptr<WorkStealingPool> pool_;  // created on first parallel batch
  store::VerdictStore* store_ = nullptr;    // caller-owned, optional

  mutable util::Mutex cache_mu_;
  /// model key -> (test fingerprint -> verdict).  Two-level so a batch
  /// resolves each model key string once; the inner map is keyed by the
  /// 128-bit canonical/structural fingerprint, so no per-test key
  /// string is ever materialized or retained.
  std::unordered_map<std::string,
                     std::unordered_map<util::Key128, bool, util::Key128Hash>>
      cache_ GUARDED_BY(cache_mu_);
  /// Custom-predicate formulas are cache-keyed by their node address;
  /// retaining a copy pins the node so the address cannot be recycled
  /// by a different formula while its verdicts are cached.
  std::vector<core::Formula> pinned_custom_formulas_ GUARDED_BY(cache_mu_);
  std::unordered_set<const void*> pinned_ids_ GUARDED_BY(cache_mu_);

  EngineStats last_stats_;
  EngineStats total_stats_;
};

}  // namespace mcmc::engine
