// Pairwise model distinguishability over arbitrary corpora — the
// empirical form of Theorem 1 / Corollary 1.
//
// The paper's central claim is an equivalence of distinguishing power:
// any two models of the class that disagree on *some* test within the
// Theorem-1 bounds disagree on a test of the (tiny) Corollary-1 suite.
// This header makes that claim executable: a DistinguishMatrix records,
// for every model pair, whether ANY test of a corpus separates the
// pair, and two matrices built from different corpora — the ~5-million
// test naive space streamed chunk by chunk, and the 64/124-test
// suite — can be compared bit for bit.
//
// Streamed construction never materializes the corpus: chunks flow
// through engine::VerdictEngine::run_stream — the parallel pipeline
// whose producer thread prefetches one chunk ahead, fans canonical-key
// computation across the engine's thread pool, and dedups by 128-bit
// key hash in chunk order (the report's stream.stages carries the
// produce/keys/dedup/verdict wall breakdown) — each novel test's
// 90-bit verdict column (its row of the tests x models matrix the
// engine delivers) is folded into the pair matrix in chunk order
// (bit-for-bit deterministic under any thread count), and only
// distinct verdict columns pay the quadratic pair sweep.  For
// monotone model classes an extremes prefilter
// evaluates each novel test against the weakest (F = false) and
// strongest (F = true) models of the class first and runs the full
// model sweep only on tests that are allowed by the former and
// forbidden by the latter — every other test receives the same verdict
// from every model in between and cannot distinguish anything.  The
// sweep runs between the stream's chunks, on the caller's engine.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/model.h"
#include "engine/bit_matrix.h"
#include "engine/test_stream.h"
#include "engine/verdict_engine.h"
#include "litmus/test.h"
#include "store/verdict_store.h"

namespace mcmc::explore {

/// Symmetric model-pair matrix: bit (a, b) is set iff some corpus test
/// received different verdicts from models a and b.
class DistinguishMatrix {
 public:
  DistinguishMatrix() = default;
  explicit DistinguishMatrix(int num_models);
  /// The pairs a models x tests verdict matrix splits: models a and b
  /// are distinguished iff their verdict rows differ.
  explicit DistinguishMatrix(const engine::BitMatrix& verdicts);

  [[nodiscard]] int num_models() const { return bits_.rows(); }

  [[nodiscard]] bool distinguished(int a, int b) const;

  /// Distinguished pairs over a < b.
  [[nodiscard]] long long distinguished_pairs() const;

  /// Folds one verdict column, (num_models() + 63) / 64 words (bit m =
  /// model m's verdict on one test): every pair the column splits
  /// becomes distinguished.
  void fold_column(const std::uint64_t* column);

  /// True iff every pair distinguished here is distinguished in `other`.
  [[nodiscard]] bool subset_of(const DistinguishMatrix& other) const;

  /// Pairs distinguished here but not in `other` (empty iff subset_of).
  [[nodiscard]] std::vector<std::pair<int, int>> pairs_beyond(
      const DistinguishMatrix& other) const;

  friend bool operator==(const DistinguishMatrix& a,
                         const DistinguishMatrix& b) {
    return a.bits_ == b.bits_;
  }
  friend bool operator!=(const DistinguishMatrix& a,
                         const DistinguishMatrix& b) {
    return !(a == b);
  }

 private:
  engine::BitMatrix bits_;
};

/// Distinguishability of `models` over an in-memory corpus: one batched
/// engine run (run_matrix), then a comparison of its model rows.
[[nodiscard]] DistinguishMatrix distinguishability(
    engine::VerdictEngine& eng, const std::vector<core::MemoryModel>& models,
    const std::vector<litmus::LitmusTest>& tests);

/// The monotone-class extremes the prefilter streams against: the
/// weakest model (F = false, everything SC-or-weaker admissible) and
/// the strongest (F = true, SC).  Exposed so callers can size a
/// verdict store that covers both harness phases.
[[nodiscard]] std::vector<core::MemoryModel> extreme_models();

/// Store metadata covering a full harness run over `models`: one column
/// per extreme (the prefilter stream) plus one per swept model.  A
/// store opened with this meta is shared by both phases, so a warm
/// rerun serves the extremes verdicts AND the candidate sweep from
/// disk.  Models with custom predicates contribute no column (see
/// store::model_store_key) and simply never hit.
[[nodiscard]] store::StoreMeta harness_store_meta(
    const std::vector<core::MemoryModel>& models);

/// Options of the streamed Theorem-1 harness; its stream's options are
/// built from these and from its models' custom predicates.
struct TheoremHarnessOptions {
  /// Monotone-class extremes prefilter (see the header comment).  The
  /// paper's class is monotone: a pointwise-stronger must-not-reorder
  /// function only adds forced edges, so it only removes admissible
  /// executions; allowed(F=true) <= allowed(F) <= allowed(F=false) for
  /// every F, custom predicates included.  Disable for a direct full
  /// sweep (the differential tests do).
  bool filter_extremes = true;
  /// Persistent verdict store shared by the prefilter stream and the
  /// candidate sweep (caller-owned, may be null).  Open it with
  /// harness_store_meta(models) so both phases find their columns.
  store::VerdictStore* verdict_store = nullptr;
  /// Chunk-granular checkpoint/resume of the harness (requires
  /// `verdict_store`; null = off).  The caller sets path / fs /
  /// cadence / resume / kill hooks; the harness installs its own
  /// save_sink and restore_sink (overwriting any caller-set hooks) to
  /// carry the fold state — distinct verdict columns plus the prefilter
  /// counters — alongside the stream cursor, so a killed run resumes
  /// bit-for-bit without re-sweeping sealed chunks.
  const store::StreamPersistence* persistence = nullptr;
};

/// Accounting of a streamed harness run.
struct TheoremHarnessReport {
  engine::StreamStats stream;       ///< chunks, dedup, per-stage breakdown
  std::size_t candidate_tests = 0;  ///< survived the extremes prefilter
  std::size_t filtered_tests = 0;   ///< pruned by it (cannot distinguish)
  std::size_t verdict_columns = 0;  ///< distinct verdict columns folded
  engine::EngineStats sweep;        ///< the full-model sweep batches
  double sweep_seconds = 0.0;       ///< wall spent in the candidate sweep
};

/// Per-chunk progress callback (chunk stats come from the stream run).
using ChunkProgress = std::function<void(const engine::StreamChunkStats&)>;

/// Streamed distinguishability of `models` over `source`; `eng` runs
/// the stream and the sweep, so its total_stats() grow by both.  Peak
/// memory is O(chunk + unique canonical keys + distinct verdict
/// columns) regardless of corpus size.
[[nodiscard]] DistinguishMatrix distinguishability_streamed(
    engine::VerdictEngine& eng, const std::vector<core::MemoryModel>& models,
    engine::TestSource& source, const TheoremHarnessOptions& options = {},
    TheoremHarnessReport* report = nullptr,
    const ChunkProgress& progress = nullptr);

}  // namespace mcmc::explore
