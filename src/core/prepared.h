// The prepared-check fast path: hoists everything model-independent out
// of the (model x test) product.
//
// core::is_allowed re-does three things for every (model, test) cell
// that do not depend on the model at all: analyzing the program,
// enumerating the read-from maps consistent with the outcome, and
// instantiating the write-write / read-from / from-read constraints of
// each rf map.  Only the program-order edges — F(x, y) over po pairs —
// vary across models.  PreparedTest performs the shared work once:
//
//   prepare            Analysis + rf enumeration + one HbSkeleton per
//                      rf map (built once, shared by every model),
//   compile            the model's F evaluated over ALL po pairs in a
//                      single formula traversal into per-event 64-bit
//                      row masks (ReorderMask) — not one tree-walk per
//                      pair per rf map per cell,
//   check              base po-closure from the mask, then per skeleton
//                      a frame-local closure DFS with zero heap
//                      allocations per node (closure_search.h).
//
// Verdicts are bit-for-bit identical to core::is_allowed: rf maps are
// visited in enumeration order and the same axioms are instantiated.
// engine::VerdictEngine routes every batch through this path; the
// witness/explanation APIs (core::check, explain_forbidden) keep the
// classic per-cell constructors.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/analysis.h"
#include "core/checker.h"
#include "core/hb.h"
#include "core/model.h"
#include "core/outcome.h"
#include "core/readfrom.h"

namespace mcmc::core {

/// A compiled must-not-reorder function against one analysis: bit y of
/// `rows[x]` is set iff po(x, y) and F(x, y).  Fixed-size so compiling
/// into one performs no heap allocation.
struct ReorderMask {
  int num_events = 0;
  std::array<std::uint64_t, 64> rows{};
};

/// Accounting of prepared checks, aggregated into engine::EngineStats.
struct PreparedCheckStats {
  /// Formula evaluations actually performed: one per compiled matrix
  /// traversal plus one per per-pair fallback (custom predicates or
  /// >64-event analyses).
  std::size_t formula_evals = 0;
  /// Per-pair F evaluations the unprepared per-cell path would have
  /// performed for the same verdict (po pairs x rf maps it would try,
  /// honoring its first-hit early exit).
  std::size_t equivalent_pair_evals = 0;
  /// Skeletons consulted instead of rebuilt.
  std::size_t skeletons_used = 0;

  PreparedCheckStats& operator+=(const PreparedCheckStats& other) {
    formula_evals += other.formula_evals;
    equivalent_pair_evals += other.equivalent_pair_evals;
    skeletons_used += other.skeletons_used;
    return *this;
  }
};

/// One litmus test prepared for checking against many models: the
/// model-independent skeleton of the admissibility question.  Immutable
/// after construction and safe to share across threads.
///
/// The Analysis depends only on the program, the rf maps and skeletons
/// on the outcome too: tests over one program share one Analysis.
class PreparedTest {
 public:
  /// Analyzes `program` (an Analysis of its own) and enumerates the
  /// outcome's rf maps and their skeletons.  The program must outlive
  /// the prepared test (as with Analysis).
  PreparedTest(const Program& program, Outcome outcome);

  /// Adopts a shared analysis of the test's program instead of
  /// analyzing it: the engine builds one Analysis per program and hands
  /// it to the prepared test of every outcome over that program.  The
  /// analyzed program must outlive the analysis (core::analyze_shared
  /// guarantees that by keeping the program alive).
  PreparedTest(std::shared_ptr<const Analysis> analysis, Outcome outcome);

  [[nodiscard]] const Analysis& analysis() const { return *analysis_; }
  [[nodiscard]] const Outcome& outcome() const { return outcome_; }
  /// Rf maps in enumeration order (empty when the outcome is statically
  /// impossible), and their parallel skeletons.
  [[nodiscard]] const std::vector<RfMap>& rf_maps() const { return rf_maps_; }
  [[nodiscard]] const std::vector<HbSkeleton>& skeletons() const {
    return skeletons_;
  }

  /// Compiles the model's F into row masks against this analysis via
  /// one Formula::eval_po_matrix traversal.  Requires
  /// `analysis().masks_valid()`.
  void compile_mask(const MemoryModel& model, ReorderMask& out,
                    PreparedCheckStats* stats = nullptr) const;

  /// Decides whether the outcome is allowed under `model` — the same
  /// verdict as core::is_allowed(analysis, model, outcome, engine).
  /// With Engine::Explicit (<= 64 events) the check is allocation-free.
  [[nodiscard]] bool allowed(const MemoryModel& model,
                             Engine engine = Engine::Explicit,
                             PreparedCheckStats* stats = nullptr) const;

 private:
  [[nodiscard]] bool allowed_explicit(const ReorderMask& mask,
                                      PreparedCheckStats* stats) const;
  [[nodiscard]] bool allowed_via_problems(const MemoryModel& model,
                                          Engine engine,
                                          PreparedCheckStats* stats) const;

  std::shared_ptr<const Analysis> analysis_;
  Outcome outcome_;
  std::vector<RfMap> rf_maps_;
  std::vector<HbSkeleton> skeletons_;
};

}  // namespace mcmc::core
