// The prepared-check fast path: hoists everything model-independent out
// of the (model x test) product.
//
// core::is_allowed re-does three things for every (model, test) cell
// that do not depend on the model at all: analyzing the program,
// enumerating the read-from maps consistent with the outcome, and
// instantiating the write-write / read-from / from-read constraints of
// each rf map.  Only the program-order edges — F(x, y) over po pairs —
// vary across models, and only through the reorder mask F induces on
// the program.  The work splits accordingly:
//
//   prepare            PreparedTest: rf enumeration + one HbSkeleton per
//                      rf map over an Analysis, built once and shared by
//                      every model, into flat arrays (the maps, all
//                      forced edges, all disjunctions, with per-map
//                      offsets) that prepare() refills in place,
//   compile            FormulaSet (formula.h): every model's F over ALL
//                      po pairs of the program at once, with shared
//                      subformulas evaluated once, into per-event 64-bit
//                      row masks (ReorderMask) — models whose masks are
//                      equal get the same verdict on every outcome of
//                      the program,
//   check              allowed(mask): base po-closure from the mask, then
//                      per skeleton a frame-local closure DFS with zero
//                      heap allocations per node (closure_search.h).
//
// The test's size picks the decision procedure: masks and the explicit
// search up to the 64 events a mask row holds (Analysis::masks_valid),
// and beyond that F evaluated per po pair and the SAT engine.
//
// Verdicts are bit-for-bit identical to core::is_allowed: rf maps are
// visited in enumeration order and the same axioms are instantiated.
// engine::VerdictEngine routes every batch through this path, each of
// its threads refilling one Analysis per program run and one
// PreparedTest per test; the witness/explanation APIs (core::check,
// explain_forbidden) keep the classic per-cell constructors.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "core/analysis.h"
#include "core/hb.h"
#include "core/model.h"
#include "core/outcome.h"
#include "core/readfrom.h"

namespace mcmc::core {

/// One litmus test prepared for checking against many models: the
/// model-independent skeleton of the admissibility question.  Safe to
/// share across threads while no one re-prepares it.
///
/// The Analysis depends only on the program, the rf maps and skeletons
/// on the outcome too: tests over one program share one Analysis.  The
/// engine's workers each keep one PreparedTest and re-prepare it for
/// every test against their reused Analysis (prepare): once its arrays
/// have grown to the largest test seen, preparing allocates nothing.
class PreparedTest {
 public:
  /// A prepared test of nothing; prepare() fills it.
  PreparedTest() = default;

  /// Analyzes `program` (an Analysis of its own) and enumerates the
  /// outcome's rf maps and their skeletons.  The program must outlive
  /// the prepared test (as with Analysis).
  PreparedTest(const Program& program, Outcome outcome);

  /// Prepares `outcome` over `analysis` in place of the current test,
  /// reusing this object's storage.  `analysis` must outlive every use
  /// of the prepared test until the next prepare().
  void prepare(const Analysis& analysis, const Outcome& outcome);

  [[nodiscard]] const Analysis& analysis() const { return *analysis_; }
  [[nodiscard]] const Outcome& outcome() const { return outcome_; }
  /// Rf maps in enumeration order (none when the outcome is statically
  /// impossible); map `m` is analysis().num_events() entries laid out as
  /// an RfMap.
  [[nodiscard]] std::size_t num_rf_maps() const { return maps_.size(); }
  [[nodiscard]] const EventId* rf_map(std::size_t m) const;

  /// Decides whether the outcome is allowed under the model whose mask
  /// against analysis() is `mask` (FormulaSet::compile) — the same
  /// verdict as core::is_allowed for that model — by the explicit
  /// closure search, with no heap allocation.
  [[nodiscard]] bool allowed(const ReorderMask& mask) const;

  /// Decides whether the outcome is allowed under `model` — the same
  /// verdict as core::is_allowed.  Up to 64 events it compiles the
  /// model's mask (a FormulaSet of one) and searches explicitly; beyond
  /// that no mask exists, so F is evaluated per po pair and each rf
  /// map's problem goes to the SAT engine.
  [[nodiscard]] bool allowed(const MemoryModel& model) const;

 private:
  /// Where one rf map's skeleton ends in forced_ and disjunctions_ (it
  /// starts where the previous map's ends).
  struct Skeleton {
    std::size_t forced_end = 0;
    std::size_t disjunctions_end = 0;
    bool infeasible = false;
  };

  [[nodiscard]] bool allowed_via_problems(const MemoryModel& model) const;

  std::unique_ptr<const Analysis> owned_;  ///< the program constructor's
  const Analysis* analysis_ = nullptr;
  Outcome outcome_;
  std::vector<EventId> rf_;                    ///< the maps, back to back
  std::vector<Edge> forced_;                   ///< every skeleton's, in order
  std::vector<EdgeDisjunction> disjunctions_;  ///< every skeleton's
  std::vector<Skeleton> maps_;                 ///< one per rf map
};

}  // namespace mcmc::core
