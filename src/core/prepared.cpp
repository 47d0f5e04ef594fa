#include "core/prepared.h"

#include "core/checker.h"
#include "core/closure_search.h"
#include "util/check.h"

namespace mcmc::core {

PreparedTest::PreparedTest(const Program& program, Outcome outcome)
    : PreparedTest(std::make_shared<const Analysis>(program),
                   std::move(outcome)) {}

PreparedTest::PreparedTest(std::shared_ptr<const Analysis> analysis,
                           Outcome outcome)
    : analysis_(std::move(analysis)), outcome_(std::move(outcome)) {
  MCMC_REQUIRE(analysis_ != nullptr);
  rf_maps_ = enumerate_read_from(*analysis_, outcome_);
  skeletons_.reserve(rf_maps_.size());
  for (const RfMap& rf : rf_maps_) {
    skeletons_.push_back(build_hb_skeleton(*analysis_, rf));
  }
}

bool PreparedTest::allowed(const MemoryModel& model) const {
  if (rf_maps_.empty()) return false;
  if (!analysis_->masks_valid()) return allowed_via_problems(model);
  std::vector<ReorderMask> mask;
  std::vector<std::uint64_t> scratch;
  FormulaSet({model.formula()}).compile(*analysis_, mask, scratch);
  return allowed(mask.front());
}

bool PreparedTest::allowed(const ReorderMask& mask) const {
  MCMC_REQUIRE_MSG(mask.num_events == analysis_->num_events(),
                   "mask compiled against another analysis");
  if (rf_maps_.empty()) return false;
  const int n = analysis_->num_events();
  detail::ClosureSearch search(n);
  // Base closure over the model's program-order edges, built once and
  // copied per rf map (the skeletons differ, the po overlay does not).
  detail::Reach64 base;
  base.clear();
  for (EventId x = 0; x < n; ++x) {
    std::uint64_t row = mask.rows[static_cast<std::size_t>(x)];
    while (row != 0) {
      const int y = __builtin_ctzll(row);
      row &= row - 1;
      // Program order is acyclic and nothing is forbidden yet, so the
      // closure cannot fail here.
      MCMC_CHECK(search.add_edge(base, x, y));
    }
  }

  for (const HbSkeleton& skel : skeletons_) {
    if (skel.infeasible) continue;
    detail::Reach64 reach = base;
    bool ok = true;
    for (const auto& [x, y] : skel.forced) {
      if (!search.add_edge(reach, x, y)) {
        ok = false;
        break;
      }
    }
    if (ok && search.solve(reach, skel.disjunctions.data(),
                           skel.disjunctions.size())) {
      return true;
    }
  }
  return false;
}

bool PreparedTest::allowed_via_problems(const MemoryModel& model) const {
  // Beyond 64 events there are no bitmask rows (and the explicit engine's
  // closure rows hold no more); evaluate F per pair once (still hoisted
  // out of the per-rf-map loop), share the edge list, and solve by SAT.
  const int n = analysis_->num_events();
  std::vector<Edge> po_forced;
  for (EventId x = 0; x < n; ++x) {
    for (EventId y = 0; y < n; ++y) {
      if (x == y || !analysis_->po(x, y)) continue;
      if (model.must_not_reorder(*analysis_, x, y)) {
        po_forced.emplace_back(x, y);
      }
    }
  }
  for (const HbSkeleton& skel : skeletons_) {
    if (skel.infeasible) continue;
    HbProblem p;
    p.num_events = n;
    p.forced = po_forced;
    p.forced.insert(p.forced.end(), skel.forced.begin(), skel.forced.end());
    p.disjunctions = skel.disjunctions;
    if (hb_satisfiable(p, Engine::Sat)) return true;
  }
  return false;
}

}  // namespace mcmc::core
