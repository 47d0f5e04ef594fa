#include "core/prepared.h"

#include <cstddef>
#include <utility>

#include "core/checker.h"
#include "core/closure_search.h"
#include "util/check.h"

namespace mcmc::core {

PreparedTest::PreparedTest(const Program& program, Outcome outcome)
    : owned_(std::make_unique<const Analysis>(program)) {
  prepare(*owned_, outcome);
}

void PreparedTest::prepare(const Analysis& analysis, const Outcome& outcome) {
  analysis_ = &analysis;
  outcome_ = outcome;
  rf_.clear();
  forced_.clear();
  disjunctions_.clear();
  maps_.clear();
  const std::size_t count = enumerate_read_from(analysis, outcome, rf_);
  const auto n = static_cast<std::size_t>(analysis.num_events());
  for (std::size_t m = 0; m < count; ++m) {
    Skeleton skel;
    skel.infeasible =
        build_hb_skeleton(analysis, rf_.data() + m * n, forced_, disjunctions_);
    skel.forced_end = forced_.size();
    skel.disjunctions_end = disjunctions_.size();
    maps_.push_back(skel);
  }
}

const EventId* PreparedTest::rf_map(std::size_t m) const {
  MCMC_REQUIRE(m < maps_.size());
  return rf_.data() + m * static_cast<std::size_t>(analysis_->num_events());
}

bool PreparedTest::allowed(const MemoryModel& model) const {
  if (maps_.empty()) return false;
  if (!analysis_->masks_valid()) return allowed_via_problems(model);
  std::vector<ReorderMask> mask;
  std::vector<std::uint64_t> scratch;
  FormulaSet({model.formula()}).compile(*analysis_, mask, scratch);
  return allowed(mask.front());
}

bool PreparedTest::allowed(const ReorderMask& mask) const {
  MCMC_REQUIRE_MSG(mask.num_events == analysis_->num_events(),
                   "mask compiled against another analysis");
  if (maps_.empty()) return false;
  const int n = analysis_->num_events();
  detail::ClosureSearch search(n);
  // Base closure over the model's program-order edges, built once and
  // copied per rf map (the skeletons differ, the po overlay does not).
  detail::Reach64 base;
  base.clear(n);
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

  std::size_t forced = 0;
  std::size_t disjunctions = 0;
  for (const Skeleton& skel : maps_) {
    const std::size_t forced_begin = std::exchange(forced, skel.forced_end);
    const std::size_t disjunctions_begin =
        std::exchange(disjunctions, skel.disjunctions_end);
    if (skel.infeasible) continue;
    detail::Reach64 reach;
    reach.copy(base, n);
    bool ok = true;
    for (std::size_t i = forced_begin; i < skel.forced_end; ++i) {
      if (!search.add_edge(reach, forced_[i].first, forced_[i].second)) {
        ok = false;
        break;
      }
    }
    if (ok && search.solve(reach, disjunctions_.data() + disjunctions_begin,
                           skel.disjunctions_end - disjunctions_begin)) {
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
  std::size_t forced = 0;
  std::size_t disjunctions = 0;
  for (const Skeleton& skel : maps_) {
    const auto forced_begin = static_cast<std::ptrdiff_t>(
        std::exchange(forced, skel.forced_end));
    const auto disjunctions_begin = static_cast<std::ptrdiff_t>(
        std::exchange(disjunctions, skel.disjunctions_end));
    if (skel.infeasible) continue;
    HbProblem p;
    p.num_events = n;
    p.forced = po_forced;
    p.forced.insert(p.forced.end(), forced_.begin() + forced_begin,
                    forced_.begin() +
                        static_cast<std::ptrdiff_t>(skel.forced_end));
    p.disjunctions.assign(
        disjunctions_.begin() + disjunctions_begin,
        disjunctions_.begin() +
            static_cast<std::ptrdiff_t>(skel.disjunctions_end));
    if (hb_satisfiable(p, Engine::Sat)) return true;
  }
  return false;
}

}  // namespace mcmc::core
