#include "enumeration/suite.h"

#include <utility>

#include "core/model.h"
#include "engine/verdict_engine.h"
#include "enumeration/segment.h"
#include "enumeration/templates.h"

namespace mcmc::enumeration {

long long corollary1_bound(bool with_deps) {
  const long long n_rr = segment_count(SegType::RR, with_deps);
  const long long n_rw = segment_count(SegType::RW, with_deps);
  const long long n_wr = segment_count(SegType::WR, with_deps);
  const long long n_ww = segment_count(SegType::WW, with_deps);
  return n_rw + n_ww + n_rr * (n_ww + n_wr * n_rw) +
         n_wr * (1 + n_rr + n_rw);
}

namespace {

enum class Case { C1, C2, C3a, C3b, C4, C5a, C5b };

/// Every compatible template instantiation, tagged with its case.
std::vector<std::pair<Case, litmus::LitmusTest>> generate_all(bool with_deps) {
  std::vector<std::pair<Case, litmus::LitmusTest>> out;
  const auto rrs = segments_of_type(SegType::RR, with_deps);
  const auto rws = segments_of_type(SegType::RW, with_deps);
  const auto wrs = segments_of_type(SegType::WR, with_deps);
  const auto wws = segments_of_type(SegType::WW, with_deps);

  auto take = [&out](Case c, std::optional<litmus::LitmusTest> t) {
    if (t.has_value()) out.emplace_back(c, std::move(*t));
  };

  for (const auto& rw : rws) take(Case::C1, case1(rw));
  for (const auto& ww : wws) take(Case::C2, case2(ww));
  for (const auto& rr : rrs) {
    for (const auto& ww : wws) take(Case::C3a, case3a(rr, ww));
  }
  for (const auto& rr : rrs) {
    for (const auto& wr : wrs) {
      for (const auto& rw : rws) take(Case::C3b, case3b(rr, wr, rw));
    }
  }
  for (const auto& wr : wrs) take(Case::C4, case4(wr));
  for (const auto& wr : wrs) {
    for (const auto& rr : rrs) take(Case::C5a, case5a(wr, rr));
  }
  for (const auto& wr : wrs) {
    for (const auto& rw : rws) take(Case::C5b, case5b(wr, rw));
  }
  return out;
}

/// A test whose outcome is unreachable even in the weakest model of the
/// class (F = false) is unreachable in every model (strengthening F only
/// removes behaviors), so it can never contrast two models: drop it.
/// This prunes degenerate same-address instantiations whose observer
/// reads force a coherence cycle outright.  All candidates are checked
/// in one batched engine run (one weakest-model row) on the calling
/// thread: the batch is about a hundred small tests, and a pool sized by
/// the hardware would outnumber the threads the caller asked for.
std::vector<char> useful_flags(
    const std::vector<std::pair<Case, litmus::LitmusTest>>& all) {
  const std::vector<core::MemoryModel> weakest = {
      core::MemoryModel("weakest", core::f_false())};
  std::vector<litmus::LitmusTest> tests;
  tests.reserve(all.size());
  for (const auto& [c, t] : all) tests.push_back(t);
  engine::EngineOptions options;
  options.num_threads = 1;
  engine::VerdictEngine eng(options);
  const engine::BitMatrix allowed = eng.run_matrix(weakest, tests);
  std::vector<char> useful(tests.size());
  for (std::size_t i = 0; i < tests.size(); ++i) {
    useful[i] = allowed.get(0, static_cast<int>(i)) ? 1 : 0;
  }
  return useful;
}

}  // namespace

std::vector<litmus::LitmusTest> corollary1_suite(bool with_deps) {
  auto all = generate_all(with_deps);
  const auto useful = useful_flags(all);
  std::vector<litmus::LitmusTest> out;
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (useful[i]) out.push_back(std::move(all[i].second));
  }
  return out;
}

SuiteBreakdown suite_breakdown(bool with_deps) {
  SuiteBreakdown b;
  const auto all = generate_all(with_deps);
  const auto useful = useful_flags(all);
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (!useful[i]) continue;
    const Case c = all[i].first;
    switch (c) {
      case Case::C1:
        ++b.case1;
        break;
      case Case::C2:
        ++b.case2;
        break;
      case Case::C3a:
        ++b.case3a;
        break;
      case Case::C3b:
        ++b.case3b;
        break;
      case Case::C4:
        ++b.case4;
        break;
      case Case::C5a:
        ++b.case5a;
        break;
      case Case::C5b:
        ++b.case5b;
        break;
    }
  }
  return b;
}

}  // namespace mcmc::enumeration
