// E3 -- Figure 3: the nine contrasting litmus tests L1..L9.
//
// Regenerates: (a) the verdict matrix of L1..L9 across the named hardware
// models, (b) the sufficiency claim -- the nine tests distinguish every
// non-equivalent pair among the 90 explored models, and (c) the minimum
// distinguishing-set size computed by exact set cover over the full
// Corollary-1 suite.
#include <cstdio>

#include "engine/verdict_engine.h"
#include "enumeration/suite.h"
#include "explore/cover.h"
#include "explore/matrix.h"
#include "explore/space.h"
#include "litmus/catalog.h"
#include "models/zoo.h"
#include "util/table.h"
#include "util/timer.h"

int main() {
  using namespace mcmc;

  std::printf("== E3 / Figure 3: the nine contrasting litmus tests ==\n\n");

  const auto nine = litmus::figure3_tests();
  for (const auto& t : nine) std::printf("%s\n", t.to_string().c_str());

  // One engine for the whole harness.
  engine::VerdictEngine eng;

  // (a) named-model verdicts, one batched matrix.
  const auto named = models::all_named_models();
  std::vector<std::string> header = {"test"};
  for (const auto& m : named) header.push_back(m.name());
  util::Table verdicts(header);
  const auto named_bits = eng.run_matrix(named, nine);
  for (std::size_t t = 0; t < nine.size(); ++t) {
    std::vector<std::string> row = {nine[t].name()};
    for (std::size_t m = 0; m < named.size(); ++m) {
      row.push_back(named_bits.get(static_cast<int>(m), static_cast<int>(t))
                        ? "allow"
                        : "forbid");
    }
    verdicts.add_row(row);
  }
  std::printf("Verdicts (allow = outcome observable):\n%s\n",
              verdicts.to_string().c_str());

  // (b) sufficiency over the 90-model space.
  util::Timer timer;
  const auto space = explore::model_space(true);
  std::vector<core::MemoryModel> space_models;
  for (const auto& c : space) space_models.push_back(c.to_model());
  const auto suite = enumeration::corollary1_suite(true);
  const explore::AdmissibilityMatrix full(eng, space_models, suite);
  const explore::AdmissibilityMatrix nine_matrix(eng, space_models, nine);
  std::printf("engine after both matrices: %s\n\n",
              eng.total_stats().to_string().c_str());
  const auto pairs = explore::distinguishable_pairs(full);
  std::size_t covered = 0;
  for (const auto& [a, b] : pairs) {
    for (int t = 0; t < nine_matrix.num_tests(); ++t) {
      if (nine_matrix.allowed(a, t) != nine_matrix.allowed(b, t)) {
        ++covered;
        break;
      }
    }
  }
  std::printf("Sufficiency: L1..L9 distinguish %zu / %zu non-equivalent "
              "model pairs of the 90-model space.\n",
              covered, pairs.size());

  // (c) minimality by exact set cover over the full suite.
  const auto greedy = explore::greedy_cover(full);
  const auto exact = explore::exact_minimum_cover(full);
  std::printf("Greedy cover over the %zu-test suite: %zu tests.\n",
              suite.size(), greedy.size());
  std::printf("Exact minimum cover: %zu tests (paper reports a sufficient "
              "set of 9).\n",
              exact.size());
  std::printf("Exact-cover members:\n");
  for (const int t : exact) {
    std::printf("  %s\n", suite[static_cast<std::size_t>(t)].name().c_str());
  }
  std::printf("Total analysis time: %.2fs\n", timer.seconds());
  return 0;
}
