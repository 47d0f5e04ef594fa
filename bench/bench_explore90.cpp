// E6 -- Section 4.2: exploring the space of memory models.
//
// Regenerates the exploration results: the 90-model space, the eight
// equivalent model pairs (all differing only in same-address write->read
// reordering), and summary statistics of the pairwise relations.
//
// The full 90-model x Corollary-1-suite sweep routes through the batched
// engine::VerdictEngine and is checked bit-for-bit against the serial
// seed path (per-cell core::is_allowed loop) it replaced, reporting the
// speedup plus the engine's statistics: cells, checks and the searches
// that decided them (one per distinct reorder mask of a test), dedup
// hits and the backend split.  With --backend sat every search goes
// through the SAT engine's mask path.
//
// Flags:
//   --threads N      engine threads (default: hardware concurrency)
//   --backend B      explicit | sat | adaptive  (default: adaptive)
//   --skip-baseline  skip the serial reference sweep (and its check)
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/analysis.h"
#include "core/checker.h"
#include "engine/verdict_engine.h"
#include "enumeration/suite.h"
#include "explore/matrix.h"
#include "explore/space.h"
#include "util/table.h"
#include "util/timer.h"

namespace {

/// The seed's serial evaluation loop, kept verbatim as the reference:
/// one Analysis per test, then a per-cell core::is_allowed sweep.
mcmc::engine::BitMatrix serial_seed_sweep(
    const std::vector<mcmc::core::MemoryModel>& models,
    const std::vector<mcmc::litmus::LitmusTest>& tests) {
  using namespace mcmc;
  std::vector<core::Analysis> analyses;
  analyses.reserve(tests.size());
  for (const auto& t : tests) analyses.emplace_back(t.program());

  engine::BitMatrix bits(static_cast<int>(models.size()),
                         static_cast<int>(tests.size()));
  for (std::size_t m = 0; m < models.size(); ++m) {
    for (std::size_t t = 0; t < tests.size(); ++t) {
      if (core::is_allowed(analyses[t], models[m], tests[t].outcome(),
                           core::Engine::Explicit)) {
        bits.set(static_cast<int>(m), static_cast<int>(t), true);
      }
    }
  }
  return bits;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mcmc;

  engine::EngineOptions options;
  bool skip_baseline = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--threads" && i + 1 < argc) {
      char* end = nullptr;
      const long threads = std::strtol(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0' || threads < 0 || threads > 4096) {
        std::fprintf(stderr,
                     "--threads takes an integer in [0, 4096] (0 = hardware)"
                     ", got '%s'\n",
                     argv[i]);
        return 2;
      }
      options.num_threads = static_cast<int>(threads);
    } else if (arg == "--backend" && i + 1 < argc) {
      if (!engine::parse_backend(argv[++i], options.backend)) {
        std::fprintf(stderr, "unknown backend '%s'\n", argv[i]);
        return 2;
      }
    } else if (arg == "--skip-baseline") {
      skip_baseline = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--threads N] [--backend explicit|sat|adaptive]"
                   " [--skip-baseline]\n",
                   argv[0]);
      return 2;
    }
  }

  std::printf("== E6 / Section 4.2: the 90-model space ==\n\n");

  const auto space = explore::model_space(true);
  std::vector<core::MemoryModel> models;
  for (const auto& c : space) models.push_back(c.to_model());
  const auto suite = enumeration::corollary1_suite(true);

  double baseline_time = 0.0;
  engine::BitMatrix baseline_bits;
  if (!skip_baseline) {
    util::Timer baseline_timer;
    baseline_bits = serial_seed_sweep(models, suite);
    baseline_time = baseline_timer.seconds();
  }

  engine::VerdictEngine eng(options);
  util::Timer timer;
  const explore::AdmissibilityMatrix matrix(eng, models, suite);
  const double matrix_time = timer.seconds();

  const bool bits_match = skip_baseline || matrix.bits() == baseline_bits;
  if (!skip_baseline) {
    std::printf("serial seed sweep: %.3fs   engine sweep: %.3fs   "
                "speedup: %.2fx   verdicts bit-for-bit: %s\n",
                baseline_time, matrix_time,
                matrix_time > 0 ? baseline_time / matrix_time : 0.0,
                bits_match ? "match" : "MISMATCH");
  } else {
    std::printf("engine sweep: %.3fs (baseline skipped)\n", matrix_time);
  }
  std::printf("engine [backend=%s]: %s\n\n",
              engine::to_string(options.backend).c_str(),
              matrix.build_stats().to_string().c_str());

  int equivalent = 0;
  int ordered = 0;
  int incomparable = 0;
  util::Table equal_pairs({"pair", "shared digits (WW,RW,RR)", "WR digits"});
  for (int a = 0; a < matrix.num_models(); ++a) {
    for (int b = a + 1; b < matrix.num_models(); ++b) {
      switch (matrix.compare(a, b)) {
        case explore::Relation::Equivalent: {
          ++equivalent;
          const auto& ca = space[static_cast<std::size_t>(a)];
          const auto& cb = space[static_cast<std::size_t>(b)];
          equal_pairs.add_row(
              {ca.name() + " == " + cb.name(),
               std::to_string(ca.ww) + "," + std::to_string(ca.rw) + "," +
                   std::to_string(ca.rr),
               std::to_string(ca.wr) + " vs " + std::to_string(cb.wr)});
          break;
        }
        case explore::Relation::FirstWeaker:
        case explore::Relation::FirstStronger:
          ++ordered;
          break;
        case explore::Relation::Incomparable:
          ++incomparable;
          break;
      }
    }
  }

  std::printf("models: %zu   suite tests: %zu   matrix time: %.2fs\n\n",
              space.size(), suite.size(), matrix_time);
  std::printf("pairwise relations: %d equivalent (paper: 8), %d strictly "
              "ordered, %d incomparable\n\n",
              equivalent, ordered, incomparable);
  std::printf("Equivalent pairs (paper: all differ only in same-address "
              "write->read reordering):\n%s\n",
              equal_pairs.to_string().c_str());

  // Equivalence structurally explained: WR 0 vs 1 is undetectable exactly
  // when the L8 route (RR in {2,3,4}) and the L9 route (WW=1 and RW in
  // {3,4}) are both closed.
  int predicted = 0;
  for (const auto& c : space) {
    if (c.wr != 0) continue;
    const bool l8_route = c.rr >= 2;
    const bool l9_route = c.ww == 1 && c.rw >= 3;
    if (!l8_route && !l9_route) ++predicted;
  }
  std::printf("Structural prediction of undetectable WR pairs: %d "
              "(matches measured %d: %s)\n",
              predicted, equivalent,
              predicted == equivalent ? "yes" : "NO");
  return predicted == equivalent && bits_match ? 0 : 1;
}
