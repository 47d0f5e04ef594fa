// E7 -- Section 4.2 runtime claims, as google-benchmark microbenchmarks.
//
// The paper: "The comparison of each pair of models was done in a few
// seconds, and a pairwise comparison of all 90 models completed in 20
// minutes."  We measure: one admissibility check, one pairwise model
// comparison on the full suite, the full 90-model exploration, and the
// SAT-vs-explicit ablation on the core checker (BM_SingleCheck_Explicit
// vs BM_SingleCheck_Sat).  The sweeps route through the batched
// engine::VerdictEngine; the `_SerialBaseline` variants keep the seed's
// hand-rolled per-cell loop for comparison.  Engine sweeps build a
// fresh engine per iteration.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "core/analysis.h"
#include "core/checker.h"
#include "core/prepared.h"
#include "engine/verdict_engine.h"
#include "enumeration/suite.h"
#include "explore/matrix.h"
#include "explore/space.h"
#include "litmus/catalog.h"
#include "models/zoo.h"

namespace {

using namespace mcmc;

const std::vector<litmus::LitmusTest>& suite() {
  static const auto s = enumeration::corollary1_suite(true);
  return s;
}

const std::vector<core::Analysis>& analyses() {
  static const auto a = [] {
    std::vector<core::Analysis> out;
    for (const auto& t : suite()) out.emplace_back(t.program());
    return out;
  }();
  return a;
}

const std::vector<core::MemoryModel>& space_models() {
  static const auto m = [] {
    std::vector<core::MemoryModel> out;
    for (const auto& c : explore::model_space(true)) {
      out.push_back(c.to_model());
    }
    return out;
  }();
  return m;
}

void BM_SingleCheck_Explicit(benchmark::State& state) {
  const auto model = models::tso();
  const auto& t = litmus::test_a();
  const core::Analysis an(t.program());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::is_allowed(an, model, t.outcome(), core::Engine::Explicit));
  }
}
BENCHMARK(BM_SingleCheck_Explicit);

void BM_SingleCheck_Sat(benchmark::State& state) {
  const auto model = models::tso();
  const auto& t = litmus::test_a();
  const core::Analysis an(t.program());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::is_allowed(an, model, t.outcome(), core::Engine::Sat));
  }
}
BENCHMARK(BM_SingleCheck_Sat);

/// One prepared check (the per-search unit of the prepared fast path):
/// rf maps, skeletons and the model's mask are hoisted, so an iteration
/// is the allocation-free closure DFS alone.  Compare against
/// BM_SingleCheck_Explicit for the per-cell win.
void BM_SingleCheck_Prepared(benchmark::State& state) {
  const auto model = models::tso();
  const auto& t = litmus::test_a();
  const core::PreparedTest prep(t.program(), t.outcome());
  std::vector<core::ReorderMask> masks;
  std::vector<std::uint64_t> scratch;
  core::FormulaSet({model.formula()}).compile(prep.analysis(), masks, scratch);
  for (auto _ : state) {
    benchmark::DoNotOptimize(prep.allowed(masks[0]));
  }
}
BENCHMARK(BM_SingleCheck_Prepared);

/// Building the prepared skeleton itself (analysis + rf enumeration +
/// per-rf skeletons): the one-off cost amortized across a model space.
void BM_PreparedTestBuild(benchmark::State& state) {
  const auto& t = litmus::test_a();
  for (auto _ : state) {
    const core::PreparedTest prep(t.program(), t.outcome());
    benchmark::DoNotOptimize(prep.num_rf_maps());
  }
}
BENCHMARK(BM_PreparedTestBuild);

/// One pairwise model comparison over the full suite (the unit the paper
/// reports as "a few seconds"): pre-analyzed tests, per-cell checks, so
/// the number stays comparable to the seed and the paper's anchor.
void BM_PairwiseComparison(benchmark::State& state) {
  const auto a = explore::tso_choices().to_model();
  const auto b = explore::pso_choices().to_model();
  for (auto _ : state) {
    bool a_extra = false;
    bool b_extra = false;
    for (std::size_t t = 0; t < suite().size(); ++t) {
      const bool va = core::is_allowed(analyses()[t], a, suite()[t].outcome());
      const bool vb = core::is_allowed(analyses()[t], b, suite()[t].outcome());
      a_extra |= va && !vb;
      b_extra |= vb && !va;
    }
    benchmark::DoNotOptimize(a_extra);
    benchmark::DoNotOptimize(b_extra);
  }
}
BENCHMARK(BM_PairwiseComparison)->Unit(benchmark::kMillisecond);

/// The same comparison through a cold engine: includes engine setup,
/// per-batch analysis construction, and canonical-key minimization, so
/// it bounds the engine's fixed per-batch overhead rather than the
/// paper's unit.
void BM_PairwiseComparison_EngineCold(benchmark::State& state) {
  const std::vector<core::MemoryModel> pair = {
      explore::tso_choices().to_model(), explore::pso_choices().to_model()};
  for (auto _ : state) {
    engine::VerdictEngine eng;
    const explore::AdmissibilityMatrix matrix(eng, pair, suite());
    benchmark::DoNotOptimize(matrix.compare(0, 1));
  }
}
BENCHMARK(BM_PairwiseComparison_EngineCold)->Unit(benchmark::kMillisecond);

/// The full exploration (the unit the paper reports as "20 minutes"),
/// as the seed shipped it: serial per-cell loop.
void BM_Full90ModelExploration_SerialBaseline(benchmark::State& state) {
  for (auto _ : state) {
    int equivalent = 0;
    std::vector<std::vector<bool>> rows;
    for (const auto& model : space_models()) {
      std::vector<bool> row;
      for (std::size_t t = 0; t < suite().size(); ++t) {
        row.push_back(
            core::is_allowed(analyses()[t], model, suite()[t].outcome()));
      }
      rows.push_back(std::move(row));
    }
    for (std::size_t a = 0; a < rows.size(); ++a) {
      for (std::size_t b = a + 1; b < rows.size(); ++b) {
        equivalent += rows[a] == rows[b];
      }
    }
    if (equivalent != 8) state.SkipWithError("expected 8 equivalent pairs");
  }
}
BENCHMARK(BM_Full90ModelExploration_SerialBaseline)
    ->Unit(benchmark::kMillisecond);

int count_equivalent(const explore::AdmissibilityMatrix& matrix) {
  int equivalent = 0;
  for (int a = 0; a < matrix.num_models(); ++a) {
    for (int b = a + 1; b < matrix.num_models(); ++b) {
      equivalent += matrix.compare(a, b) == explore::Relation::Equivalent;
    }
  }
  return equivalent;
}

/// Engine sweep, cold: a fresh engine per iteration; the
/// range argument is the thread count (0 = hardware concurrency).
void BM_Full90ModelExploration_EngineCold(benchmark::State& state) {
  for (auto _ : state) {
    engine::EngineOptions options;
    options.num_threads = static_cast<int>(state.range(0));
    engine::VerdictEngine eng(options);
    const explore::AdmissibilityMatrix matrix(eng, space_models(), suite());
    if (count_equivalent(matrix) != 8) {
      state.SkipWithError("expected 8 equivalent pairs");
    }
  }
}
BENCHMARK(BM_Full90ModelExploration_EngineCold)
    ->Arg(1)
    ->Arg(0)
    ->Unit(benchmark::kMillisecond);

/// The whole suite x named models, batched through a fresh engine.
void BM_SuiteSweep(benchmark::State& state) {
  const auto named = models::all_named_models();
  for (auto _ : state) {
    engine::VerdictEngine eng;
    const auto bits = eng.run_matrix(named, suite());
    benchmark::DoNotOptimize(bits.rows());
  }
}
BENCHMARK(BM_SuiteSweep)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
