// Allocation regression tests for the prepared fast path: this binary
// overrides global operator new to count heap allocations and asserts
// that the prepared explicit admissibility check — mask compilation
// into reused buffers (core::FormulaSet), base po-closure, and the
// disjunction DFS — performs exactly zero of them, as does the classic
// explicit engine's non-witness decision on a prebuilt HbProblem.
// (These overrides are binary-wide, which is why this suite lives in
// its own test executable.)
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/analysis.h"
#include "core/checker.h"
#include "core/formula.h"
#include "core/hb.h"
#include "core/prepared.h"
#include "explore/space.h"
#include "litmus/catalog.h"
#include "models/zoo.h"

namespace {

std::atomic<std::size_t> g_allocations{0};

}  // namespace

// The replacements stay out of line: inlined into a caller, they would
// show GCC's -Wmismatched-new-delete a free() of memory it last saw
// come from operator new (gcc 12 with -fsanitize=address warns so).
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

[[gnu::noinline]] void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace mcmc {
namespace {

/// Allocations performed by `fn`, measured outside any gtest assertion
/// machinery.
template <typename Fn>
std::size_t allocations_during(Fn&& fn) {
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  fn();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

TEST(PreparedAllocation, OperatorNewOverrideIsActive) {
  const std::size_t n = allocations_during([] {
    std::vector<int>* v = new std::vector<int>(100);
    delete v;
  });
  EXPECT_GE(n, 1u);
}

std::vector<core::Formula> formulas_of(
    const std::vector<core::MemoryModel>& models) {
  std::vector<core::Formula> formulas;
  for (const auto& m : models) formulas.push_back(m.formula());
  return formulas;
}

TEST(PreparedAllocation, PreparedExplicitCheckIsAllocationFree) {
  // Tests chosen to exercise every hot-path shape: forced-edge-only
  // problems (SB), coherence + escape edges (L9), fences (TestA), and
  // multi-rf-map enumerations (MP's unconstrained-read variants).
  const auto tests = {litmus::store_buffering(), litmus::test_a(),
                      litmus::l2(), litmus::l9(), litmus::message_passing(),
                      litmus::iriw()};
  const auto models = models::all_named_models();
  const core::FormulaSet set(formulas_of(models));
  // The engine's workers reuse their buffers across programs; grown
  // once, they never allocate again.
  std::vector<core::ReorderMask> masks;
  std::vector<std::uint64_t> scratch;
  for (const auto& t : tests) {
    set.compile(core::Analysis(t.program()), masks, scratch);
  }
  for (const auto& t : tests) {
    const core::PreparedTest prep(t.program(), t.outcome());
    std::vector<char> verdicts(models.size(), 0);
    const std::size_t allocs = allocations_during([&] {
      set.compile(prep.analysis(), masks, scratch);
      for (std::size_t i = 0; i < models.size(); ++i) {
        verdicts[i] = prep.allowed(masks[i], core::Engine::Explicit) ? 1 : 0;
      }
    });
    EXPECT_EQ(allocs, 0u) << t.name();
    // The fast path must agree with the classic per-cell check.
    for (std::size_t i = 0; i < models.size(); ++i) {
      EXPECT_EQ(verdicts[i] != 0,
                core::is_allowed(prep.analysis(), models[i], t.outcome(),
                                 core::Engine::Explicit))
          << t.name() << " under " << models[i].name();
    }
  }
}

TEST(PreparedAllocation, MaskCheckIsAllocationFree) {
  const auto t = litmus::test_a();
  const core::PreparedTest prep(t.program(), t.outcome());
  const auto model = models::tso();
  std::vector<core::ReorderMask> masks;
  std::vector<std::uint64_t> scratch;
  core::FormulaSet({model.formula()}).compile(prep.analysis(), masks, scratch);
  bool verdict = false;
  const std::size_t allocs = allocations_during([&] {
    verdict = prep.allowed(masks[0], core::Engine::Explicit);
  });
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(verdict, prep.allowed(model, core::Engine::Explicit));
}

TEST(PreparedAllocation, FormulaSetCompileIsAllocationFree) {
  // The 90-model space plus the named zoo, compiled over the whole
  // catalog into one pair of buffers grown on its largest program:
  // smaller and larger analyses alternate without allocating.
  std::vector<core::MemoryModel> models;
  for (const auto& c : explore::model_space(true)) {
    models.push_back(c.to_model());
  }
  for (const auto& m : models::all_named_models()) models.push_back(m);
  const core::FormulaSet set(formulas_of(models));
  const auto catalog = litmus::full_catalog();
  std::vector<core::Analysis> analyses;
  for (const auto& t : catalog) analyses.emplace_back(t.program());
  std::vector<core::ReorderMask> masks;
  std::vector<std::uint64_t> scratch;
  for (const auto& an : analyses) set.compile(an, masks, scratch);
  for (const auto& an : analyses) {
    const std::size_t allocs =
        allocations_during([&] { set.compile(an, masks, scratch); });
    EXPECT_EQ(allocs, 0u);
    ASSERT_EQ(masks.size(), models.size());
    EXPECT_EQ(masks[0].num_events, an.num_events());
  }
}

TEST(PreparedAllocation, ClassicExplicitDecisionIsAllocationFree) {
  // The rewritten ExplicitSearch (fixed closure arrays + frame-local
  // stack copies) must not allocate when no witness is requested.
  const auto t = litmus::l9();
  const core::Analysis an(t.program());
  const auto model = models::pso();
  const auto rfs = core::enumerate_read_from(an, t.outcome());
  ASSERT_FALSE(rfs.empty());
  const core::HbProblem p = core::build_hb_problem(an, model, rfs[0]);
  bool verdict = false;
  const std::size_t allocs = allocations_during([&] {
    verdict = core::hb_satisfiable(p, core::Engine::Explicit);
  });
  EXPECT_EQ(allocs, 0u);
  (void)verdict;
}

}  // namespace
}  // namespace mcmc
