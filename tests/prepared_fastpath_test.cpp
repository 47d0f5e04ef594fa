// Allocation regression tests for the prepared fast path: this binary
// overrides global operator new to count heap allocations and asserts
// that the prepared explicit admissibility check — mask compilation
// into reused buffers (core::FormulaSet), base po-closure, and the
// disjunction DFS — performs exactly zero of them, as does the classic
// explicit engine's non-witness decision on a prebuilt HbProblem, and
// that a whole run_rows chunk makes at most one per evaluated test.  The
// same counting pins the stream's per-test cost: building, copying and
// moving an outcome that fits inline, deriving a test from a program,
// and emitting a streamed test into a recycled chunk allocate nothing.  (These overrides are binary-wide, which is why these suites
// live in their own test executable.)
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <utility>
#include <vector>

#include "core/analysis.h"
#include "core/checker.h"
#include "core/formula.h"
#include "core/hb.h"
#include "core/outcome.h"
#include "core/prepared.h"
#include "engine/verdict_engine.h"
#include "enumeration/exhaustive.h"
#include "enumeration/shapes.h"
#include "explore/distinguish.h"
#include "explore/space.h"
#include "litmus/catalog.h"
#include "models/zoo.h"
#include "util/hash128.h"

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
        verdicts[i] = prep.allowed(masks[i]) ? 1 : 0;
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
    verdict = prep.allowed(masks[0]);
  });
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(verdict, prep.allowed(model));
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

TEST(PreparedAllocation, RunRowsChunkAllocatesAtMostOncePerEvaluatedTest) {
  // Each engine thread refills one workspace (the program run's
  // Analysis and mask classes, the current test's prepared skeletons)
  // instead of building them afresh, and the models are hash-consed once
  // per RowModels.  So after a warm-up chunk, run_rows over a chunk of
  // novel tests, as the stream's verdict stage (the extremes) and the
  // harness sweep (the 90-model space) make them, allocates only its
  // per-call tables: the programs were validated when their tests were
  // built, so an Analysis reset validates none of them again.  That is
  // fewer allocations than program runs (36 for 294 tests in 136 runs,
  // with either model set).
  struct Chunk {
    std::vector<litmus::LitmusTest> tests;
    std::vector<util::Key128> keys;
  };
  std::vector<Chunk> chunks;
  {
    enumeration::ExhaustiveOptions options;
    options.bounds.max_accesses_per_thread = 2;
    enumeration::ExhaustiveStream stream(options);
    engine::VerdictEngine collector;
    (void)collector.run_stream(
        explore::extreme_models(), stream,
        [&](const std::vector<litmus::LitmusTest>& novel,
            const std::vector<util::Key128>& keys, const engine::BitMatrix&,
            const engine::StreamChunkStats&) {
          if (!novel.empty()) chunks.push_back({novel, keys});
        });
  }
  ASSERT_GE(chunks.size(), 2u);
  const Chunk& warm = chunks[0];
  const Chunk& measured = chunks[1];

  const std::vector<core::MemoryModel> extremes = explore::extreme_models();
  std::vector<core::MemoryModel> ninety;
  for (const auto& c : explore::model_space(true)) {
    ninety.push_back(c.to_model());
  }
  const engine::RowModels extreme_rows(extremes, nullptr);
  const engine::RowModels ninety_rows(ninety, nullptr);
  engine::EngineOptions options;
  options.num_threads = 1;
  engine::VerdictEngine eng(options);
  (void)eng.run_rows(extreme_rows, warm.tests, warm.keys);
  (void)eng.run_rows(ninety_rows, warm.tests, warm.keys);
  const std::pair<const engine::RowModels*, std::size_t> model_sets[] = {
      {&extreme_rows, extremes.size()}, {&ninety_rows, ninety.size()}};
  for (const auto& set : model_sets) {
    const engine::RowModels& rows = *set.first;
    const std::size_t models = set.second;
    const std::size_t allocs = allocations_during([&] {
      (void)eng.run_rows(rows, measured.tests, measured.keys);
    });
    // Every test of the chunk is canonically distinct, so each one is
    // evaluated, against every model.
    const engine::EngineStats& stats = eng.last_stats();
    ASSERT_EQ(stats.checks_run, models * measured.tests.size());
    const std::size_t evaluated = measured.tests.size();
    EXPECT_LT(allocs, stats.unique_analyses)
        << models << " models: " << allocs << " allocations for "
        << evaluated << " evaluated tests in " << stats.unique_analyses
        << " program runs";
    EXPECT_LE(allocs, evaluated);
  }
}

// ---------------------------------------------------------------------------
// Streamed tests
// ---------------------------------------------------------------------------

/// An outcome at the inline capacity, built with require().
core::Outcome full_inline_outcome() {
  core::Outcome outcome;
  for (std::size_t r = 0; r < core::Outcome::kInlineCapacity; ++r) {
    outcome.require(static_cast<core::Reg>(r + 1), static_cast<int>(r % 3));
  }
  return outcome;
}

TEST(StreamAllocation, InlineOutcomeBuildCopyAndMoveAllocateNothing) {
  std::size_t size = 0;
  bool equal = false;
  const std::size_t allocs = allocations_during([&] {
    core::Outcome built = full_inline_outcome();
    const core::Outcome copy = built;
    const core::Outcome moved = std::move(built);
    core::Outcome assigned;
    assigned = copy;
    size = moved.constraints().size();
    equal = moved == copy && assigned == copy;
  });
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(size, core::Outcome::kInlineCapacity);
  EXPECT_TRUE(equal);
}

TEST(StreamAllocation, WithOutcomeAllocatesNothing) {
  // A stream-style name fits the string's inline buffer, the outcome
  // is copied inline and the program is shared: deriving, copying and
  // dropping the test touch no heap.
  const litmus::LitmusTest base = litmus::iriw();
  const core::Outcome outcome = base.outcome();
  bool shared = false;
  const std::size_t allocs = allocations_during([&] {
    const litmus::LitmusTest derived =
        base.with_outcome("x887363.4095", outcome);
    const litmus::LitmusTest copy = derived;
    shared = &copy.program() == &base.program() && copy.outcome() == outcome;
  });
  EXPECT_EQ(allocs, 0u);
  EXPECT_TRUE(shared);
}

/// Allocations of building every program of `options`' space once, the
/// way ExhaustiveStream builds it: materialized into write counts sized
/// up front, then validated by the LitmusTest constructor.
std::size_t program_build_allocations(
    const enumeration::ExhaustiveOptions& options) {
  const auto shapes = enumeration::shapes::all_thread_shapes(options.bounds);
  enumeration::shapes::WriteCounts values;
  values.reserve(static_cast<std::size_t>(options.bounds.num_locations));
  return allocations_during([&] {
    for (const auto& a : shapes) {
      for (const auto& b : shapes) {
        const litmus::LitmusTest program(
            "", enumeration::shapes::materialize_pair(a, b, values),
            core::Outcome{});
      }
    }
  });
}

TEST(StreamAllocation, RecycledChunkDrainAllocatesOnlyItsPrograms) {
  // Emitting a test allocates nothing, so a drain into one recycled
  // chunk costs exactly its program builds (an outcome held in a
  // std::vector would add one allocation per test that has a read).
  for (const bool deps : {false, true}) {
    enumeration::ExhaustiveOptions options;
    options.bounds.max_accesses_per_thread = 2;
    options.bounds.deps = deps;
    enumeration::ExhaustiveStream stream(options);
    std::vector<litmus::LitmusTest> chunk;
    chunk.reserve(static_cast<std::size_t>(options.chunk_size));
    std::size_t tests_with_reads = 0;
    const std::size_t drain = allocations_during([&] {
      bool more = true;
      while (more) {
        chunk.clear();  // the tests die; the storage is refilled
        more = stream.next_chunk(chunk);
        for (const auto& test : chunk) {
          if (!test.outcome().empty()) ++tests_with_reads;
        }
      }
    });
    ASSERT_GT(tests_with_reads, 0u);
    EXPECT_EQ(drain, program_build_allocations(options))
        << "deps=" << deps << ", tests with reads: " << tests_with_reads;
  }
}

}  // namespace
}  // namespace mcmc
