// Unit coverage of the shared generator core (enumeration/shapes.h):
// well-formedness of separator-carrying shapes, rejection of the
// historically silent first-slot separator, dependency gating in
// all_thread_shapes, encode markers, checked space arithmetic, and the
// materialization idioms that must match enumeration::TestBuilder's
// dependency instruction sequences exactly (canonical classes of
// generated and hand-built tests coincide only if they do).
#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/instruction.h"
#include "enumeration/shapes.h"

namespace mcmc::enumeration::shapes {
namespace {

ThreadShape shape_of(std::initializer_list<Access> accesses) {
  return ThreadShape(accesses);
}

NaiveOptions bounds(int max_accesses, bool fences, bool deps) {
  NaiveOptions o;
  o.max_accesses_per_thread = max_accesses;
  o.num_locations = 3;
  o.fences = fences;
  o.deps = deps;
  return o;
}

// ---------------------------------------------------------------------------
// Well-formedness.
// ---------------------------------------------------------------------------

TEST(ShapeWellFormed, FirstSlotSeparatorIsRejected) {
  // The old `fence_before` flag on a thread's first slot was silently
  // meaningless; the Sep representation rejects it outright.
  for (const Sep sep : {Sep::Fence, Sep::DataDep, Sep::CtrlDep}) {
    EXPECT_FALSE(well_formed(shape_of({{true, 0, sep}})));
    EXPECT_FALSE(well_formed(shape_of({{false, 1, sep}, {true, 0}})));
  }
  EXPECT_TRUE(well_formed(shape_of({{true, 0, Sep::None}})));
}

TEST(ShapeWellFormed, DepsRequireAPrecedingRead) {
  // Only a read produces a value to depend on.
  for (const Sep dep : {Sep::DataDep, Sep::CtrlDep}) {
    EXPECT_FALSE(well_formed(shape_of({{false, 0}, {true, 1, dep}})));
    EXPECT_TRUE(well_formed(shape_of({{true, 0}, {true, 1, dep}})));
    EXPECT_TRUE(well_formed(shape_of({{true, 0}, {false, 1, dep}})));
  }
  // A fence needs no predecessor value.
  EXPECT_TRUE(well_formed(shape_of({{false, 0}, {true, 1, Sep::Fence}})));
}

TEST(ShapeWellFormed, EncodeAndMaterializeRejectIllFormedShapes) {
  const ThreadShape bad = shape_of({{true, 0, Sep::Fence}});
  const std::vector<int> id_perm = {0, 1, 2};
  EXPECT_THROW((void)encode(bad, id_perm), std::invalid_argument);
  WriteCounts values;
  core::Reg next_reg = 0;
  EXPECT_THROW((void)materialize(bad, values, next_reg),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Generation: dependency gating and space sizes.
// ---------------------------------------------------------------------------

TEST(ShapeGeneration, EveryGeneratedShapeIsWellFormed) {
  for (const auto& shape : all_thread_shapes(bounds(3, true, true))) {
    EXPECT_TRUE(well_formed(shape)) << encode(shape, {0, 1, 2});
  }
}

TEST(ShapeGeneration, DepsOffYieldsNoDepSeparators) {
  const auto shapes = all_thread_shapes(bounds(3, true, false));
  for (const auto& shape : shapes) {
    for (const auto& a : shape) {
      EXPECT_TRUE(a.sep == Sep::None || a.sep == Sep::Fence);
    }
  }
}

TEST(ShapeGeneration, SpaceSizesMatchHandCounts) {
  // No deps: 6 one-access shapes, 72 two-access (6 firsts x {none,
  // fence} x 6), 864 three-access.
  EXPECT_EQ(all_thread_shapes(bounds(2, true, false)).size(), 78u);
  EXPECT_EQ(all_thread_shapes(bounds(3, true, false)).size(), 942u);
  // With deps a slot after a read has 4 separator choices instead of 2:
  // 6 + 108 two-access, then 1944 three-access (54 read-ending
  // two-access shapes x 24 + 54 write-ending x 12).
  EXPECT_EQ(all_thread_shapes(bounds(2, true, true)).size(), 114u);
  EXPECT_EQ(all_thread_shapes(bounds(3, true, true)).size(), 2058u);
}

TEST(ShapeGeneration, DepsOffOrderIsAPrefixFilterOfDepsOn) {
  // The dep-extended generator must not perturb the no-dep space:
  // deps=false produces exactly the deps=true sequence with the
  // dep-carrying shapes removed (separator candidates are tried in
  // enum order, so relative order is preserved).
  const auto with = all_thread_shapes(bounds(3, true, true));
  const auto without = all_thread_shapes(bounds(3, true, false));
  std::vector<ThreadShape> filtered;
  for (const auto& shape : with) {
    bool has_dep = false;
    for (const auto& a : shape) {
      has_dep = has_dep || a.sep == Sep::DataDep || a.sep == Sep::CtrlDep;
    }
    if (!has_dep) filtered.push_back(shape);
  }
  ASSERT_EQ(filtered.size(), without.size());
  for (std::size_t i = 0; i < filtered.size(); ++i) {
    EXPECT_EQ(encode(filtered[i], {0, 1, 2}), encode(without[i], {0, 1, 2}));
  }
}

TEST(ShapeEncode, DepSeparatorsGetDistinctMarkers) {
  const ThreadShape t = shape_of({{true, 0},
                                  {false, 1, Sep::DataDep},
                                  {true, 2, Sep::Fence}});
  EXPECT_EQ(encode(t, {0, 1, 2}), "R0dW1fR2");
  const ThreadShape c = shape_of({{true, 1}, {true, 0, Sep::CtrlDep}});
  EXPECT_EQ(encode(c, {0, 1, 2}), "R1cR0");
  // Location permutation applies to dep-addressed slots too.
  EXPECT_EQ(encode(c, {2, 1, 0}), "R1cR2");
}

// ---------------------------------------------------------------------------
// Checked space arithmetic.
// ---------------------------------------------------------------------------

TEST(ShapeArithmetic, CheckedMulAndAddFailLoudlyOnOverflow) {
  EXPECT_EQ(checked_mul(1'000'000, 1'000'000), 1'000'000'000'000LL);
  EXPECT_EQ(checked_add(1LL << 62, 1LL << 61), (1LL << 62) + (1LL << 61));
  constexpr long long kMax = std::numeric_limits<long long>::max();
  EXPECT_THROW((void)checked_mul(1LL << 62, 4), std::logic_error);
  EXPECT_THROW((void)checked_add(kMax, 1), std::logic_error);
}

// ---------------------------------------------------------------------------
// Materialization: the TestBuilder dependency idioms, instruction for
// instruction.
// ---------------------------------------------------------------------------

TEST(ShapeMaterialize, DataDepReadUsesDepConstPlusIndirectRead) {
  WriteCounts values;
  core::Reg next_reg = 0;
  const auto t = materialize(shape_of({{true, 2}, {true, 0, Sep::DataDep}}),
                             values, next_reg);
  // Read z -> r0 ; DepConst r1 = f(r0, 0) ; Read [r1] -> r2
  ASSERT_EQ(t.size(), 3u);
  EXPECT_EQ(t[0].op, core::Op::Read);
  EXPECT_EQ(t[0].loc, 2);
  EXPECT_EQ(t[0].dst, 0);
  EXPECT_EQ(t[1].op, core::Op::DepConst);
  EXPECT_EQ(t[1].dst, 1);
  EXPECT_EQ(t[1].src, 0);
  EXPECT_EQ(t[1].value, 0);  // encodes the target location
  EXPECT_EQ(t[2].op, core::Op::Read);
  EXPECT_EQ(t[2].addr_reg, 1);
  EXPECT_EQ(t[2].dst, 2);
  EXPECT_EQ(next_reg, 3);
}

TEST(ShapeMaterialize, DataDepWriteUsesDepConstPlusRegisterValuedWrite) {
  WriteCounts values;
  core::Reg next_reg = 0;
  const auto t = materialize(shape_of({{true, 0}, {false, 1, Sep::DataDep}}),
                             values, next_reg);
  // Read x -> r0 ; DepConst r1 = f(r0, 1) ; Write y <- r1
  ASSERT_EQ(t.size(), 3u);
  EXPECT_EQ(t[1].op, core::Op::DepConst);
  EXPECT_EQ(t[1].dst, 1);
  EXPECT_EQ(t[1].src, 0);
  EXPECT_EQ(t[1].value, 1);  // first value written to location 1
  EXPECT_EQ(t[2].op, core::Op::Write);
  EXPECT_EQ(t[2].loc, 1);
  EXPECT_EQ(t[2].src, 1);
  EXPECT_TRUE(t[2].value_from_reg);
  EXPECT_EQ(values.at(1), 1);
}

TEST(ShapeMaterialize, CtrlDepInsertsABranchOnThePrecedingRead) {
  WriteCounts values;
  core::Reg next_reg = 0;
  const auto t = materialize(shape_of({{true, 1}, {false, 0, Sep::CtrlDep}}),
                             values, next_reg);
  // Read y -> r0 ; Branch r0 ; Write x <- 1
  ASSERT_EQ(t.size(), 3u);
  EXPECT_EQ(t[1].op, core::Op::Branch);
  EXPECT_EQ(t[1].src, 0);
  EXPECT_EQ(t[2].op, core::Op::Write);
  EXPECT_EQ(t[2].loc, 0);
  EXPECT_EQ(t[2].value, 1);
}

TEST(ShapeMaterialize, ForEachReadResolvesDepIndirectAddresses) {
  WriteCounts values;
  core::Reg next_reg = 0;
  const auto t = materialize(
      shape_of({{true, 2}, {true, 0, Sep::DataDep}, {true, 1, Sep::CtrlDep}}),
      values, next_reg);
  std::vector<std::pair<core::Reg, int>> reads;
  for_each_read(t,
                [&](core::Reg dst, int loc) { reads.push_back({dst, loc}); });
  // The dep-addressed middle read resolves to its DepConst location,
  // not core::kNoLoc (the bug the dependency extension flushed out).
  const std::vector<std::pair<core::Reg, int>> want = {{0, 2}, {2, 0}, {3, 1}};
  EXPECT_EQ(reads, want);
}

}  // namespace
}  // namespace mcmc::enumeration::shapes
