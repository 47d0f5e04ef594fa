// Tests for the core axiomatic semantics: analysis, read-from enumeration,
// happens-before construction, and the admissibility checker, validated
// against the paper's known verdicts (Figures 1 and 3) on the named
// hardware models.  Every verdict is checked with both engines.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "core/analysis.h"
#include "core/checker.h"
#include "core/formula.h"
#include "core/model.h"
#include "core/outcome.h"
#include "core/readfrom.h"
#include "litmus/catalog.h"
#include "models/zoo.h"

namespace mcmc {
namespace {

using core::Analysis;
using core::Engine;
using core::MemoryModel;
using core::Outcome;
using core::Program;

class BothEngines : public ::testing::TestWithParam<Engine> {
 protected:
  [[nodiscard]] bool allowed(const litmus::LitmusTest& test,
                             const MemoryModel& model) const {
    const Analysis an(test.program());
    return core::is_allowed(an, model, test.outcome(), GetParam());
  }
};

INSTANTIATE_TEST_SUITE_P(Engines, BothEngines,
                         ::testing::Values(Engine::Sat, Engine::Explicit),
                         [](const auto& param_info) {
                           return param_info.param == Engine::Sat ? "Sat"
                                                                  : "Explicit";
                         });

// ---------------------------------------------------------------------------
// Analysis
// ---------------------------------------------------------------------------

TEST(Analysis, ResolvesIndirectAddressesAndStoreValues) {
  const auto t = litmus::l8();
  const Analysis an(t.program());
  // T1: Write X; Read X; DepConst; Read [t1] where t1 points at Y.
  EXPECT_EQ(an.event(0).loc, 0);
  EXPECT_EQ(an.event(1).loc, 0);
  EXPECT_EQ(an.event(3).loc, 1);  // resolved to Y
  EXPECT_TRUE(an.same_addr(0, 1));
  EXPECT_FALSE(an.same_addr(1, 3));
}

TEST(Analysis, DataDependencyThroughDepConst) {
  const auto t = litmus::l4();
  const Analysis an(t.program());
  const auto r_y = an.event_id(1, 0);   // Read Y -> r1
  const auto dep = an.event_id(1, 1);   // t1 = r1-r1+X
  const auto r_x = an.event_id(1, 2);   // Read [t1] -> r2
  EXPECT_TRUE(an.data_dep(r_y, dep));
  EXPECT_TRUE(an.data_dep(r_y, r_x));   // transitive through the DepConst
  EXPECT_TRUE(an.data_dep(dep, r_x));
  EXPECT_FALSE(an.data_dep(r_y, an.event_id(0, 0)));  // cross-thread: never
}

TEST(Analysis, DataDependencyOnStoreValue) {
  const auto t = litmus::l6();
  const Analysis an(t.program());
  const auto r_x = an.event_id(0, 0);
  const auto w_y = an.event_id(0, 2);
  EXPECT_TRUE(an.data_dep(r_x, w_y));
}

TEST(Analysis, ControlDependencyThroughBranch) {
  Program p;
  p.add_thread({core::make_read(0, 1), core::make_branch(1),
                core::make_write(1, 1), core::make_read(2, 2)});
  const Analysis an(p);
  EXPECT_TRUE(an.ctrl_dep(0, 2));   // read -> branch -> write
  EXPECT_TRUE(an.ctrl_dep(0, 3));   // and everything after the branch
  EXPECT_FALSE(an.ctrl_dep(0, 1));  // the branch itself: data, not control
  EXPECT_TRUE(an.data_dep(0, 1));
  EXPECT_FALSE(an.ctrl_dep(2, 3));  // the write does not feed the branch
}

TEST(Analysis, NoFalseDependencies) {
  const auto t = litmus::l3();
  const Analysis an(t.program());
  const auto r_y = an.event_id(1, 0);
  const auto r_x = an.event_id(1, 1);
  EXPECT_FALSE(an.data_dep(r_y, r_x));
}

// ---------------------------------------------------------------------------
// Program validation
// ---------------------------------------------------------------------------

TEST(ProgramValidation, AMutatedMarkedProgramIsValidatedAgain) {
  // A test's program is validated and marked once; Analysis trusts the
  // mark, and any mutation through the program clears it.
  const auto test = litmus::l8();
  EXPECT_TRUE(test.program().marked_valid());
  Program p = test.program();
  EXPECT_TRUE(p.marked_valid());
  p.mutable_thread(0).push_back(core::make_read(0, 1));  // r1 redefined
  EXPECT_FALSE(p.marked_valid());
  EXPECT_THROW((void)Analysis{p}, std::invalid_argument);
  Program q = test.program();
  q.add_thread({core::make_read(0, 1)});
  EXPECT_FALSE(q.marked_valid());
  EXPECT_THROW((void)Analysis{q}, std::invalid_argument);
  Program fixed;
  fixed.add_thread({core::make_read(0, 1)});
  fixed.validate_and_mark();
  EXPECT_TRUE(fixed.marked_valid());
  EXPECT_NO_THROW((void)Analysis{fixed});
}

TEST(ProgramValidation, AnInvalidRawProgramStillThrowsFromAnalysis) {
  Program p;
  p.add_thread({core::make_read(0, 1), core::make_read(1, 1)});
  EXPECT_FALSE(p.marked_valid());
  EXPECT_THROW((void)Analysis{p}, std::invalid_argument);
  Analysis reused;
  EXPECT_THROW(reused.reset(p), std::invalid_argument);
}

TEST(ProgramValidation, RejectsDoubleDefinition) {
  Program p;
  p.add_thread({core::make_read(0, 1), core::make_read(1, 1)});
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(ProgramValidation, RejectsUseBeforeDefinition) {
  Program p;
  p.add_thread({core::make_read_indirect(1, 2), core::make_dep_const(1, 2, 0)});
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(ProgramValidation, RejectsCrossThreadRegisterUse) {
  Program p;
  p.add_thread({core::make_read(0, 1)});
  p.add_thread({core::make_branch(1)});
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(ProgramValidation, RejectsDynamicAddressRegister) {
  Program p;
  // Address register defined by a Read: not statically resolvable.
  p.add_thread({core::make_read(0, 1), core::make_read_indirect(1, 2)});
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

/// The message Program::validate throws ("" if it accepts).
std::string validation_error(const Program& p) {
  try {
    p.validate();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(ProgramValidation, ReportsViolationsInProgramOrder) {
  // r1 is redefined later in program order than r2 is, though r1 sorts
  // first; a redefinition is reported before an earlier bad use.
  Program redefinitions;
  redefinitions.add_thread({core::make_read(0, 2), core::make_read(1, 1),
                            core::make_read(2, 2)});
  redefinitions.add_thread({core::make_read(0, 1)});
  EXPECT_EQ(validation_error(redefinitions),
            "register r2 defined more than once");
  Program use_then_redefinition;
  use_then_redefinition.add_thread({core::make_branch(5), core::make_read(0, 0),
                                    core::make_read(1, 0)});
  EXPECT_EQ(validation_error(use_then_redefinition),
            "register r0 defined more than once");
  Program uses;
  uses.add_thread({core::make_branch(5), core::make_read_indirect(3, 4),
                   core::make_dep_const(3, 4, 0)});
  EXPECT_EQ(validation_error(uses), "register r5 used but never defined");
}

TEST(ProgramValidation, AcceptsCatalog) {
  for (const auto& t : litmus::full_catalog()) {
    EXPECT_NO_THROW(t.program().validate()) << t.name();
  }
}

// ---------------------------------------------------------------------------
// Read-from enumeration
// ---------------------------------------------------------------------------

TEST(ReadFrom, OutcomePinsSourcesForStoreBuffering) {
  const auto t = litmus::store_buffering();
  const Analysis an(t.program());
  const auto rfs = core::enumerate_read_from(an, t.outcome());
  // Both reads must read the initial value: exactly one map.
  ASSERT_EQ(rfs.size(), 1u);
  for (const auto r : an.reads()) {
    EXPECT_EQ(rfs[0][static_cast<std::size_t>(r)], core::kReadsInitial);
  }
}

TEST(ReadFrom, UnconstrainedOutcomeEnumeratesAllSources) {
  const auto t = litmus::store_buffering();
  const Analysis an(t.program());
  // No constraints: each read has {initial, the other thread's write}.
  const auto rfs = core::enumerate_read_from(an, Outcome{});
  EXPECT_EQ(rfs.size(), 4u);
}

TEST(ReadFrom, ImpossibleValueYieldsNoMaps) {
  const auto t = litmus::store_buffering();
  const Analysis an(t.program());
  Outcome o;
  o.require(1, 42);  // nobody writes 42
  EXPECT_TRUE(core::enumerate_read_from(an, o).empty());
}

TEST(ReadFrom, ForbidsFutureLocalWriteAsSource) {
  Program p;
  p.add_thread({core::make_read(0, 1), core::make_write(0, 7)});
  const Analysis an(p);
  Outcome o;
  o.require(1, 7);
  EXPECT_TRUE(core::enumerate_read_from(an, o).empty());
}

TEST(ReadFrom, ConstraintOnDepConstRegisterCheckedStatically) {
  const auto t = litmus::l6();
  const Analysis an(t.program());
  Outcome o;
  o.require(3, 1);  // t1 = r1-r1+1 is statically 1
  EXPECT_FALSE(core::enumerate_read_from(an, o).empty());
  Outcome bad;
  bad.require(3, 2);
  EXPECT_TRUE(core::enumerate_read_from(an, bad).empty());
}

// ---------------------------------------------------------------------------
// Single-thread sanity: coherence falls out of the axioms even for the
// weakest model (F = false).
// ---------------------------------------------------------------------------

TEST_P(BothEngines, ReadOwnWriteIsVisibleEvenInWeakestModel) {
  const MemoryModel weakest("weakest", core::f_false());
  Program p;
  p.add_thread({core::make_write(0, 1), core::make_read(0, 1)});
  const Analysis an(p);
  Outcome sees_write;
  sees_write.require(1, 1);
  EXPECT_TRUE(core::is_allowed(an, weakest, sees_write, GetParam()));
  Outcome sees_initial;
  sees_initial.require(1, 0);
  EXPECT_FALSE(core::is_allowed(an, weakest, sees_initial, GetParam()));
}

TEST_P(BothEngines, LocalWritesToOneAddressStayOrdered) {
  const MemoryModel weakest("weakest", core::f_false());
  Program p;
  p.add_thread({core::make_write(0, 1), core::make_write(0, 2),
                core::make_read(0, 1)});
  const Analysis an(p);
  Outcome stale;
  stale.require(1, 1);  // reading the first write after the second: no
  EXPECT_FALSE(core::is_allowed(an, weakest, stale, GetParam()));
  Outcome fresh;
  fresh.require(1, 2);
  EXPECT_TRUE(core::is_allowed(an, weakest, fresh, GetParam()));
}

// ---------------------------------------------------------------------------
// Paper verdicts: Figure 1
// ---------------------------------------------------------------------------

TEST_P(BothEngines, TestA_AllowedUnderTsoForbiddenUnderScAndIbm370) {
  const auto t = litmus::test_a();
  EXPECT_TRUE(allowed(t, models::tso()));
  EXPECT_TRUE(allowed(t, models::x86()));
  EXPECT_FALSE(allowed(t, models::sc()));
  EXPECT_FALSE(allowed(t, models::ibm370()));
}

// ---------------------------------------------------------------------------
// Paper verdicts: SC forbids everything in the catalog
// ---------------------------------------------------------------------------

TEST_P(BothEngines, ScForbidsEveryCatalogRelaxation) {
  const auto sc = models::sc();
  for (const auto& t : litmus::full_catalog()) {
    EXPECT_FALSE(allowed(t, sc)) << t.name();
  }
}

// ---------------------------------------------------------------------------
// Paper verdicts: TSO
// ---------------------------------------------------------------------------

TEST_P(BothEngines, TsoVerdictsMatchThePaper) {
  const auto tso = models::tso();
  EXPECT_TRUE(allowed(litmus::l7(), tso));   // SB relaxation
  EXPECT_TRUE(allowed(litmus::l8(), tso));   // store forwarding
  // L9 is forbidden under TSO even with forwarding: the cycle closes
  // through TSO's write-write program-order edge (L9 only detects
  // same-address write-read reordering in models that relax write-write,
  // cf. Case 5 of Theorem 1).
  EXPECT_FALSE(allowed(litmus::l9(), tso));
  EXPECT_FALSE(allowed(litmus::l1(), tso));
  EXPECT_FALSE(allowed(litmus::l2(), tso));
  EXPECT_FALSE(allowed(litmus::l3(), tso));
  EXPECT_FALSE(allowed(litmus::l4(), tso));
  EXPECT_FALSE(allowed(litmus::l5(), tso));
  EXPECT_FALSE(allowed(litmus::l6(), tso));
  EXPECT_FALSE(allowed(litmus::message_passing(), tso));
  EXPECT_FALSE(allowed(litmus::load_buffering(), tso));
  EXPECT_FALSE(allowed(litmus::corr(), tso));
  EXPECT_FALSE(allowed(litmus::two_plus_two_w(), tso));
}

// ---------------------------------------------------------------------------
// Paper verdicts: PSO = TSO + write-write relaxation
// ---------------------------------------------------------------------------

TEST_P(BothEngines, PsoVerdictsMatchThePaper) {
  const auto pso = models::pso();
  EXPECT_TRUE(allowed(litmus::l1(), pso));
  EXPECT_TRUE(allowed(litmus::l7(), pso));
  EXPECT_TRUE(allowed(litmus::l8(), pso));  // forwarding, as in TSO
  EXPECT_TRUE(allowed(litmus::l9(), pso));  // write-write relaxed: L9 opens
  EXPECT_TRUE(allowed(litmus::two_plus_two_w(), pso));
  EXPECT_FALSE(allowed(litmus::l2(), pso));
  EXPECT_FALSE(allowed(litmus::l3(), pso));  // fence pins the writes
  EXPECT_FALSE(allowed(litmus::l4(), pso));
  EXPECT_FALSE(allowed(litmus::l5(), pso));
  EXPECT_FALSE(allowed(litmus::l6(), pso));
}

// ---------------------------------------------------------------------------
// Paper verdicts: IBM370 = TSO minus store forwarding
// ---------------------------------------------------------------------------

TEST_P(BothEngines, Ibm370ForbidsForwardingButAllowsSb) {
  const auto ibm = models::ibm370();
  EXPECT_TRUE(allowed(litmus::l7(), ibm));
  EXPECT_FALSE(allowed(litmus::l8(), ibm));
  EXPECT_FALSE(allowed(litmus::l9(), ibm));
  EXPECT_FALSE(allowed(litmus::test_a(), ibm));
}

// ---------------------------------------------------------------------------
// Paper verdicts: RMO relaxes everything but dependencies
// ---------------------------------------------------------------------------

TEST_P(BothEngines, RmoVerdictsMatchThePaper) {
  const auto rmo = models::rmo_no_ctrl();
  EXPECT_TRUE(allowed(litmus::l1(), rmo));
  EXPECT_TRUE(allowed(litmus::l2(), rmo));  // same-address reads reorder
  EXPECT_TRUE(allowed(litmus::l3(), rmo));
  EXPECT_TRUE(allowed(litmus::l5(), rmo));
  EXPECT_TRUE(allowed(litmus::l7(), rmo));
  EXPECT_TRUE(allowed(litmus::l8(), rmo));
  EXPECT_TRUE(allowed(litmus::l9(), rmo));
  EXPECT_FALSE(allowed(litmus::l4(), rmo));  // address dependency holds
  EXPECT_FALSE(allowed(litmus::l6(), rmo));  // data dependency holds
}

// ---------------------------------------------------------------------------
// Store atomicity: IRIW is forbidden across the entire class (fenced).
// ---------------------------------------------------------------------------

TEST_P(BothEngines, IriwForbiddenForAllNamedModels) {
  for (const auto& m : models::all_named_models()) {
    EXPECT_FALSE(allowed(litmus::iriw(), m)) << m.name();
  }
}

// ---------------------------------------------------------------------------
// Fences restore SC for the named models on the catalog shapes
// ---------------------------------------------------------------------------

TEST_P(BothEngines, FullyFencedSbIsForbiddenEverywhere) {
  Program p;
  p.add_thread({core::make_write(0, 1), core::make_fence(),
                core::make_read(1, 1)});
  p.add_thread({core::make_write(1, 1), core::make_fence(),
                core::make_read(0, 2)});
  const Analysis an(p);
  Outcome o;
  o.require(1, 0);
  o.require(2, 0);
  for (const auto& m : models::all_named_models()) {
    EXPECT_FALSE(core::is_allowed(an, m, o, GetParam())) << m.name();
  }
}

// ---------------------------------------------------------------------------
// Witness extraction
// ---------------------------------------------------------------------------

TEST_P(BothEngines, WitnessOrderIsConsistentLinearization) {
  const auto t = litmus::test_a();
  const Analysis an(t.program());
  const auto result = core::check(an, models::tso(), t.outcome(), GetParam());
  ASSERT_TRUE(result.allowed);
  EXPECT_EQ(result.order.size(), static_cast<std::size_t>(an.num_events()));
  // The order must embed the forced program-order edges of TSO.
  const auto model = models::tso();
  std::vector<int> position(result.order.size());
  for (std::size_t i = 0; i < result.order.size(); ++i) {
    position[static_cast<std::size_t>(result.order[i])] = static_cast<int>(i);
  }
  for (core::EventId x = 0; x < an.num_events(); ++x) {
    for (core::EventId y = 0; y < an.num_events(); ++y) {
      if (x != y && an.po(x, y) && model.must_not_reorder(an, x, y)) {
        EXPECT_LT(position[static_cast<std::size_t>(x)],
                  position[static_cast<std::size_t>(y)]);
      }
    }
  }
}

}  // namespace
}  // namespace mcmc
