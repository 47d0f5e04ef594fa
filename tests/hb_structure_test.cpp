// Structural tests of the happens-before constraint builder: exact edge
// sets, origins, disjunction counts, infeasibility, and the CNF export.
#include <gtest/gtest.h>

#include <algorithm>

#include "cnf_reference.h"
#include "core/analysis.h"
#include "core/checker.h"
#include "core/hb.h"
#include "litmus/catalog.h"
#include "models/zoo.h"

namespace mcmc::core {
namespace {

/// A problem bundled with its forced-edge provenance (the hot-path
/// builder no longer records origins; the traced variant does).
struct TracedProblem {
  HbProblem p;
  HbTrace trace;
};

TracedProblem problem_for(const litmus::LitmusTest& t, const MemoryModel& m,
                          std::size_t rf_index = 0) {
  const Analysis an(t.program());
  const auto rfs = enumerate_read_from(an, t.outcome());
  EXPECT_GT(rfs.size(), rf_index);
  TracedProblem out;
  out.p = build_hb_problem_traced(an, m, rfs[rf_index], out.trace);
  return out;
}

bool has_forced(const TracedProblem& tp, EventId x, EventId y,
                EdgeOrigin origin) {
  for (std::size_t i = 0; i < tp.p.forced.size(); ++i) {
    if (tp.p.forced[i] == Edge{x, y} && tp.trace.forced_origin[i] == origin) {
      return true;
    }
  }
  return false;
}

TEST(HbStructure, StoreBufferingUnderScHasExactlyTheClassicEdges) {
  // SB events: 0=WX 1=RY (T1), 2=WY 3=RX (T2); both reads read 0.
  const auto tp = problem_for(litmus::store_buffering(), models::sc());
  EXPECT_EQ(tp.p.num_events, 4);
  EXPECT_FALSE(tp.p.infeasible);
  ASSERT_EQ(tp.p.forced.size(), 4u);
  EXPECT_TRUE(has_forced(tp, 0, 1, EdgeOrigin::ProgramOrder));
  EXPECT_TRUE(has_forced(tp, 2, 3, EdgeOrigin::ProgramOrder));
  EXPECT_TRUE(has_forced(tp, 1, 2, EdgeOrigin::FromRead));
  EXPECT_TRUE(has_forced(tp, 3, 0, EdgeOrigin::FromRead));
  EXPECT_TRUE(tp.p.disjunctions.empty());  // one write per location
  EXPECT_TRUE(tp.p.forbidden.empty());
}

TEST(HbStructure, StoreBufferingUnderTsoDropsTheProgramOrderEdges) {
  const auto tp = problem_for(litmus::store_buffering(), models::tso());
  ASSERT_EQ(tp.p.forced.size(), 2u);  // only the two from-read edges
  EXPECT_TRUE(has_forced(tp, 1, 2, EdgeOrigin::FromRead));
  EXPECT_TRUE(has_forced(tp, 3, 0, EdgeOrigin::FromRead));
}

TEST(HbStructure, TestAUnderTsoShowsNoLocalReadFromEdge) {
  // Events: 0=WX 1=Fence 2=RY (T1); 3=WY 4=RY 5=RX (T2).
  // r2 reads the local write WY: no ReadFrom edge may be generated.
  const auto tp = problem_for(litmus::test_a(), models::tso());
  for (std::size_t i = 0; i < tp.p.forced.size(); ++i) {
    const bool local_rf_edge =
        tp.trace.forced_origin[i] == EdgeOrigin::ReadFrom &&
        tp.p.forced[i] == Edge(3, 4);
    EXPECT_FALSE(local_rf_edge);
  }
  // The fence pins T1 (WX => Fence => RY), and TSO's Read(x) pins RY=>RX.
  EXPECT_TRUE(has_forced(tp, 0, 1, EdgeOrigin::ProgramOrder));
  EXPECT_TRUE(has_forced(tp, 1, 2, EdgeOrigin::ProgramOrder));
  EXPECT_TRUE(has_forced(tp, 4, 5, EdgeOrigin::ProgramOrder));
  // From-read: RY(T1) reads 0 before WY; RX reads 0 before WX.
  EXPECT_TRUE(has_forced(tp, 2, 3, EdgeOrigin::FromRead));
  EXPECT_TRUE(has_forced(tp, 5, 0, EdgeOrigin::FromRead));
}

TEST(HbStructure, L9CoherenceEscapeIsGenerated) {
  // L9's T2 reads X from T1's write while T2's own earlier write to X is
  // unsourced: the escape co(WX_T2, WX_T1) must be a forced edge.
  const auto t = litmus::l9();
  const Analysis an(t.program());
  const auto rfs = enumerate_read_from(an, t.outcome());
  ASSERT_EQ(rfs.size(), 1u);  // values pin everything
  TracedProblem tp;
  tp.p = build_hb_problem_traced(an, models::pso(), rfs[0], tp.trace);
  const EventId wx_t1 = an.event_id(0, 0);
  const EventId wx_t2 = an.event_id(1, 2);
  EXPECT_TRUE(has_forced(tp, wx_t2, wx_t1, EdgeOrigin::CoherenceEscape));
}

TEST(HbStructure, LocalWritePairsAreCoherenceForced) {
  const auto tp = problem_for(litmus::l2(), models::tso());
  // L2: T1 has WX<-1 (0) and WX<-2 (1).
  EXPECT_TRUE(has_forced(tp, 0, 1, EdgeOrigin::Coherence));
}

TEST(HbStructure, CrossThreadWritePairsBecomeDisjunctions) {
  const auto tp = problem_for(litmus::l7(), models::tso());
  EXPECT_TRUE(tp.p.disjunctions.empty());  // different locations
  const auto tp2 = problem_for(litmus::l9(), models::tso());
  // L9 has two X-writes in different threads, but the observer read
  // forces the orientation via the escape; the ww disjunction remains
  // (harmlessly) alongside it.
  int ww_disjunctions = 0;
  for (const auto& d : tp2.p.disjunctions) {
    if (d.first.first == d.second.second && d.first.second == d.second.first) {
      ++ww_disjunctions;
    }
  }
  EXPECT_EQ(ww_disjunctions, 1);
}

TEST(HbStructure, InfeasibleRfIsFlagged) {
  // Read of the initial value with an earlier local same-address write.
  Program prog;
  prog.add_thread({make_write(0, 1), make_read(0, 1)});
  const Analysis an(prog);
  Outcome stale;
  stale.require(1, 0);
  const auto rfs = enumerate_read_from(an, stale);
  ASSERT_EQ(rfs.size(), 1u);  // the initial-value candidate
  const auto p = build_hb_problem(an, models::sc(), rfs[0]);
  EXPECT_TRUE(p.infeasible);
  EXPECT_FALSE(hb_satisfiable(p, Engine::Explicit));
  EXPECT_FALSE(hb_satisfiable(p, Engine::Sat));
}

TEST(HbStructure, CnfExportMatchesEngineVerdicts) {
  for (const auto& t : {litmus::store_buffering(), litmus::l2(),
                        litmus::l9(), litmus::test_a()}) {
    for (const auto& m : {models::sc(), models::tso()}) {
      const Analysis an(t.program());
      for (const auto& rf : enumerate_read_from(an, t.outcome())) {
        const auto p = build_hb_problem(an, m, rf);
        if (p.infeasible) continue;
        const auto cnf = hb_to_cnf(p);
        // DIMACS round-trip preserves the formula.
        const auto back = sat::parse_dimacs(sat::to_dimacs(cnf));
        EXPECT_EQ(back.num_vars, cnf.num_vars);
        EXPECT_EQ(back.clauses.size(), cnf.clauses.size());
        // Brute force on the CNF agrees with the explicit engine
        // (16 variables for 4-event problems; skip larger ones).
        if (cnf.num_vars <= 20) {
          const bool brute = sat::brute_force_solve(cnf).has_value();
          EXPECT_EQ(brute, hb_satisfiable(p, Engine::Explicit))
              << t.name() << " under " << m.name();
        }
      }
    }
  }
}

TEST(HbStructure, ForcedAndOriginStayParallel) {
  for (const auto& t : litmus::full_catalog()) {
    const Analysis an(t.program());
    for (const auto& m : models::all_named_models()) {
      for (const auto& rf : enumerate_read_from(an, t.outcome())) {
        HbTrace trace;
        const auto p = build_hb_problem_traced(an, m, rf, trace);
        if (p.infeasible) continue;
        EXPECT_EQ(p.forced.size(), trace.forced_origin.size());
        // The untraced hot-path builder emits the same constraints.
        const auto hot = build_hb_problem(an, m, rf);
        EXPECT_EQ(hot.forced, p.forced);
        EXPECT_EQ(hot.disjunctions, p.disjunctions);
        EXPECT_EQ(hot.infeasible, p.infeasible);
        // All edges reference valid events and are off-diagonal.
        for (const auto& [x, y] : p.forced) {
          EXPECT_NE(x, y);
          EXPECT_GE(x, 0);
          EXPECT_LT(y, p.num_events);
        }
      }
    }
  }
}

}  // namespace
}  // namespace mcmc::core
