// Unit and property tests for the CDCL SAT solver (src/sat).
#include <gtest/gtest.h>

#include "cnf_reference.h"
#include "sat/solver.h"
#include "util/rng.h"

namespace mcmc::sat {
namespace {

Lit P(Var v) { return Lit::pos(v); }
Lit N(Var v) { return Lit::neg(v); }

TEST(SatSolver, EmptyFormulaIsSat) {
  Solver s;
  EXPECT_TRUE(s.solve());
}

TEST(SatSolver, SingleUnit) {
  Solver s;
  const Var a = s.new_var();
  s.add_unit(P(a));
  ASSERT_TRUE(s.solve());
  EXPECT_TRUE(s.model_value(a));
}

TEST(SatSolver, ContradictoryUnitsAreUnsat) {
  Solver s;
  const Var a = s.new_var();
  s.add_unit(P(a));
  s.add_unit(N(a));
  EXPECT_FALSE(s.solve());
  EXPECT_TRUE(s.conflicting());
}

TEST(SatSolver, TautologyIsIgnored) {
  Solver s;
  const Var a = s.new_var();
  s.add_binary(P(a), N(a));
  EXPECT_TRUE(s.solve());
}

TEST(SatSolver, DuplicateLiteralsAreMerged) {
  Solver s;
  const Var a = s.new_var();
  s.add_clause({P(a), P(a), P(a)});
  ASSERT_TRUE(s.solve());
  EXPECT_TRUE(s.model_value(a));
}

TEST(SatSolver, UnitPropagationChain) {
  Solver s;
  const Var a = s.new_var();
  const Var b = s.new_var();
  const Var c = s.new_var();
  s.add_unit(P(a));
  s.add_binary(N(a), P(b));   // a -> b
  s.add_binary(N(b), P(c));   // b -> c
  ASSERT_TRUE(s.solve());
  EXPECT_TRUE(s.model_value(a));
  EXPECT_TRUE(s.model_value(b));
  EXPECT_TRUE(s.model_value(c));
}

TEST(SatSolver, ImplicationCycleWithNegationIsUnsat) {
  Solver s;
  const Var a = s.new_var();
  const Var b = s.new_var();
  // a -> b, b -> a, a | b, ~a | ~b is satisfiable? a->b & b->a forces a==b;
  // (a|b) forces both true; (~a|~b) then fails.
  s.add_binary(N(a), P(b));
  s.add_binary(N(b), P(a));
  s.add_binary(P(a), P(b));
  s.add_binary(N(a), N(b));
  EXPECT_FALSE(s.solve());
}

TEST(SatSolver, XorChainSat) {
  // x1 xor x2 = 1, x2 xor x3 = 1, x1 xor x3 = 0: satisfiable.
  Solver s;
  const Var x1 = s.new_var();
  const Var x2 = s.new_var();
  const Var x3 = s.new_var();
  auto add_xor = [&](Var u, Var v, bool value) {
    if (value) {
      s.add_binary(P(u), P(v));
      s.add_binary(N(u), N(v));
    } else {
      s.add_binary(P(u), N(v));
      s.add_binary(N(u), P(v));
    }
  };
  add_xor(x1, x2, true);
  add_xor(x2, x3, true);
  add_xor(x1, x3, false);
  ASSERT_TRUE(s.solve());
  EXPECT_NE(s.model_value(x1), s.model_value(x2));
  EXPECT_NE(s.model_value(x2), s.model_value(x3));
  EXPECT_EQ(s.model_value(x1), s.model_value(x3));
}

TEST(SatSolver, XorTriangleUnsat) {
  // Odd cycle of xors summing to 1 is unsatisfiable.
  Solver s;
  const Var x1 = s.new_var();
  const Var x2 = s.new_var();
  const Var x3 = s.new_var();
  auto add_xor = [&](Var u, Var v, bool value) {
    if (value) {
      s.add_binary(P(u), P(v));
      s.add_binary(N(u), N(v));
    } else {
      s.add_binary(P(u), N(v));
      s.add_binary(N(u), P(v));
    }
  };
  add_xor(x1, x2, true);
  add_xor(x2, x3, true);
  add_xor(x1, x3, true);
  EXPECT_FALSE(s.solve());
}

/// Pigeonhole principle: n+1 pigeons in n holes; classically hard, UNSAT.
Cnf pigeonhole(int holes) {
  Cnf cnf;
  const int pigeons = holes + 1;
  cnf.num_vars = pigeons * holes;
  auto var = [&](int p, int h) { return static_cast<Var>(p * holes + h); };
  for (int p = 0; p < pigeons; ++p) {
    Clause c;
    for (int h = 0; h < holes; ++h) c.push_back(Lit::pos(var(p, h)));
    cnf.clauses.push_back(c);
  }
  for (int h = 0; h < holes; ++h) {
    for (int p1 = 0; p1 < pigeons; ++p1) {
      for (int p2 = p1 + 1; p2 < pigeons; ++p2) {
        cnf.clauses.push_back({Lit::neg(var(p1, h)), Lit::neg(var(p2, h))});
      }
    }
  }
  return cnf;
}

void load(Solver& s, const Cnf& cnf) {
  for (int i = 0; i < cnf.num_vars; ++i) s.new_var();
  for (const auto& c : cnf.clauses) s.add_clause(c);
}

TEST(SatSolver, PigeonholeUnsat) {
  for (int holes = 1; holes <= 5; ++holes) {
    Solver s;
    load(s, pigeonhole(holes));
    EXPECT_FALSE(s.solve()) << "pigeonhole(" << holes << ")";
  }
}

TEST(SatSolver, AssumptionsRestrictThenRelax) {
  Solver s;
  const Var a = s.new_var();
  const Var b = s.new_var();
  s.add_binary(P(a), P(b));
  EXPECT_TRUE(s.solve({N(a), N(b)}) == false);
  EXPECT_TRUE(s.solve({N(a)}));
  EXPECT_TRUE(s.model_value(b));
  EXPECT_TRUE(s.solve());  // relaxed again
}

TEST(SatSolver, IncrementalAddingClausesBetweenSolves) {
  Solver s;
  const Var a = s.new_var();
  const Var b = s.new_var();
  EXPECT_TRUE(s.solve());
  s.add_binary(P(a), P(b));
  EXPECT_TRUE(s.solve());
  s.add_unit(N(a));
  ASSERT_TRUE(s.solve());
  EXPECT_TRUE(s.model_value(b));
  s.add_unit(N(b));
  EXPECT_FALSE(s.solve());
}

TEST(SatSolver, StatisticsReflectSearchEffort) {
  Solver s;
  load(s, pigeonhole(5));
  EXPECT_FALSE(s.solve());
  EXPECT_GT(s.stats().conflicts, 0u);
  EXPECT_GT(s.stats().decisions, 0u);
  EXPECT_GT(s.stats().propagations, 0u);
  EXPECT_GT(s.stats().learned_clauses, 0u);
}

TEST(SatSolver, SolveAfterLevelZeroConflictStaysUnsat) {
  Solver s;
  const Var a = s.new_var();
  s.add_unit(P(a));
  s.add_unit(N(a));
  EXPECT_FALSE(s.solve());
  EXPECT_FALSE(s.solve());  // sticky
  EXPECT_FALSE(s.solve({P(a)}));
}

TEST(SatSolver, WideClauseWatchesMigrate) {
  // A 6-literal clause whose watched literals are falsified one by one.
  Solver s;
  std::vector<Var> vars;
  Clause c;
  for (int i = 0; i < 6; ++i) {
    vars.push_back(s.new_var());
    c.push_back(P(vars.back()));
  }
  s.add_clause(c);
  std::vector<Lit> assumptions;
  for (int i = 0; i < 5; ++i) assumptions.push_back(N(vars[i]));
  ASSERT_TRUE(s.solve(assumptions));
  EXPECT_TRUE(s.model_value(vars[5]));
}

TEST(Dimacs, RoundTrip) {
  Cnf cnf;
  cnf.num_vars = 3;
  cnf.clauses = {{P(0), N(1)}, {P(2)}, {N(0), P(1), N(2)}};
  const auto text = to_dimacs(cnf);
  const Cnf back = parse_dimacs(text);
  EXPECT_EQ(back.num_vars, cnf.num_vars);
  ASSERT_EQ(back.clauses.size(), cnf.clauses.size());
  for (std::size_t i = 0; i < cnf.clauses.size(); ++i) {
    EXPECT_EQ(back.clauses[i], cnf.clauses[i]);
  }
}

TEST(Dimacs, RejectsMalformed) {
  EXPECT_THROW(parse_dimacs("1 2 0\n"), std::invalid_argument);
  EXPECT_THROW(parse_dimacs("p cnf 2 1\n1 3 0\n"), std::invalid_argument);
  EXPECT_THROW(parse_dimacs("p cnf 2 2\n1 2 0\n"), std::invalid_argument);
  EXPECT_THROW(parse_dimacs("p cnf 2 1\n1 2\n"), std::invalid_argument);
}

/// Random 3-SAT instances, differential-tested against brute force.
class RandomCnfDifferential : public ::testing::TestWithParam<int> {};

Cnf random_cnf(util::Rng& rng, int num_vars, int num_clauses) {
  Cnf cnf;
  cnf.num_vars = num_vars;
  for (int c = 0; c < num_clauses; ++c) {
    Clause clause;
    const int len = 1 + static_cast<int>(rng.below(3));
    for (int k = 0; k < len; ++k) {
      const auto v =
          static_cast<Var>(rng.below(static_cast<std::uint64_t>(num_vars)));
      clause.push_back(Lit(v, rng.chance(1, 2)));
    }
    cnf.clauses.push_back(clause);
  }
  return cnf;
}

bool model_satisfies(const Cnf& cnf, const Solver& s) {
  for (const auto& clause : cnf.clauses) {
    bool sat = false;
    for (const Lit l : clause) {
      if (s.model_value(l.var()) != l.negated()) {
        sat = true;
        break;
      }
    }
    if (!sat) return false;
  }
  return true;
}

TEST_P(RandomCnfDifferential, AgreesWithBruteForce) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  for (int iter = 0; iter < 40; ++iter) {
    const int num_vars = 3 + static_cast<int>(rng.below(10));
    const int num_clauses = 2 + static_cast<int>(rng.below(50));
    const Cnf cnf = random_cnf(rng, num_vars, num_clauses);
    Solver s;
    load(s, cnf);
    const bool cdcl = s.solve();
    const bool brute = brute_force_solve(cnf).has_value();
    ASSERT_EQ(cdcl, brute) << to_dimacs(cnf);
    if (cdcl) {
      EXPECT_TRUE(model_satisfies(cnf, s)) << to_dimacs(cnf);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomCnfDifferential,
                         ::testing::Range(0, 10));

}  // namespace
}  // namespace mcmc::sat
