#include "core/checker.h"

#include <algorithm>
#include <cstdint>

#include "core/closure_search.h"
#include "sat/solver.h"
#include "util/check.h"

namespace mcmc::core {

namespace {

// ---------------------------------------------------------------------------
// SAT engine
// ---------------------------------------------------------------------------

/// Boolean variable for the ordered pair (i, j); the diagonal is unused but
/// keeping the dense layout is simpler than compacting it.
sat::Var pair_var(int n, EventId i, EventId j) {
  return static_cast<sat::Var>(i * n + j);
}

bool sat_engine(const HbProblem& p, std::vector<EventId>* order) {
  const int n = p.num_events;
  sat::Solver solver;
  for (int i = 0; i < n * n; ++i) solver.new_var();
  for (const auto& clause : hb_to_cnf(p).clauses) solver.add_clause(clause);

  if (!solver.solve()) return false;

  if (order != nullptr) {
    // Linearize the model's partial order with Kahn's algorithm over
    // precomputed in-degrees (O(n^2), vs the O(n^3) emit-scan it
    // replaced).
    const auto has_edge = [&](EventId u, EventId v) {
      return u != v && solver.model_value(pair_var(n, u, v));
    };
    std::vector<int> indeg(static_cast<std::size_t>(n), 0);
    for (EventId u = 0; u < n; ++u) {
      for (EventId v = 0; v < n; ++v) {
        if (has_edge(u, v)) ++indeg[static_cast<std::size_t>(v)];
      }
    }
    std::vector<EventId> queue;
    queue.reserve(static_cast<std::size_t>(n));
    for (EventId v = 0; v < n; ++v) {
      if (indeg[static_cast<std::size_t>(v)] == 0) queue.push_back(v);
    }
    order->clear();
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const EventId u = queue[head];
      order->push_back(u);
      for (EventId v = 0; v < n; ++v) {
        if (has_edge(u, v) && --indeg[static_cast<std::size_t>(v)] == 0) {
          queue.push_back(v);
        }
      }
    }
    MCMC_CHECK_MSG(static_cast<int>(order->size()) == n,
                   "SAT model was not acyclic");
  }
  return true;
}

// ---------------------------------------------------------------------------
// Explicit engine
// ---------------------------------------------------------------------------

/// Decides one HbProblem with the shared allocation-free closure DFS
/// (core/closure_search.h): fixed bitmask-array state, frame-local stack
/// copies in the disjunction search, Kahn's-algorithm linearization.
bool explicit_engine(const HbProblem& p, std::vector<EventId>* order) {
  detail::ClosureSearch search(p.num_events);
  for (const auto& [x, y] : p.forbidden) search.forbid(x, y);
  detail::Reach64 reach;
  reach.clear(p.num_events);
  for (const auto& [x, y] : p.forced) {
    if (!search.add_edge(reach, x, y)) return false;
  }
  if (!search.solve(reach, p.disjunctions.data(), p.disjunctions.size())) {
    return false;
  }
  if (order != nullptr) {
    detail::kahn_linearize(search.witness(), p.num_events, *order);
  }
  return true;
}

}  // namespace

sat::Cnf hb_to_cnf(const HbProblem& p) {
  const int n = p.num_events;
  sat::Cnf cnf;
  cnf.num_vars = n * n;
  // Antisymmetry (which, with transitivity, yields acyclicity).
  for (EventId i = 0; i < n; ++i) {
    for (EventId j = i + 1; j < n; ++j) {
      cnf.clauses.push_back({sat::Lit::neg(pair_var(n, i, j)),
                             sat::Lit::neg(pair_var(n, j, i))});
    }
  }
  // Transitivity.
  for (EventId i = 0; i < n; ++i) {
    for (EventId j = 0; j < n; ++j) {
      if (j == i) continue;
      for (EventId k = 0; k < n; ++k) {
        if (k == i || k == j) continue;
        cnf.clauses.push_back({sat::Lit::neg(pair_var(n, i, j)),
                               sat::Lit::neg(pair_var(n, j, k)),
                               sat::Lit::pos(pair_var(n, i, k))});
      }
    }
  }
  for (const auto& [x, y] : p.forced) {
    cnf.clauses.push_back({sat::Lit::pos(pair_var(n, x, y))});
  }
  for (const auto& [x, y] : p.forbidden) {
    cnf.clauses.push_back({sat::Lit::neg(pair_var(n, x, y))});
  }
  for (const auto& d : p.disjunctions) {
    cnf.clauses.push_back(
        {sat::Lit::pos(pair_var(n, d.first.first, d.first.second)),
         sat::Lit::pos(pair_var(n, d.second.first, d.second.second))});
  }
  return cnf;
}

bool hb_satisfiable(const HbProblem& p, Engine engine) {
  if (p.infeasible) return false;
  if (engine == Engine::Sat) return sat_engine(p, nullptr);
  return explicit_engine(p, nullptr);
}

bool hb_satisfiable_witness(const HbProblem& p, Engine engine,
                            std::vector<EventId>& order) {
  if (p.infeasible) return false;
  if (engine == Engine::Sat) return sat_engine(p, &order);
  return explicit_engine(p, &order);
}

bool is_allowed(const Analysis& analysis, const MemoryModel& model,
                const Outcome& outcome, Engine engine) {
  for (const RfMap& rf : enumerate_read_from(analysis, outcome)) {
    const HbProblem p = build_hb_problem(analysis, model, rf);
    if (hb_satisfiable(p, engine)) return true;
  }
  return false;
}

CheckResult check(const Analysis& analysis, const MemoryModel& model,
                  const Outcome& outcome, Engine engine) {
  CheckResult result;
  for (const RfMap& rf : enumerate_read_from(analysis, outcome)) {
    const HbProblem p = build_hb_problem(analysis, model, rf);
    std::vector<EventId> order;
    if (hb_satisfiable_witness(p, engine, order)) {
      result.allowed = true;
      result.rf = rf;
      result.order = std::move(order);
      return result;
    }
  }
  return result;
}

}  // namespace mcmc::core
