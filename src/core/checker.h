// Litmus-test admissibility checking (the paper's Section 4.1 tool core).
//
// A test outcome is allowed under a model iff SOME read-from map consistent
// with the outcome admits SOME acyclic happens-before partial order
// satisfying the axioms.  Two independent engines decide the inner
// existence question:
//
//   Engine::Sat       encodes the partial order into CNF (one boolean per
//                     ordered event pair; antisymmetry + transitivity +
//                     the HbProblem constraints) and runs the CDCL solver —
//                     the architecture the paper describes (it used
//                     MiniSat).
//   Engine::Explicit  depth-first search over the write-write / read-write
//                     disjunctions with an incrementally maintained
//                     transitive closure (bitmask rows).
//
// Both engines are the oracles the tests check the production path
// against: engine::VerdictEngine decides every cell through
// core::PreparedTest (prepared.h), which runs the explicit search up to
// 64 events and SAT beyond.  The engines are differential-tested against
// each other; Explicit is the default because the instances are tiny.
#pragma once

#include <vector>

#include "core/analysis.h"
#include "core/hb.h"
#include "core/model.h"
#include "core/outcome.h"
#include "core/readfrom.h"
#include "sat/types.h"

namespace mcmc::core {

enum class Engine { Sat, Explicit };

/// The CNF encoding the SAT engine solves: one boolean per ordered event
/// pair (variable i*n + j for the pair (i, j)), antisymmetry and
/// transitivity clauses, plus the HbProblem constraints.  Exposed for
/// tooling (DIMACS export) and for differential-testing the encoding
/// itself.
[[nodiscard]] sat::Cnf hb_to_cnf(const HbProblem& p);

/// Result of a full admissibility check.
struct CheckResult {
  bool allowed = false;
  /// Witnesses, populated when allowed:
  RfMap rf;                     ///< the admitting read-from map
  std::vector<EventId> order;   ///< a linearization of the witness hb
};

/// Decides whether an acyclic partial order satisfying `p` exists.
[[nodiscard]] bool hb_satisfiable(const HbProblem& p, Engine engine);

/// As `hb_satisfiable`, and returns a linearization witness through `order`
/// when satisfiable.
[[nodiscard]] bool hb_satisfiable_witness(const HbProblem& p, Engine engine,
                                          std::vector<EventId>& order);

/// Decides whether `outcome` is allowed for the analyzed program under
/// `model`.
[[nodiscard]] bool is_allowed(const Analysis& analysis,
                              const MemoryModel& model, const Outcome& outcome,
                              Engine engine = Engine::Explicit);

/// As `is_allowed`, with witnesses.
[[nodiscard]] CheckResult check(const Analysis& analysis,
                                const MemoryModel& model,
                                const Outcome& outcome,
                                Engine engine = Engine::Explicit);

}  // namespace mcmc::core
