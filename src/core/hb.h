// Happens-before constraint generation (Section 2.2).
//
// Given an analyzed program, a must-not-reorder function F, and a
// read-from map, the paper's axioms induce constraints on a candidate
// happens-before partial order `=>`:
//
//   Program order   F(x,y) and x <po y           =>  x => y        (forced)
//   Write-write     writes x,y to one address    =>  x=>y or y=>x  (choice;
//                                                    forced forward when
//                                                    same-thread)
//   Write-read      x |-> y across threads       =>  x => y        (forced)
//   Read-write      read x, write y to x's addr,
//                   y not x's source             =>  x=>y or y=>rf(x)
//                                                    (see hb.cpp for the
//                                                    initial-value and
//                                                    local-write cases)
//   Ignore local    restricts generated edges to never point backward
//                   within a thread (see the note in hb.cpp)
//
// The execution is allowed iff some acyclic relation satisfies all of
// them.  `HbProblem` is the engine-independent form of these constraints;
// the two deciding engines live in checker.cpp.
#pragma once

#include <utility>
#include <vector>

#include "core/analysis.h"
#include "core/model.h"
#include "core/readfrom.h"

namespace mcmc::core {

/// An ordered-pair constraint `first => second`.
using Edge = std::pair<EventId, EventId>;

/// "HB(a,b) or HB(c,d)" — exactly the shape produced by the write-write
/// and read-write axioms.
struct EdgeDisjunction {
  Edge first;
  Edge second;

  friend bool operator==(const EdgeDisjunction& a, const EdgeDisjunction& b) {
    return a.first == b.first && a.second == b.second;
  }
};

/// Which axiom produced a forced edge (used by explanations).
enum class EdgeOrigin {
  ProgramOrder,   ///< F(x,y) with x <po y
  Coherence,      ///< same-thread same-address write pair
  ReadFrom,       ///< cross-thread rf
  FromRead,       ///< read of the initial value before a write
  CoherenceEscape ///< skipped local write ordered before the read's source
};

[[nodiscard]] const char* to_string(EdgeOrigin origin);

/// Engine-independent happens-before constraint set.  Deliberately free
/// of provenance bookkeeping — this is the struct the hot check path
/// builds; explanation/witness callers use `build_hb_problem_traced` to
/// get origins alongside.
struct HbProblem {
  int num_events = 0;
  bool infeasible = false;                   ///< rf contradicts coherence
  std::vector<Edge> forced;                  ///< must be in =>
  std::vector<Edge> forbidden;               ///< must NOT be in =>
  std::vector<EdgeDisjunction> disjunctions; ///< at least one must hold
};

/// Provenance of a problem's forced edges; `forced_origin[i]` explains
/// `problem.forced[i]`.
struct HbTrace {
  std::vector<EdgeOrigin> forced_origin;
};

/// The model-independent slice of an rf map's HbProblem: every
/// constraint except the program-order (F) edges, which are the only
/// part that varies across models.  core::PreparedTest builds one per
/// rf map (flat, through the appending build_hb_skeleton) and shares it
/// across an entire model space.
struct HbSkeleton {
  bool infeasible = false;                   ///< rf contradicts coherence
  std::vector<Edge> forced;                  ///< coherence / rf / fr edges
  std::vector<EdgeDisjunction> disjunctions; ///< ww + rw choices
};

/// Instantiates the five axioms for (analysis, model, rf).
[[nodiscard]] HbProblem build_hb_problem(const Analysis& analysis,
                                         const MemoryModel& model,
                                         const RfMap& rf);

/// As `build_hb_problem`, recording each forced edge's origin into
/// `trace` (the explanation path; the hot path skips the bookkeeping).
[[nodiscard]] HbProblem build_hb_problem_traced(const Analysis& analysis,
                                                const MemoryModel& model,
                                                const RfMap& rf,
                                                HbTrace& trace);

/// Instantiates only the model-independent axioms (everything but
/// program order) for (analysis, rf).
[[nodiscard]] HbSkeleton build_hb_skeleton(const Analysis& analysis,
                                           const RfMap& rf);

/// The same skeleton for the rf map at `rf` (analysis.num_events()
/// entries), its edges appended to `forced` and `disjunctions`; returns
/// its `infeasible` flag.  Allocates only when the vectors grow.
bool build_hb_skeleton(const Analysis& analysis, const EventId* rf,
                       std::vector<Edge>& forced,
                       std::vector<EdgeDisjunction>& disjunctions);

}  // namespace mcmc::core
