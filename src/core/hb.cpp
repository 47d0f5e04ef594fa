#include "core/hb.h"

#include "util/check.h"

namespace mcmc::core {

const char* to_string(EdgeOrigin origin) {
  switch (origin) {
    case EdgeOrigin::ProgramOrder:
      return "program order (F)";
    case EdgeOrigin::Coherence:
      return "coherence of local writes";
    case EdgeOrigin::ReadFrom:
      return "read-from";
    case EdgeOrigin::FromRead:
      return "from-read (reads the initial value)";
    case EdgeOrigin::CoherenceEscape:
      return "coherence (skipped local write precedes the source)";
  }
  MCMC_UNREACHABLE("bad origin");
}

// Axiom-to-constraint translation notes (Section 2.2 of the paper):
//
// The paper's happens-before relation is generated by base edges: program
// order (where F holds), write-write orientation per address, cross-thread
// read-from, and from-read ("Read-write") edges.  The "Ignore local" rule
// (x >po y implies x does not happen-before y) restricts the *generated*
// edges, not transitive paths: Figure 1's witness execution for TSO orders
// T2's Read Y transitively before T2's earlier Write Y through the other
// thread, and the paper calls that acyclic.  Concretely:
//
//   * same-thread same-address writes are oriented in program order
//     (choosing the reverse would be a backward local edge);
//   * a from-read edge from read x to a program-order-earlier local write y
//     is illegal, so the rule's escape clause becomes mandatory:
//     y => rf(x) must hold; if x reads the initial value there is no
//     escape and the read-from map is infeasible (this is what makes a
//     read see the latest local same-address write);
//   * all other from-read obligations stay disjunctive:
//     HB(x,y) or HB(y, rf(x)).
namespace {

/// Shared axiom instantiation.  The program-order (F) section runs only
/// when `model` is non-null — `build_hb_skeleton` omits it, since it is
/// the single model-dependent part — and origins are recorded only when
/// `origins` is non-null (the traced explanation path; the hot path
/// skips the bookkeeping).  Returns true when the rf map is infeasible,
/// leaving the partially built constraint set as-is.
bool instantiate_axioms(const Analysis& an, const MemoryModel* model,
                        const EventId* rf, std::vector<Edge>& forced,
                        std::vector<EdgeDisjunction>& disjunctions,
                        std::vector<EdgeOrigin>* origins) {
  const int num_events = an.num_events();
  auto force = [&](EventId x, EventId y, EdgeOrigin origin) {
    forced.emplace_back(x, y);
    if (origins != nullptr) origins->push_back(origin);
  };

  // Program order: F(x,y) forces x => y.
  if (model != nullptr) {
    for (EventId x = 0; x < num_events; ++x) {
      for (EventId y = 0; y < num_events; ++y) {
        if (x == y || !an.po(x, y)) continue;
        if (model->must_not_reorder(an, x, y)) {
          force(x, y, EdgeOrigin::ProgramOrder);
        }
      }
    }
  }

  // Write-write: per-address orientation; same-thread pairs are forced
  // into program order by the Ignore-local rule.
  const int num_locs = an.num_locations();
  for (Loc loc = 0; loc < num_locs; ++loc) {
    const EventRange writes = an.writes_to(loc);
    for (std::size_t i = 0; i < writes.size(); ++i) {
      for (std::size_t j = i + 1; j < writes.size(); ++j) {
        const EventId a = writes[i];
        const EventId b = writes[j];
        if (an.same_thread(a, b)) {
          // Event ids are thread-major, so a precedes b in program order.
          MCMC_CHECK(an.po(a, b));
          force(a, b, EdgeOrigin::Coherence);
        } else {
          disjunctions.push_back({{a, b}, {b, a}});
        }
      }
    }
  }

  // Write-read (cross-thread read-from) and Read-write (from-read).
  for (const EventId r : an.reads()) {
    const EventId src = rf[static_cast<std::size_t>(r)];
    if (src != kReadsInitial && !an.same_thread(src, r)) {
      force(src, r, EdgeOrigin::ReadFrom);
    }
    for (const EventId w : an.writes_to(an.event(r).loc)) {
      if (w == src) continue;
      const bool w_local_earlier = an.same_thread(w, r) && an.po(w, r);
      if (src == kReadsInitial) {
        if (w_local_earlier) {
          // The read of the initial value would have to precede its own
          // earlier write: no escape exists.
          return true;
        }
        force(r, w, EdgeOrigin::FromRead);
      } else if (w_local_earlier) {
        // Backward from-read edge is illegal; the escape is mandatory:
        // the skipped local write must be ordered before the source.
        force(w, src, EdgeOrigin::CoherenceEscape);
      } else {
        disjunctions.push_back({{r, w}, {w, src}});
      }
    }
  }

  return false;
}

}  // namespace

HbProblem build_hb_problem(const Analysis& an, const MemoryModel& model,
                           const RfMap& rf) {
  HbProblem p;
  p.num_events = an.num_events();
  p.infeasible = instantiate_axioms(an, &model, rf.data(), p.forced,
                                    p.disjunctions, nullptr);
  return p;
}

HbProblem build_hb_problem_traced(const Analysis& an, const MemoryModel& model,
                                  const RfMap& rf, HbTrace& trace) {
  HbProblem p;
  p.num_events = an.num_events();
  trace.forced_origin.clear();
  p.infeasible = instantiate_axioms(an, &model, rf.data(), p.forced,
                                    p.disjunctions, &trace.forced_origin);
  return p;
}

HbSkeleton build_hb_skeleton(const Analysis& an, const RfMap& rf) {
  HbSkeleton s;
  s.infeasible = build_hb_skeleton(an, rf.data(), s.forced, s.disjunctions);
  return s;
}

bool build_hb_skeleton(const Analysis& an, const EventId* rf,
                       std::vector<Edge>& forced,
                       std::vector<EdgeDisjunction>& disjunctions) {
  return instantiate_axioms(an, nullptr, rf, forced, disjunctions, nullptr);
}

}  // namespace mcmc::core
