// Read-from map enumeration (Section 2.2).
//
// A read-from relation maps each read to the write whose value it observes
// (or to nothing, meaning the initial value 0).  The paper's constraints:
//   * sources write the value the read observes, to the same address,
//   * at most one source per read,
//   * a read may not source a program-order-later write of its own thread
//     ("cannot read from a future write in the same thread").
//
// Because addresses and store values are static, an outcome constraint on
// a read's destination register filters its candidate sources directly,
// which keeps the enumeration tiny (typically 1–4 maps per test).
#pragma once

#include <cstddef>
#include <vector>

#include "core/analysis.h"
#include "core/outcome.h"

namespace mcmc::core {

/// Initial-value pseudo-source.
constexpr EventId kReadsInitial = -1;

/// rf[e] is meaningful only when event `e` is a read: the sourcing write's
/// EventId, or kReadsInitial.
using RfMap = std::vector<EventId>;

/// Enumerates every read-from map consistent with the outcome.  Returns an
/// empty list when the outcome is statically impossible (e.g. it constrains
/// a DepConst register to the wrong constant, or no candidate write has the
/// required value).
[[nodiscard]] std::vector<RfMap> enumerate_read_from(const Analysis& analysis,
                                                     const Outcome& outcome);

/// The same maps, in the same order, appended to `maps` flat: each map
/// is analysis.num_events() entries laid out as an RfMap.  Returns how
/// many were appended.  Allocates only when `maps` grows.
std::size_t enumerate_read_from(const Analysis& analysis,
                                const Outcome& outcome,
                                std::vector<EventId>& maps);

/// The full syntactic outcome space of a program: every assignment of
/// each read's register to the initial value or any value written to the
/// read's location.  This over-approximates the observable outcomes of
/// any model; it is the domain the operational machines and differential
/// suites quantify over.
[[nodiscard]] std::vector<Outcome> outcome_space(const Analysis& analysis);

}  // namespace mcmc::core
