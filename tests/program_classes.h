// The canonical program classes of a bounded space, counted by
// fingerprinting every program: the oracle that
// ExhaustiveStream::count_orbits is pinned against.
#pragma once

#include <unordered_set>

#include "core/program.h"
#include "enumeration/exhaustive.h"
#include "enumeration/shapes.h"
#include "litmus/test.h"
#include "util/hash128.h"

namespace mcmc {

/// Number of canonical program classes (distinct canonical fingerprints
/// of each program under the empty outcome) among the programs a full
/// drain of a fresh stream with these options would emit.  It walks the
/// shape pairs in stream order, honouring communicating_only, and builds
/// each program as the stream does but no tests.
inline long long canonical_program_classes(
    const enumeration::ExhaustiveOptions& options) {
  namespace shapes = enumeration::shapes;
  // 128-bit canonical fingerprints (engine::AuditedSource verifies
  // fingerprint-equality == key-equality on the same space).
  std::unordered_set<util::Key128, util::Key128Hash> classes;
  litmus::KeyScratch scratch;
  shapes::WriteCounts values;
  const auto all = shapes::all_thread_shapes(options.bounds);
  for (const auto& a : all) {
    for (const auto& b : all) {
      if (options.communicating_only && !shapes::communicates(a, b)) continue;
      classes.insert(litmus::canonical_fingerprint(
          shapes::materialize_pair(a, b, values), core::Outcome{}, scratch));
    }
  }
  return static_cast<long long>(classes.size());
}

}  // namespace mcmc
