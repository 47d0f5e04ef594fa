#include "enumeration/naive.h"

#include <string>

#include "enumeration/exhaustive.h"
#include "enumeration/shapes.h"
#include "util/rng.h"

namespace mcmc::enumeration {

NaiveCounts count_naive(const NaiveOptions& options) {
  // Both totals come from the streaming enumerator, so they agree with
  // what ExhaustiveStream materializes by construction: the full space
  // from its counting walk, the reduced one (the CAV'10-style baseline)
  // from the orbit table it elides by, over the communicating pairs.
  // The reduction deliberately stops short of the engine's canonical
  // keys: reduced_tests counts every outcome assignment of each
  // orbit-least program, without merging outcomes that are images of
  // each other under a program automorphism (canonical test keys,
  // litmus::canonical_key, make that stronger reduction).
  ExhaustiveOptions space;
  space.bounds = options;
  const ExhaustiveCounts full = ExhaustiveStream::count(space);
  space.communicating_only = true;
  const ExhaustiveCounts reduced = ExhaustiveStream::count_orbits(space);
  return {full.programs, full.tests, reduced.programs, reduced.tests};
}

std::vector<litmus::LitmusTest> sample_naive_tests(const NaiveOptions& options,
                                                   int count,
                                                   std::uint64_t seed) {
  const auto shapes = shapes::all_thread_shapes(options);
  util::Rng rng(seed);
  std::vector<litmus::LitmusTest> out;
  out.reserve(static_cast<std::size_t>(count));
  for (int n = 0; n < count; ++n) {
    const auto& a = shapes[rng.below(shapes.size())];
    const auto& b = shapes[rng.below(shapes.size())];
    shapes::WriteCounts values;
    core::Program p = shapes::materialize_pair(a, b, values);
    // Sample an outcome: each read gets the initial value or any value
    // written to its location.  Reads resolve through for_each_read so
    // a dep-addressed (register-indirect) read samples from its real
    // target location's domain, not from kNoLoc's.
    core::Outcome outcome;
    for (const auto& th : p.threads()) {
      shapes::for_each_read(th, [&](core::Reg dst, int loc) {
        const int num_written = shapes::writes_to(values, loc);
        outcome.require(dst,
                        static_cast<int>(rng.below(
                            static_cast<std::uint64_t>(num_written) + 1)));
      });
    }
    out.emplace_back("naive" + std::to_string(n), std::move(p),
                     std::move(outcome));
  }
  return out;
}

}  // namespace mcmc::enumeration
