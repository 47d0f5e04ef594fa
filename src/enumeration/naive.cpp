#include "enumeration/naive.h"

#include <string>
#include <unordered_set>

#include "enumeration/exhaustive.h"
#include "enumeration/shapes.h"
#include "util/check.h"
#include "util/rng.h"

namespace mcmc::enumeration {

NaiveCounts count_naive(const NaiveOptions& options) {
  NaiveCounts counts;

  // Full-space totals come from the streaming enumerator's counting
  // walk, so they agree with what ExhaustiveStream materializes by
  // construction.
  ExhaustiveOptions full;
  full.bounds = options;
  const ExhaustiveCounts space = ExhaustiveStream::count(full);
  counts.programs = space.programs;
  counts.tests = space.tests;

  // Shape-level reduction (the CAV'10-style baseline): canonicalize
  // communicating programs under location permutation and thread
  // exchange.  This deliberately stops short of the engine's canonical
  // keys — reduced_tests counts every outcome assignment of each
  // canonical program, without merging outcomes that are images of each
  // other under a program automorphism (canonical test keys,
  // litmus::canonical_key, make that stronger reduction).
  const auto shapes = shapes::all_thread_shapes(options);
  const auto perms = shapes::location_permutations(options.num_locations);
  std::unordered_set<std::string> canonical;

  for (std::size_t i = 0; i < shapes.size(); ++i) {
    for (std::size_t j = 0; j < shapes.size(); ++j) {
      if (!shapes::communicates(shapes[i], shapes[j])) continue;
      // Canonical form: smallest encoding over location permutations and
      // thread exchange.
      std::string best;
      for (const auto& perm : perms) {
        for (const bool swap : {false, true}) {
          const auto& first = swap ? shapes[j] : shapes[i];
          const auto& second = swap ? shapes[i] : shapes[j];
          std::string key = shapes::encode(first, perm) + "|" +
                            shapes::encode(second, perm);
          if (best.empty() || key < best) best = std::move(key);
        }
      }
      if (canonical.insert(best).second) {
        ++counts.reduced_programs;
        counts.reduced_tests = shapes::checked_add(
            counts.reduced_tests,
            shapes::outcome_count(shapes[i], shapes[j], options.num_locations));
      }
    }
  }
  return counts;
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
