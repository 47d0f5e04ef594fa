// Naive bounded enumeration of litmus tests, and a symmetry-reduced
// variant standing in for the prior-work baseline (Mador-Haim et al.,
// CAV 2010), which the paper compares against in Section 3.4:
//
//   "A naive enumeration of all tests within the bounds of Theorem 1
//    results in approximately million tests even without dependencies.
//    Earlier work describes optimizations that reduce the number of tests
//    to several thousands.  This paper improves upon earlier work by more
//    than an order of magnitude."
//
// The naive space: two threads, one to three memory accesses per thread,
// addresses drawn from a small fixed set, an optional fence between
// adjacent accesses, and (for test counting) every syntactically possible
// read outcome.  The reduced variant canonicalizes programs under address
// permutation and thread exchange and keeps only programs where the
// threads communicate.
//
// The counting here takes both totals from the streaming materializer
// (exhaustive.h): the full space from its counting walk, the reduced one
// from the symmetry-orbit table the stream elides repeated programs by
// (ExhaustiveStream::count_orbits over the communicating pairs).  The
// engine's canonical keys make the stronger test-level reduction it
// shares verdicts by.
#pragma once

#include <cstdint>
#include <vector>

#include "litmus/test.h"

namespace mcmc::enumeration {

/// Bounds of the naive enumeration.
struct NaiveOptions {
  int max_accesses_per_thread = 3;
  int num_locations = 3;
  bool fences = true;
  /// Extend slots with the paper's dependency idioms (data-dependent
  /// addresses and store values, control-dependent accesses) — the
  /// space Theorem 1 actually quantifies over with the full predicate
  /// set.  Off by default: the dependency-free space (and its exact
  /// historical enumeration order) is unchanged.
  bool deps = false;
};

/// Counting results over the naive space.
struct NaiveCounts {
  long long programs = 0;          ///< ordered two-thread programs
  long long tests = 0;             ///< programs x outcome assignments
  long long reduced_programs = 0;  ///< canonical + communicating programs
  long long reduced_tests = 0;     ///< their outcome assignments
};

/// Exhaustively walks the naive space and counts (never materializes the
/// full test set).
[[nodiscard]] NaiveCounts count_naive(const NaiveOptions& options);

/// Draws `count` pseudo-random naive tests (program + outcome), used by
/// differential and property test suites.  Outcomes are sampled from the
/// syntactically possible read values.
[[nodiscard]] std::vector<litmus::LitmusTest> sample_naive_tests(
    const NaiveOptions& options, int count, std::uint64_t seed);

}  // namespace mcmc::enumeration
