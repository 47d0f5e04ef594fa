// Streaming exhaustive materialization of the naive bounded space.
//
// Section 3.4 of the paper counts the naive enumeration — two threads,
// one to three memory accesses each, three locations, optional fences,
// every syntactically possible read outcome — at "approximately a
// million tests" (5,160,270 with the default bounds here).  naive.h
// *counts* that space; this header *materializes* it, as real
// litmus::LitmusTest values, in fixed-size chunks that implement
// engine::TestSource: the full space is never resident at once, so it
// can be pushed through engine::VerdictEngine::run_stream with peak
// memory independent of the corpus size.
//
// That stream is what makes the repo's central claim executable: the
// 90x90 model-pair distinguishability matrix induced by the entire
// naive space can be compared bit-for-bit against the one induced by
// the paper's Corollary-1 suite (see explore/distinguish.h and
// tests/exhaustive_full_test.cpp), and the canonical-key pass measures
// the exact symmetry reduction the paper's suite achieves.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "engine/test_stream.h"
#include "enumeration/naive.h"
#include "enumeration/shapes.h"
#include "litmus/test.h"

namespace mcmc::enumeration {

/// Bounds and chunking of the exhaustive stream.
struct ExhaustiveOptions {
  /// The naive-space bounds (shared with count_naive).
  NaiveOptions bounds;
  /// Tests per chunk handed to next_chunk.
  int chunk_size = 4096;
  /// Drop programs whose threads never interact (the reduced-baseline
  /// filter); the full naive space keeps them.
  bool communicating_only = false;
};

/// What a stream (or the counting walk) has produced.
struct ExhaustiveCounts {
  long long programs = 0;  ///< ordered two-thread programs
  long long tests = 0;     ///< programs x outcome assignments
};

/// The naive space as a resumable chunked stream of materialized tests.
///
/// Iteration order is deterministic: shape pairs in all_thread_shapes
/// order, and for each program every outcome assignment by an odometer
/// over its reads (each read drawing from {0} + {values written to its
/// location}).  Test names are "x<program>.<outcome>" with 0-based
/// stream-order indices.
///
/// The stream is program-major: each program is materialized and
/// validated once, and all of its tests share that one immutable
/// program object (litmus::LitmusTest::with_outcome), so downstream
/// stages can build per-program state once per run of consecutive
/// tests holding the same object.
///
/// The space is closed under thread exchange and location renaming,
/// and canonical fingerprints are invariant under both, so a program's
/// test classes all occur among the tests of any image of it.  A stream
/// whose consumer opted in (elide_repeats) therefore builds no test of
/// a program whose orbit's least shape pair, in this stream's (i, j)
/// order, came earlier: it counts that program's stream positions as
/// elided instead, advancing names, counters and cursor exactly as
/// building them would.  Only a program that is least in its orbit is
/// built, so an opted-in stream builds count_orbits programs.  Every
/// program before a restored cursor counts as streamed: a restored
/// stream elides as a fresh one does, a cursor inside an elided program
/// stays elided, and restored_run_head rebuilds the head of a built one.
/// The opt-in certifies that no class spans two program runs (two
/// programs least in distinct orbits share no class);
/// engine::AuditedSource checks it on the audited slices and the full
/// no-dep space, and the with-dep space's pinned novel count would
/// count such a class twice.
class ExhaustiveStream final : public engine::TestSource {
 public:
  explicit ExhaustiveStream(ExhaustiveOptions options);

  /// Appends up to chunk_size tests; returns false once exhausted (the
  /// final call may deliver a partial chunk).
  bool next_chunk(std::vector<litmus::LitmusTest>& out) override;

  /// Serializes the full generator position — shape-pair cursor,
  /// outcome index, and emitted counters — so a fresh stream with equal
  /// options resumes bit-for-bit: same remaining tests, same chunk
  /// boundaries, same "x<p>.<o>" names, whether or not either stream
  /// elides.  O(1) words: the stream keeps no per-program history, so
  /// a per-chunk snapshot never serializes a growing set.
  [[nodiscard]] bool snapshot_cursor(
      std::vector<std::uint64_t>& out) const override;

  /// Restores a snapshot; the cursor carries a digest of the options
  /// that produced it (bounds, dep dimension, filter, shape-table
  /// size), so a cursor from any differently-bounded stream is rejected
  /// outright — even when its raw indices would be in range here — and
  /// every field is additionally validated against this stream's shape
  /// table: the live program is built and the outcome index decoded
  /// into its odometer, an index at or past its outcome count being
  /// rejected.  Rejection resets to a fresh stream, so a stale cursor
  /// can only cause a from-scratch run, never a diverged one.
  [[nodiscard]] bool restore_cursor(
      const std::vector<std::uint64_t>& cursor) override;

  /// Opts in to eliding the programs whose orbit came earlier, and
  /// certifies the program runs (see the class comment); always
  /// accepted.
  bool elide_repeats() override;
  [[nodiscard]] std::size_t elided() const override { return elided_; }
  /// The live built program's tests before a restored cursor.
  void restored_run_head(std::vector<litmus::LitmusTest>& out) const override;

  [[nodiscard]] bool done() const { return exhausted_; }
  [[nodiscard]] const ExhaustiveCounts& emitted() const { return emitted_; }

  /// Counting-only walk of the same generator core: the totals a full
  /// drain of a fresh stream with these options would emit.
  [[nodiscard]] static ExhaustiveCounts count(const ExhaustiveOptions& options);

  /// What a full drain of a fresh opted-in stream with these options
  /// builds: the shape pairs least in their orbit under thread exchange
  /// and location renaming, and their outcome tests, counted from the
  /// image table the stream elides by, building nothing.  A pure
  /// function of the bounds and the filter; on the bounded spaces its
  /// programs equal the canonical program classes (pinned by the tests
  /// against a walk that fingerprints every program).  With
  /// communicating_only it is count_naive's reduced baseline.
  [[nodiscard]] static ExhaustiveCounts count_orbits(
      const ExhaustiveOptions& options);

 private:
  /// Advances (i_, j_) to the next program passing the filters and
  /// rebuilds the per-program state; returns false when the shape pairs
  /// are exhausted.
  bool start_next_program();
  /// Builds (and validates) the current program and its read domains.
  void build_program();
  /// Elides the live program, counting its outcomes, iff the consumer
  /// opted in and the least image of its shape pair precedes it;
  /// returns whether it does.
  bool elide_if_repeat();
  /// The current program's test named as outcome `outcome`, whose read
  /// k takes value digits[k].
  [[nodiscard]] litmus::LitmusTest outcome_test(const std::vector<int>& digits,
                                                long long outcome) const;
  /// Steps `digits` to the next outcome; false once it wraps.
  [[nodiscard]] bool advance(std::vector<int>& digits) const;
  /// Stream position (a * shapes + b) of the least image of shape pair
  /// (a, b) under thread exchange and location renaming.
  [[nodiscard]] std::size_t least_image(std::size_t a, std::size_t b) const;

  ExhaustiveOptions options_;
  std::vector<shapes::ThreadShape> shapes_;
  /// location_images_[s * num_perms_ + p]: the index of shape s with its
  /// locations renamed by the p-th location permutation.
  std::vector<std::uint32_t> location_images_;
  std::size_t num_perms_ = 0;
  std::uint64_t cursor_digest_ = 0;  ///< pins cursors to these options
  ExhaustiveCounts emitted_;

  std::size_t i_ = 0;  ///< first-thread shape index
  std::size_t j_ = 0;  ///< second-thread shape index
  std::size_t cur_a_ = 0;  ///< shape pair of the current program
  std::size_t cur_b_ = 0;
  bool exhausted_ = false;
  long long program_index_ = -1;  ///< 0-based index of the current program
  long long outcome_index_ = 0;   ///< 0-based outcome index within it
  bool elide_ = false;   ///< the consumer opted in (elide_repeats)
  bool repeat_ = false;  ///< the current program is elided, not built
  long long outcomes_ = 0;    ///< the elided program's outcome count
  std::size_t elided_ = 0;    ///< positions the last chunk elided

  // The current program, validated once, as an outcome-free test every
  // emitted test is derived from (sharing its program object).
  std::optional<litmus::LitmusTest> program_;
  std::vector<core::Reg> read_regs_;         // destination reg per read
  std::vector<int> read_domain_;             // 1 + writes to the read's loc
  std::vector<int> odometer_;                // outcome_index_ in mixed radix
  shapes::WriteCounts writes_;               // per location, reused
  bool odometer_live_ = false;
};

}  // namespace mcmc::enumeration
