// Fingerprint audit of a test stream.
//
// The streaming dedup keys tests by 128-bit canonical fingerprints
// (litmus::canonical_fingerprint) and never builds the legacy
// canonical_key string.  AuditedSource proves, over a whole stream,
// that fingerprint equality coincides with string-key equality: it
// wraps the raw source, computes both for every test of the stream
// (fanned out per chunk across its own pool of the caller's thread
// count), and checks both directions in stream order — one fingerprint
// with two keys is a collision, one key with two fingerprints is a
// split.  Either throws std::logic_error.
//
// A source that elides repeats (TestSource::elide_repeats) leaves tests
// out of its chunks, so the audit can check them only against a
// full-build twin: a second source delivering the same stream that is
// never opted in (for an ExhaustiveStream, a fresh one with equal
// options).  Only an audit with a twin forwards the opt-in.  Per chunk
// it then pulls the twin's chunk too, audits every twin test, and
// requires the delivered tests to be twin tests in order (equal names
// and fingerprints), the tests built plus the positions elided to span
// the twin's chunk, every twin test left out to have a class observed
// earlier in stream order, and equal cursors after the chunk.  It also
// checks the certificate the opt-in carries: a delivered test whose
// class occurred earlier must have first occurred in the test's own
// program run (its maximal run of delivered tests sharing one program
// object).  Any violation throws std::logic_error.
//
// Wrapped by VerdictEngine::run_stream, the audit runs inside the
// ChunkPrefetcher on the producer thread, so a violation is rethrown
// from run_stream like any producer error.  Read classes() only after
// the stream returns.  Since the audit never sees which tests the
// engine claimed as novel, an audited run should also check that the
// stream's novel count equals classes() — which holds only for streams
// deduped by canonical keys (custom-free models).  The audit retains
// one key string per class, so it is for tests and CI slices, not
// production.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/test_stream.h"
#include "engine/thread_pool.h"
#include "litmus/test.h"
#include "util/hash128.h"

namespace mcmc::engine {

class AuditedSource final : public TestSource {
 public:
  /// Audits `source` on `threads` threads, the producer's included
  /// (ThreadPool's count); `twin` (may be null) is the full-build twin
  /// that lets the audit forward the opt-in to elide repeats.
  AuditedSource(TestSource& source, int threads, TestSource* twin = nullptr);

  bool next_chunk(std::vector<litmus::LitmusTest>& out) override;

  [[nodiscard]] bool snapshot_cursor(
      std::vector<std::uint64_t>& out) const override {
    return source_.snapshot_cursor(out);
  }
  /// Restores the source and the twin alike.
  [[nodiscard]] bool restore_cursor(
      const std::vector<std::uint64_t>& cursor) override;
  bool elide_repeats() override {
    return twin_ != nullptr && source_.elide_repeats();
  }
  [[nodiscard]] std::size_t elided() const override { return source_.elided(); }
  void restored_run_head(std::vector<litmus::LitmusTest>& out) const override {
    source_.restored_run_head(out);
  }

  /// Records that a test with `key` has `fingerprint`; throws on a
  /// collision or a split.
  void observe(const util::Key128& fingerprint, const std::string& key);

  /// Distinct classes observed so far.
  [[nodiscard]] std::size_t classes() const { return keys_.size(); }

  /// Elided tests checked so far: each one's class had been observed.
  [[nodiscard]] std::size_t elided_verified() const { return elided_verified_; }

 private:
  /// Fills fingerprints_of_ and keys_of_ for the tests from `first` on.
  void fingerprint(const std::vector<litmus::LitmusTest>& tests,
                   std::size_t first);

  TestSource& source_;
  TestSource* twin_;
  ThreadPool pool_;
  // Per-chunk buffers: the twin's chunk, and the audited tests'
  // fingerprints and keys.
  std::vector<litmus::LitmusTest> twin_chunk_;
  std::vector<util::Key128> fingerprints_of_;
  std::vector<std::string> keys_of_;

  std::size_t elided_verified_ = 0;
  /// The program run of the last delivered test (an opted-in audit),
  /// numbered from 1, and the run each class first occurred in.
  std::shared_ptr<const core::Program> run_program_;
  std::size_t run_ = 0;
  std::unordered_map<util::Key128, std::size_t, util::Key128Hash> first_run_;

  std::unordered_map<std::string, util::Key128> keys_;
  /// Points at the key strings of `keys_` (node-stable).
  std::unordered_map<util::Key128, const std::string*, util::Key128Hash>
      fingerprints_;
};

}  // namespace mcmc::engine
