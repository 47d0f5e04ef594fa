// Fingerprint audit of a test stream.
//
// The streaming dedup keys tests by 128-bit canonical fingerprints
// (litmus::canonical_fingerprint) and never builds the legacy
// canonical_key string.  AuditedSource proves, over whatever a stream
// delivers, that fingerprint equality coincides with string-key
// equality: it wraps the raw source, computes both for every test it
// passes on (fanned out per chunk across its own pool, one thread per
// core), and checks both directions in stream order — one fingerprint
// with two keys is a collision, one key with two fingerprints is a
// split.  Either throws std::logic_error.  It also checks every repeat
// mark the source sets (TestSource::repeat_marks), and forwards them: a
// marked test whose fingerprint was not observed earlier in stream
// order, counting the earlier tests of its own chunk, throws
// std::logic_error too.
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
  explicit AuditedSource(TestSource& source);

  bool next_chunk(std::vector<litmus::LitmusTest>& out) override;

  [[nodiscard]] bool snapshot_cursor(
      std::vector<std::uint64_t>& out) const override {
    return source_.snapshot_cursor(out);
  }
  [[nodiscard]] bool restore_cursor(
      const std::vector<std::uint64_t>& cursor) override {
    return source_.restore_cursor(cursor);
  }
  [[nodiscard]] const std::vector<char>* repeat_marks() const override {
    return source_.repeat_marks();
  }

  /// Records that a test with `key` has `fingerprint`; throws on a
  /// collision or a split.
  void observe(const util::Key128& fingerprint, const std::string& key);

  /// Distinct classes observed so far.
  [[nodiscard]] std::size_t classes() const { return keys_.size(); }

  /// Repeat marks checked so far: each one's class had been observed.
  [[nodiscard]] std::size_t marks_verified() const { return marks_verified_; }

 private:
  TestSource& source_;
  ThreadPool pool_;
  // Per-chunk buffers, aligned with the chunk's tests.
  std::vector<util::Key128> fingerprints_of_;
  std::vector<std::string> keys_of_;

  std::size_t marks_verified_ = 0;

  std::unordered_map<std::string, util::Key128> keys_;
  /// Points at the key strings of `keys_` (node-stable).
  std::unordered_map<util::Key128, const std::string*, util::Key128Hash>
      fingerprints_;
};

}  // namespace mcmc::engine
