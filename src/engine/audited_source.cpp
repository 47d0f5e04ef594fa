#include "engine/audited_source.h"

#include <thread>

#include "core/analysis.h"
#include "util/check.h"

namespace mcmc::engine {

AuditedSource::AuditedSource(TestSource& source)
    : source_(source),
      pool_(static_cast<int>(std::thread::hardware_concurrency())) {}

bool AuditedSource::next_chunk(std::vector<litmus::LitmusTest>& out) {
  const std::size_t first = out.size();
  const bool more = source_.next_chunk(out);
  const std::size_t n = out.size() - first;
  fingerprints_of_.resize(n);
  keys_of_.resize(n);
  parallel_ranges(pool_, n, [&](std::size_t begin, std::size_t end) {
    litmus::KeyScratch scratch;
    for (std::size_t i = begin; i < end; ++i) {
      const litmus::LitmusTest& test = out[first + i];
      // The fingerprint first: its fallback path may reuse
      // scratch.best, which canonical_key's result aliases.
      fingerprints_of_[i] = litmus::canonical_fingerprint(test, scratch);
      const core::Analysis analysis(test.program());
      keys_of_[i] = litmus::canonical_key(analysis, test.outcome(), scratch);
    }
  });
  const std::vector<char>* marks = source_.repeat_marks();
  MCMC_CHECK_MSG(marks == nullptr || marks->size() == n,
                 "repeat marks do not match the chunk's tests");
  for (std::size_t i = 0; i < n; ++i) {
    if (marks != nullptr && (*marks)[i] != 0) {
      MCMC_CHECK_MSG(fingerprints_.count(fingerprints_of_[i]) != 0,
                     "repeat mark on a test whose class did not occur "
                     "earlier in the stream");
      ++marks_verified_;
    }
    observe(fingerprints_of_[i], keys_of_[i]);
  }
  return more;
}

void AuditedSource::observe(const util::Key128& fingerprint,
                            const std::string& key) {
  const auto seen = fingerprints_.find(fingerprint);
  if (seen != fingerprints_.end()) {
    MCMC_CHECK_MSG(*seen->second == key,
                   "128-bit fingerprint collision: two distinct canonical "
                   "keys share a fingerprint");
    return;
  }
  const auto [it, inserted] = keys_.emplace(key, fingerprint);
  MCMC_CHECK_MSG(inserted,
                 "canonical fingerprint split a key class: equal legacy keys "
                 "produced distinct fingerprints");
  fingerprints_.emplace(fingerprint, &it->first);
}

}  // namespace mcmc::engine
