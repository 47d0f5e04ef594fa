#include "engine/audited_source.h"

#include "core/analysis.h"
#include "util/check.h"

namespace mcmc::engine {

AuditedSource::AuditedSource(TestSource& source, int threads, TestSource* twin)
    : source_(source), twin_(twin), pool_(threads) {}

bool AuditedSource::restore_cursor(const std::vector<std::uint64_t>& cursor) {
  return source_.restore_cursor(cursor) &&
         (twin_ == nullptr || twin_->restore_cursor(cursor));
}

void AuditedSource::fingerprint(const std::vector<litmus::LitmusTest>& tests,
                                std::size_t first) {
  const std::size_t n = tests.size() - first;
  fingerprints_of_.resize(n);
  keys_of_.resize(n);
  parallel_ranges(pool_, n, [&](std::size_t begin, std::size_t end) {
    litmus::KeyScratch scratch;
    for (std::size_t i = begin; i < end; ++i) {
      const litmus::LitmusTest& test = tests[first + i];
      // The fingerprint first: its fallback path may reuse
      // scratch.best, which canonical_key's result aliases.
      fingerprints_of_[i] = litmus::canonical_fingerprint(test, scratch);
      const core::Analysis analysis(test.program());
      keys_of_[i] = litmus::canonical_key(analysis, test.outcome(), scratch);
    }
  });
}

bool AuditedSource::next_chunk(std::vector<litmus::LitmusTest>& out) {
  const std::size_t first = out.size();
  const bool more = source_.next_chunk(out);
  if (twin_ == nullptr) {
    fingerprint(out, first);
    for (std::size_t i = 0; i < fingerprints_of_.size(); ++i) {
      observe(fingerprints_of_[i], keys_of_[i]);
    }
    return more;
  }

  // The twin's chunk is the whole of the audited one: its tests in
  // order, the elided ones left out.
  twin_chunk_.clear();
  const bool twin_more = twin_->next_chunk(twin_chunk_);
  const std::size_t built = out.size() - first;
  const std::size_t spanned = built + source_.elided();
  MCMC_CHECK_MSG(twin_more == more && spanned == twin_chunk_.size(),
                 "the chunk does not span its full-build twin's");
  fingerprint(twin_chunk_, 0);
  litmus::KeyScratch scratch;
  std::size_t delivered = 0;
  for (std::size_t i = 0; i < twin_chunk_.size(); ++i) {
    if (delivered < built &&
        out[first + delivered].name() == twin_chunk_[i].name()) {
      const litmus::LitmusTest& test = out[first + delivered];
      MCMC_CHECK_MSG(
          litmus::canonical_fingerprint(test, scratch) == fingerprints_of_[i],
          "a delivered test differs from its full-build twin");
      if (test.shared_program() != run_program_) {
        run_program_ = test.shared_program();
        ++run_;
      }
      const auto [run, first_time] =
          first_run_.emplace(fingerprints_of_[i], run_);
      MCMC_CHECK_MSG(first_time || run->second == run_,
                     "a class spans two program runs of a source that "
                     "certifies its runs");
      ++delivered;
    } else {
      MCMC_CHECK_MSG(fingerprints_.count(fingerprints_of_[i]) != 0,
                     "an elided test whose class did not occur earlier in "
                     "the stream");
      ++elided_verified_;
    }
    observe(fingerprints_of_[i], keys_of_[i]);
  }
  MCMC_CHECK_MSG(delivered == built,
                 "the audited chunk delivered a test its full-build twin "
                 "does not hold there");
  std::vector<std::uint64_t> cursor;
  std::vector<std::uint64_t> twin_cursor;
  if (source_.snapshot_cursor(cursor)) {
    MCMC_CHECK_MSG(twin_->snapshot_cursor(twin_cursor) && twin_cursor == cursor,
                   "the audited stream's cursor differs from its full-build "
                   "twin's");
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
