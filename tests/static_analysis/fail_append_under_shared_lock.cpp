// Negative case: appending to the verdict store while holding only the
// shared (reader) side of the lock must be rejected by -Wthread-safety.
//
// write_row_locked is REQUIRES(mu_) -- exclusive.  A SharedLock grants
// only REQUIRES_SHARED, so a writer sneaking in under a reader lock is
// a compile error, not a data race found at runtime.
#include <cstdint>
#include <vector>

#include "store/verdict_store.h"

namespace {

void bad_append(mcmc::store::VerdictStore& store, mcmc::util::Key128 key) {
  const std::vector<std::uint64_t> mask(store.words_per_row(), 1);
  mcmc::util::SharedLock lock(store.mu());
  // BAD: mutation under a shared lock; needs util::ExclusiveLock.
  store.write_row_locked(key, mask.data(), mask.data());
}

}  // namespace

int main() {
  (void)&bad_append;
  return 0;
}
