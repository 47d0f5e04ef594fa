// Negative case: probing the verdict store without holding the store
// mutex in shared mode must be rejected by -Wthread-safety.
//
// probe_words_locked is REQUIRES_SHARED(mu_): the caller promises it
// already holds the reader side of the store lock.  Calling it bare is
// exactly the race the annotated contract exists to rule out.
#include <cstdint>
#include <vector>

#include "store/verdict_store.h"

namespace {

bool bad_probe(const mcmc::store::VerdictStore& store,
               mcmc::util::Key128 key) {
  std::vector<std::uint64_t> want(store.words_per_row(), 1);
  std::vector<std::uint64_t> valid(store.words_per_row());
  std::vector<std::uint64_t> bits(store.words_per_row());
  // BAD: no SharedLock (or ExclusiveLock) on store.mu() is held here.
  store.probe_words_locked(key, want.data(), valid.data(), bits.data());
  return (valid[0] & 1) != 0;
}

}  // namespace

int main() {
  (void)&bad_probe;
  return 0;
}
