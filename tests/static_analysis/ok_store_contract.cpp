// Positive control: the intended verdict-store usage patterns compile
// cleanly under -Wthread-safety -Werror.  If this file ever fails, the
// negative cases prove nothing (the harness would be rejecting correct
// code, not catching violations).
#include <cstdint>
#include <vector>

#include "store/verdict_store.h"

namespace {

// Batched reader: one shared acquisition covers many probes.
bool batched_probes(const mcmc::store::VerdictStore& store,
                    const std::vector<mcmc::util::Key128>& keys) {
  const std::size_t words = store.words_per_row();
  const std::vector<std::uint64_t> want(words, 1);
  std::vector<std::uint64_t> valid(keys.size() * words);
  std::vector<std::uint64_t> bits(keys.size() * words);
  mcmc::util::SharedLock lock(store.mu());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    store.probe_words_locked(keys[i], want.data(), &valid[i * words],
                             &bits[i * words]);
  }
  return !valid.empty() && (valid[0] & 1) != 0;
}

// Batched writer: one exclusive acquisition covers many row writes.
void batched_writes(mcmc::store::VerdictStore& store,
                    const std::vector<mcmc::util::Key128>& keys) {
  const std::vector<std::uint64_t> mask(store.words_per_row(), 1);
  mcmc::util::ExclusiveLock lock(store.mu());
  for (const auto& key : keys) {
    store.write_row_locked(key, mask.data(), mask.data());
  }
}

}  // namespace

int main() {
  (void)&batched_probes;
  (void)&batched_writes;
  return 0;
}
