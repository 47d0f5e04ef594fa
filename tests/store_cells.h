// One verdict cell at a time through a VerdictStore's row API, for
// tests that read or write single (key, column) cells: each call takes
// the store's lock for itself and goes through probe_words_locked or
// write_row_locked, the store's only probe and write.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "store/verdict_store.h"
#include "util/hash128.h"
#include "util/mutex.h"

namespace mcmc {

/// The verdict of (key, col), if the store holds it; counts one hit or
/// miss.
inline std::optional<bool> probe_cell(const store::VerdictStore& vstore,
                                      util::Key128 key, int col) {
  const std::size_t words = vstore.words_per_row();
  const std::size_t w = static_cast<std::size_t>(col) / 64;
  const std::uint64_t bit = 1ULL << (static_cast<std::size_t>(col) % 64);
  std::vector<std::uint64_t> want(words, 0);
  std::vector<std::uint64_t> valid(words);
  std::vector<std::uint64_t> bits(words);
  want.at(w) = bit;
  {
    util::SharedLock lock(vstore.mu());
    vstore.probe_words_locked(key, want.data(), valid.data(), bits.data());
  }
  if ((valid[w] & bit) == 0) return std::nullopt;
  return (bits[w] & bit) != 0;
}

/// Writes the verdict of (key, col), appending the row if it is absent.
inline void set_cell(store::VerdictStore& vstore, util::Key128 key, int col,
                     bool verdict) {
  const std::size_t w = static_cast<std::size_t>(col) / 64;
  const std::uint64_t bit = 1ULL << (static_cast<std::size_t>(col) % 64);
  std::vector<std::uint64_t> mask(vstore.words_per_row(), 0);
  std::vector<std::uint64_t> bits(vstore.words_per_row(), 0);
  mask.at(w) = bit;
  if (verdict) bits[w] = bit;
  util::ExclusiveLock lock(vstore.mu());
  vstore.write_row_locked(key, mask.data(), bits.data());
}

}  // namespace mcmc
