// Cross-chunk dedup set for the streaming pipeline: the 128-bit keys of
// every class a stream has seen, stored bare (16 bytes per class, no
// heap nodes).  run_stream keeps one only for a source that does not
// certify its program runs (TestSource::elide_repeats); a certified
// stream dedups inside each program run instead.  The consumer inserts
// keys serially in chunk order, so a class's first occurrence is its
// novel test under any thread count; the set itself is
// single-threaded.
//
// Storage is 64 open-addressed flat tables (linear probing,
// power-of-two capacity, grown at 70% load) picked by `key.lo`: a grow
// rehashes 1/64 of the set, which keeps the peak resident set near the
// tables' own size.  See util/hash128.h for the collision math and
// engine::AuditedSource for the on-demand audit.
#pragma once

#include <array>
#include <cstddef>
#include <vector>

#include "util/hash128.h"

namespace mcmc::engine {

class KeySet {
 public:
  /// Inserts `key`; true iff it was not in the set yet.  The all-zero
  /// key is the empty-slot sentinel, so a real one (probability
  /// 2^-128) is stored remapped.
  bool insert(util::Key128 key) {
    if (key == util::Key128{}) key.lo = 1;
    Table& table = tables_[key.lo % kTables];
    std::vector<util::Key128>& slots = table.slots;
    const std::size_t i = table.locate(key);
    if (slots[i] == key) return false;
    slots[i] = key;
    if (++table.count * 10 >= slots.size() * 7) {
      std::vector<util::Key128> old(slots.size() * 2);
      old.swap(slots);
      for (const util::Key128 k : old) {
        if (k != util::Key128{}) slots[table.locate(k)] = k;
      }
    }
    return true;
  }

 private:
  static constexpr std::size_t kTables = 64;

  struct Table {
    std::vector<util::Key128> slots = std::vector<util::Key128>(64);
    std::size_t count = 0;

    /// The slot holding `key`, or the free slot where it belongs.
    [[nodiscard]] std::size_t locate(util::Key128 key) const {
      const std::size_t mask = slots.size() - 1;
      std::size_t i = static_cast<std::size_t>(key.hi) & mask;
      while (slots[i] != key && slots[i] != util::Key128{}) {
        i = (i + 1) & mask;
      }
      return i;
    }
  };

  std::array<Table, kTables> tables_;
};

}  // namespace mcmc::engine
