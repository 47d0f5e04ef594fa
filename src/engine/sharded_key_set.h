// Mutex-striped cross-chunk dedup set for the streaming pipeline.
//
// run_stream's workers compute canonical-key hashes for a whole chunk
// in parallel and claim each one here as they go.  Determinism under
// any thread count comes from a two-phase protocol per chunk:
//
//   1. claim(key, index) — parallel, any order.  A key first seen in an
//      earlier chunk reports "duplicate of the past" immediately; keys
//      first seen this chunk keep the *minimum* claiming index (min is
//      commutative, so racing claims converge to the same owner).
//   2. owner(key) — serial, in chunk order.  The test whose index owns
//      its key is the chunk's novel representative; every other
//      claimant is a within-chunk duplicate.  The outcome is identical
//      to what a serial first-come-first-served insertion in chunk
//      order would have produced.
//
// Storage is split by claim temperature.  Keys from earlier chunks live
// in per-shard *sealed* tables — open-addressed flat arrays of bare
// Key128s (16 bytes per class, no heap nodes) that are immutable during
// the parallel phase, so the overwhelmingly common claim outcome on a
// ~91%-duplicate stream (a sealed hit) is decided by a lock-free probe.
// Only keys new to this chunk touch the mutex-striped *pending* tables
// (bounded by the chunk size, reused across chunks); begin_chunk() then
// migrates them into the sealed tables on the single consumer thread.
// See util/hash128.h for the collision math and
// StreamOptions::audit_dedup_keys for the on-demand audit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "util/check.h"
#include "util/hash128.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace mcmc::engine {

class ShardedKeySet {
 public:
  static constexpr int kDefaultShards = 64;

  /// `shards` is rounded up to a power of two; values below 1 get the
  /// default.
  explicit ShardedKeySet(int shards = kDefaultShards) {
    std::size_t n = 1;
    while (n < static_cast<std::size_t>(shards < 1 ? kDefaultShards : shards)) {
      n <<= 1;
    }
    shards_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      shards_.push_back(std::make_unique<Shard>());
    }
  }

  [[nodiscard]] int num_shards() const {
    return static_cast<int>(shards_.size());
  }

  /// Starts a new chunk epoch: seals the previous chunk's pending keys.
  /// Must not race with claim/owner calls; run_stream calls it between
  /// chunks, outside any parallel phase.
  void begin_chunk() {
    for (const auto& shard : shards_) {
      util::MutexLock lock(shard->mu);
      for (const Slot& slot : shard->pending.slots) {
        if (slot.key != util::Key128{}) shard->sealed.insert(slot.key);
      }
      shard->pending.clear();
    }
  }

  /// Claims `key` for test `index` of the current chunk.  Returns true
  /// iff the key was first seen in an *earlier* chunk (a settled
  /// duplicate); false means this chunk's owner is still being resolved
  /// — consult owner() after the parallel phase.  Thread-safe.
  bool claim(util::Key128 key, std::uint32_t index) {
    normalize(key);
    Shard& shard = shard_for(key);
    // Sealed tables only change in begin_chunk(), never concurrently
    // with claims: the hot path (a duplicate of an earlier chunk) takes
    // no lock at all.
    if (shard.sealed.contains(key)) return true;
    util::MutexLock lock(shard.mu);
    Slot& slot = shard.pending.slots[shard.pending.locate(key)];
    if (slot.key != key) {
      slot.key = key;
      slot.index = index;
      shard.pending.count += 1;
      if (shard.pending.count * 10 >= shard.pending.slots.size() * 7) {
        shard.pending.grow();
      }
    } else if (index < slot.index) {
      slot.index = index;
    }
    return false;
  }

  /// The owning (minimum) index of a key claimed this chunk.  Only
  /// meaningful for keys whose claim() returned false this epoch.
  [[nodiscard]] std::uint32_t owner(util::Key128 key) const {
    normalize(key);
    const Shard& shard = shard_for(key);
    util::MutexLock lock(shard.mu);
    const Slot& slot = shard.pending.slots[shard.pending.locate(key)];
    MCMC_CHECK_MSG(slot.key == key,
                   "owner() queried for a key not claimed this chunk");
    return slot.index;
  }

  /// A key as the set stores it: claim() remaps the all-zero key (the
  /// empty-slot sentinel), so keys recorded for seed() go through this.
  [[nodiscard]] static util::Key128 normalized(util::Key128 key) {
    normalize(key);
    return key;
  }

  /// Seeds the sealed tables from a checkpoint's recorded keys, as if
  /// every key had been claimed in an already-sealed chunk.  Must run
  /// before any claim of the new stream (keys were recorded
  /// post-normalization, so they are inserted as-is).
  void seed(const std::vector<util::Key128>& keys) {
    for (util::Key128 key : keys) shard_for(key).sealed.insert(key);
  }

  /// Total distinct keys claimed across the stream so far (sealed plus
  /// the current chunk's pending claims).
  [[nodiscard]] std::size_t size() const {
    std::size_t total = 0;
    for (const auto& shard : shards_) {
      util::MutexLock lock(shard->mu);
      total += shard->sealed.count + shard->pending.count;
    }
    return total;
  }

 private:
  struct Slot {
    util::Key128 key;  // zero-initialized == the empty sentinel
    std::uint32_t index = 0;
  };

  /// Open-addressed flat table core (linear probing, power-of-two
  /// capacity, grown at 70% load).
  template <typename Entry>
  struct FlatTable {
    std::vector<Entry> slots = std::vector<Entry>(kInitialSlots);
    std::size_t count = 0;

    /// The slot holding `key`, or the free slot where it belongs.
    [[nodiscard]] std::size_t locate(util::Key128 key) const {
      const std::size_t mask = slots.size() - 1;
      std::size_t i = static_cast<std::size_t>(key.hi) & mask;
      while (slots[i].key != key && slots[i].key != util::Key128{}) {
        i = (i + 1) & mask;
      }
      return i;
    }

    void grow() {
      std::vector<Entry> old = std::vector<Entry>(slots.size() * 2);
      old.swap(slots);
      for (const Entry& entry : old) {
        if (entry.key != util::Key128{}) slots[locate(entry.key)] = entry;
      }
    }

    void clear() {
      for (Entry& entry : slots) entry = Entry{};
      count = 0;
    }
  };

  struct SealedSlot {
    util::Key128 key;
  };

  struct SealedTable : FlatTable<SealedSlot> {
    [[nodiscard]] bool contains(util::Key128 key) const {
      return slots[locate(key)].key == key;
    }
    void insert(util::Key128 key) {
      SealedSlot& slot = slots[locate(key)];
      if (slot.key == key) return;
      slot.key = key;
      if (++count * 10 >= slots.size() * 7) grow();
    }
  };

  struct Shard {
    mutable util::Mutex mu;
    // `sealed` rides a phase protocol the analysis cannot express:
    // mutated only on the single consumer thread (begin_chunk/seed,
    // never concurrent with claims) and probed lock-free during the
    // parallel claim phase, when it is immutable.  TSan covers the
    // protocol; the mutex-guarded state is `pending`.
    SealedTable sealed;
    FlatTable<Slot> pending GUARDED_BY(mu);  // this chunk's claims, min index
  };

  static constexpr std::size_t kInitialSlots = 64;

  static void normalize(util::Key128& key) {
    // A real all-zero key (probability 2^-128) would alias the empty
    // sentinel; remap it.
    if (key == util::Key128{}) key.lo = 1;
  }

  [[nodiscard]] Shard& shard_for(util::Key128 key) {
    return *shards_[key.lo & (shards_.size() - 1)];
  }
  [[nodiscard]] const Shard& shard_for(util::Key128 key) const {
    return *shards_[key.lo & (shards_.size() - 1)];
  }

  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace mcmc::engine
