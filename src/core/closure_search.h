// Allocation-free transitive-closure DFS over happens-before
// disjunctions (internal to core; used by checker.cpp's explicit engine
// and by the prepared fast path in prepared.cpp).
//
// State is a fixed std::array of 64 reachability bitmask rows, of which
// a problem over n events uses the first n: DFS branches copy those n
// rows into the recursion frame (8n bytes on the stack, not the whole
// 512-byte array) instead of heap-allocating per node, which is what
// makes the prepared explicit check zero-allocation.  Rows from n on are
// never written or read.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "core/analysis.h"
#include "core/hb.h"
#include "util/check.h"

namespace mcmc::core::detail {

/// Strict reachability rows: bit y of `row[x]` means x reaches y through
/// at least one edge.  Only the first n rows of a problem over n events
/// are meaningful: clear and copy touch those alone.
struct Reach64 {
  std::array<std::uint64_t, 64> row;

  /// Empties rows [0, n).
  void clear(int n) { std::fill_n(row.begin(), n, 0); }
  /// Copies rows [0, n) of `other`.
  void copy(const Reach64& other, int n) {
    std::copy_n(other.row.begin(), n, row.begin());
  }
  [[nodiscard]] bool holds(EventId x, EventId y) const {
    return (row[static_cast<std::size_t>(x)] & (1ULL << y)) != 0;
  }
};

/// DFS over disjunction choices with an incrementally maintained
/// transitive closure, for problems of at most 64 events.
class ClosureSearch {
 public:
  explicit ClosureSearch(int num_events) : n_(num_events) {
    MCMC_REQUIRE_MSG(n_ >= 0 && n_ <= 64,
                     "explicit engine supports up to 64 events");
    forb_.clear(n_);
  }

  /// Marks x => y as forbidden; add_edge fails on any closure that
  /// would contain it.
  void forbid(EventId x, EventId y) {
    forb_.row[static_cast<std::size_t>(x)] |= 1ULL << y;
  }

  /// Adds u=>v and re-closes; fails on cycle or forbidden-edge
  /// violation.  Does not allocate.
  bool add_edge(Reach64& reach, EventId u, EventId v) const {
    if (u == v) return false;
    const auto sv = static_cast<std::size_t>(v);
    if ((reach.row[sv] & (1ULL << u)) != 0) return false;
    const std::uint64_t gain = (1ULL << v) | reach.row[sv];
    for (EventId i = 0; i < n_; ++i) {
      const auto si = static_cast<std::size_t>(i);
      const bool reaches_u = i == u || (reach.row[si] & (1ULL << u)) != 0;
      if (!reaches_u) continue;
      const std::uint64_t nr = reach.row[si] | gain;
      if ((nr & (1ULL << i)) != 0) return false;  // cycle through i
      if ((nr & forb_.row[si]) != 0) return false;
      reach.row[si] = nr;
    }
    return true;
  }

  /// Satisfies every disjunction in `disj[0..count)` on top of `reach`,
  /// branching depth-first with frame-local copies of the n rows (zero
  /// heap allocations per node).  On success the witness closure is kept
  /// (see `witness`).
  bool solve(Reach64& reach, const EdgeDisjunction* disj, std::size_t count) {
    std::size_t idx = 0;
    while (idx < count && (reach.holds(disj[idx].first.first,
                                       disj[idx].first.second) ||
                           reach.holds(disj[idx].second.first,
                                       disj[idx].second.second))) {
      ++idx;
    }
    if (idx == count) {
      witness_.copy(reach, n_);
      return true;
    }
    const auto& d = disj[idx];
    for (const Edge& e : {d.first, d.second}) {
      Reach64 copy;  // frame-local; lives on the stack
      copy.copy(reach, n_);
      if (add_edge(copy, e.first, e.second) && solve(copy, disj, count)) {
        return true;
      }
    }
    return false;
  }

  /// The closure accepted by the last successful `solve` (its first
  /// num_events() rows).
  [[nodiscard]] const Reach64& witness() const { return witness_; }

  [[nodiscard]] int num_events() const { return n_; }

 private:
  int n_;
  Reach64 forb_;
  Reach64 witness_;
};

/// Topologically sorts the DAG described by `reach` (edge u->v iff bit v
/// of row u) into `order` via Kahn's algorithm over precomputed
/// in-degrees: O(n + E) setup and processing, replacing the previous
/// O(n^3) emit-scan.
inline void kahn_linearize(const Reach64& reach, int n,
                           std::vector<EventId>& order) {
  std::array<int, 64> indeg{};
  for (EventId u = 0; u < n; ++u) {
    std::uint64_t succ = reach.row[static_cast<std::size_t>(u)];
    while (succ != 0) {
      const int v = __builtin_ctzll(succ);
      succ &= succ - 1;
      ++indeg[static_cast<std::size_t>(v)];
    }
  }
  std::array<EventId, 64> queue{};
  int head = 0;
  int tail = 0;
  for (EventId v = 0; v < n; ++v) {
    if (indeg[static_cast<std::size_t>(v)] == 0) queue[tail++] = v;
  }
  order.clear();
  while (head < tail) {
    const EventId u = queue[head++];
    order.push_back(u);
    std::uint64_t succ = reach.row[static_cast<std::size_t>(u)];
    while (succ != 0) {
      const int v = __builtin_ctzll(succ);
      succ &= succ - 1;
      if (--indeg[static_cast<std::size_t>(v)] == 0) {
        queue[tail++] = static_cast<EventId>(v);
      }
    }
  }
  MCMC_CHECK_MSG(static_cast<int>(order.size()) == n,
                 "closure was not acyclic");
}

}  // namespace mcmc::core::detail
