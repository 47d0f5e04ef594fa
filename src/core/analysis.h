// Static analysis of a litmus program: flattens instructions into events,
// resolves addresses and store values, and precomputes the predicate
// matrices (SameAddr, DataDep, ControlDep) that must-not-reorder functions
// consume (Section 2.3 of the paper).
//
// Because programs are straight-line, instruction executions are in 1:1
// correspondence with instructions; an "event" here is the paper's
// instruction execution with everything but read results resolved.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/program.h"

namespace mcmc::core {

/// Dense event index across all threads (thread-major order).
using EventId = int;

/// A resolved instruction execution.
struct Event {
  int thread = 0;        ///< thread index
  int index = 0;         ///< position within the thread
  Op op = Op::Fence;     ///< opcode
  Loc loc = kNoLoc;      ///< resolved address (memory accesses only)
  int value = 0;         ///< resolved store value (writes) / constant
  Reg dst = kNoReg;      ///< defined register
  const Instruction* instr = nullptr;  ///< the underlying instruction
};

/// A read-only view of consecutive event ids (Analysis::writes_to).
class EventRange {
 public:
  EventRange(const EventId* begin, const EventId* end)
      : begin_(begin), end_(end) {}
  [[nodiscard]] const EventId* begin() const { return begin_; }
  [[nodiscard]] const EventId* end() const { return end_; }
  [[nodiscard]] std::size_t size() const {
    return static_cast<std::size_t>(end_ - begin_);
  }
  [[nodiscard]] EventId operator[](std::size_t i) const { return begin_[i]; }

 private:
  const EventId* begin_;
  const EventId* end_;
};

/// Analysis result over a validated program.  Refillable: reset() analyzes
/// another program into the same storage, which is how each engine worker
/// reuses one Analysis across program runs.
class Analysis {
 public:
  /// An analysis of no program; reset() fills it.
  Analysis() = default;

  /// Validates and analyzes `program` (kept by reference; the program must
  /// outlive the analysis, or the next reset() or clear()).
  explicit Analysis(const Program& program);

  /// Validates (unless Program::marked_valid) and analyzes `program` in
  /// place of the current one.  The storage is reused: once it has grown
  /// to the largest program seen, a marked program costs no allocation.
  void reset(const Program& program);

  /// Drops every reference into the current program (the storage stays
  /// for the next reset()); an analysis of no program has no events.
  void clear();

  [[nodiscard]] const Program& program() const { return *program_; }
  [[nodiscard]] int num_events() const {
    return static_cast<int>(events_.size());
  }
  [[nodiscard]] const Event& event(EventId e) const;
  [[nodiscard]] const std::vector<Event>& events() const { return events_; }

  /// Event id of instruction `index` in `thread`.
  [[nodiscard]] EventId event_id(int thread, int index) const;

  /// Largest accessed location, plus one (Program::num_locations).
  [[nodiscard]] int num_locations() const { return num_locations_; }

  /// All write events to `loc`, in event-id order.  Precomputed; the view
  /// stays valid until the next reset() or clear().
  [[nodiscard]] EventRange writes_to(Loc loc) const;

  /// All read events, in event-id order.  Precomputed; the reference
  /// stays valid for the analysis' lifetime, its contents until the next
  /// reset() or clear().
  [[nodiscard]] const std::vector<EventId>& reads() const { return reads_; }

  /// Program order: true iff `a` and `b` are in the same thread and `a`
  /// precedes `b`.
  [[nodiscard]] bool po(EventId a, EventId b) const;

  [[nodiscard]] bool same_thread(EventId a, EventId b) const;

  // ---- Predicates (Section 2.3) ----

  [[nodiscard]] bool is_read(EventId e) const {
    return event(e).op == Op::Read;
  }
  [[nodiscard]] bool is_write(EventId e) const {
    return event(e).op == Op::Write;
  }
  [[nodiscard]] bool is_fence(EventId e) const {
    return event(e).op == Op::Fence;
  }
  [[nodiscard]] bool is_memory_access(EventId e) const {
    return event(e).instr->is_memory_access();
  }

  /// SameAddr(a, b): both memory accesses to one location.
  [[nodiscard]] bool same_addr(EventId a, EventId b) const;

  /// DataDep(a, b): a defines a register that b's inputs (address, store
  /// value, DepConst source, branch condition) transitively depend on;
  /// requires po(a, b).
  [[nodiscard]] bool data_dep(EventId a, EventId b) const;

  /// ControlDep(a, b): some Branch between a and b (exclusive of b's
  /// position upper bound) has a condition data-dependent on a; requires
  /// po(a, b).
  [[nodiscard]] bool ctrl_dep(EventId a, EventId b) const;

  // ---- Predicate bitmask rows (events packed into std::uint64_t) ----
  //
  // Available when the program has at most 64 events (the explicit
  // engine's regime); core::FormulaSet compiles must-not-reorder
  // functions over them a whole row at a time instead of one tree-walk
  // per event pair.

  /// True iff the bitmask accessors below are available.
  [[nodiscard]] bool masks_valid() const { return num_events() <= 64; }

  /// Bit e set iff event e is a read / write / fence.
  [[nodiscard]] std::uint64_t reads_mask() const { return reads_mask_; }
  [[nodiscard]] std::uint64_t writes_mask() const { return writes_mask_; }
  [[nodiscard]] std::uint64_t fences_mask() const { return fences_mask_; }

  /// Bit y set iff po(x, y) — x's program-order successors.
  [[nodiscard]] std::uint64_t po_mask(EventId x) const;
  /// Bit y set iff SameAddr(x, y).
  [[nodiscard]] std::uint64_t same_addr_mask(EventId x) const;
  /// Bit y set iff DataDep(x, y).
  [[nodiscard]] std::uint64_t data_dep_mask(EventId x) const;
  /// Bit y set iff ControlDep(x, y).
  [[nodiscard]] std::uint64_t ctrl_dep_mask(EventId x) const;

 private:
  void resolve_events();
  void compute_deps();
  void compute_indexes();

  const Program* program_ = nullptr;
  std::vector<Event> events_;
  std::vector<int> thread_base_;  // first EventId of each thread
  int num_locations_ = 0;
  // Dependency bit rows, words_ words per event: bit b of row a is
  // DataDep(a, b) in dep_ and ControlDep(a, b) in cdep_.  Up to 64
  // events a row is one word, the data_dep_mask / ctrl_dep_mask row.
  std::size_t words_ = 0;
  std::vector<std::uint64_t> dep_;
  std::vector<std::uint64_t> cdep_;

  // The writes to location l are writes_[write_begin_[l] ..
  // write_begin_[l + 1]).
  std::vector<EventId> writes_;
  std::vector<std::size_t> write_begin_;
  std::vector<EventId> reads_;

  // Bitmask rows; empty when !masks_valid().
  std::uint64_t reads_mask_ = 0;
  std::uint64_t writes_mask_ = 0;
  std::uint64_t fences_mask_ = 0;
  std::vector<std::uint64_t> po_mask_;
  std::vector<std::uint64_t> same_addr_mask_;
};

}  // namespace mcmc::core
