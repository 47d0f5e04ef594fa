// The slice of core::Analysis that canonical fingerprinting needs:
// resolved events plus within-thread dependency bits — nothing else.
//
// The streaming pipeline computes one dedup key per built test (half a
// million to two million per run; a certified stream settles each
// inside its program run), and a full Analysis is overkill for that:
// keys never consult rf indexes, po-pair counts, or predicate bitmask
// rows, and an Analysis refills dependency bit rows sized by the
// event count squared.  KeyFacts resolves the
// same events and the same transitive data/control dependency relation
// into flat per-thread 64-bit masks, reusing its buffers across builds
// (generation-stamped register tables, no std::map), so the
// steady-state cost of keying is zero heap allocations.  The facts
// depend on the program alone: the stream builds them once per program
// and hashes every outcome over them (litmus::load_key_facts).
//
// KeyFacts trusts its input: callers hand it programs that already
// passed Program::validate (litmus::LitmusTest validates at
// construction).  On the shapes validation rules out — an unresolvable
// address or store-value register, or a thread longer than 64
// instructions (the mask width) — build() returns false and the caller
// falls back to the full Analysis path.  Both bail-out conditions are
// invariant under thread permutation and location/value renaming, so a
// canonical class never straddles the fast and fallback paths.
#pragma once

#include <cstdint>
#include <vector>

#include "core/program.h"

namespace mcmc::core {

/// Resolved events + within-thread dependency bitmasks of one program,
/// with buffers reused across build() calls.
class KeyFacts {
 public:
  /// A resolved instruction execution (the fields canonical keys read;
  /// compare core::Event).
  struct Event {
    Op op = Op::Fence;
    Loc loc = kNoLoc;  ///< resolved address (memory accesses only)
    int value = 0;     ///< resolved store value (writes) / constant
    Reg dst = kNoReg;  ///< defined register
  };

  /// Rebuilds the facts for `program`; returns false when the program
  /// falls outside the fast path (see the header comment) and nothing
  /// may be read.  Amortized allocation-free: tables grow to the
  /// high-water mark and are reset by generation counter.
  [[nodiscard]] bool build(const Program& program);

  [[nodiscard]] int num_threads() const {
    return static_cast<int>(thread_base_.size()) - 1;
  }
  [[nodiscard]] int thread_len(int t) const {
    return thread_base_[static_cast<std::size_t>(t) + 1] -
           thread_base_[static_cast<std::size_t>(t)];
  }
  [[nodiscard]] const Event& event(int t, int i) const {
    return events_[static_cast<std::size_t>(
        thread_base_[static_cast<std::size_t>(t)] + i)];
  }

  /// Bit i set iff instruction j of thread t transitively data-depends
  /// on instruction i (i < j, same thread) — Analysis::data_dep
  /// restricted to within-thread pairs, which is all of it.
  [[nodiscard]] std::uint64_t data_dep_bits(int t, int j) const {
    return taint_[static_cast<std::size_t>(
        thread_base_[static_cast<std::size_t>(t)] + j)];
  }
  /// Bit i set iff instruction j of thread t is control-dependent on
  /// instruction i: i feeds the condition of some branch before j.
  [[nodiscard]] std::uint64_t ctrl_dep_bits(int t, int j) const {
    return ctrl_[static_cast<std::size_t>(
        thread_base_[static_cast<std::size_t>(t)] + j)];
  }

  /// True iff some event of the last built program defines `reg`.
  [[nodiscard]] bool defines(Reg reg) const {
    return reg >= 0 &&
           static_cast<std::size_t>(reg) < reg_defined_gen_.size() &&
           reg_defined_gen_[static_cast<std::size_t>(reg)] == gen_;
  }

 private:
  /// Ensures the register tables cover `reg`.
  void grow_reg_tables(Reg reg);

  std::vector<Event> events_;            // thread-major, like Analysis
  std::vector<int> thread_base_;         // first event of each thread + end
  std::vector<std::uint64_t> taint_;     // per event: data-dep source bits
  std::vector<std::uint64_t> ctrl_;      // per event: ctrl-dep source bits

  // Flat register tables, valid when their stamp equals gen_.  Registers
  // are program-unique (SSA, enforced by validate), so one program-wide
  // table works even though resolution is per-thread in Analysis.
  std::vector<std::uint64_t> reg_value_gen_;  // DepConst static value stamp
  std::vector<int> reg_value_;
  std::vector<std::uint64_t> reg_def_gen_;    // defining-position stamp
  std::vector<int> reg_def_;                  // position within its thread
  std::vector<std::uint64_t> reg_defined_gen_;  // defined-anywhere stamp
  std::uint64_t gen_ = 0;
};

}  // namespace mcmc::core
