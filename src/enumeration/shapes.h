// The shared generator core of the naive bounded space (Section 3.4):
// thread shapes within the NaiveOptions bounds, outcome counting,
// communication tests, shape-level canonical encodings, and shape
// materialization into core::Thread instruction sequences.
//
// Both the counting walk (`count_naive`, naive.h) and the streaming
// materializer (`ExhaustiveStream`, exhaustive.h) consume these one
// definitions, so the counted space and the materialized space cannot
// drift apart.
//
// With NaiveOptions::deps the slots additionally carry the paper's
// dependency idioms (mirroring enumeration/segment.h's Interior::Dep):
// a read may feed the next access through a data dependency — a
// dependent address for a read, a dependent store value for a write —
// or through a control dependency (a conditional branch on the read's
// value).  Materialization uses exactly the TestBuilder idioms
// (`t = r - r + c` DepConst chains, conditional branches), so the
// dep-extended generated classes and the Corollary-1 suite's dependency
// tests land in the same canonical classes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/program.h"
#include "enumeration/naive.h"
#include "util/check.h"

namespace mcmc::enumeration::shapes {

/// How a slot is separated from the slot before it.  The first slot of
/// a thread has no predecessor, so only Sep::None is well-formed there;
/// DataDep and CtrlDep additionally require the preceding slot to be a
/// read (writes produce no value to depend on — the same restriction
/// segment.h's Interior::Dep encodes).
enum class Sep : std::uint8_t {
  None = 0,     ///< adjacent, no separator
  Fence = 1,    ///< full fence between the two accesses
  DataDep = 2,  ///< this access data-depends on the preceding read
  CtrlDep = 3,  ///< this access is control-dependent on the preceding read
};

/// One access slot in a thread shape.
struct Access {
  bool is_read = false;
  int loc = 0;
  Sep sep = Sep::None;  ///< separator from the previous slot (see Sep)
};

using ThreadShape = std::vector<Access>;

/// Structural validity of a shape: the first slot carries Sep::None,
/// and dependency separators appear only directly after a read.  Every
/// shape all_thread_shapes emits satisfies this; encode and materialize
/// reject anything that does not, so the counted space and the
/// materialized space cannot drift.
[[nodiscard]] bool well_formed(const ThreadShape& shape);

/// Every thread shape within the bounds, in a fixed deterministic order
/// (with deps off, byte-identical to the historical fence-only order —
/// stream cursors and test names depend on it).
[[nodiscard]] std::vector<ThreadShape> all_thread_shapes(
    const NaiveOptions& options);

/// Encodes a shape for shape-level canonicalization under a location
/// permutation (the CAV'10-style reduced baseline).  Separators encode
/// as 'f' / 'd' / 'c' before the access letter.
[[nodiscard]] std::string encode(const ThreadShape& shape,
                                 const std::vector<int>& loc_perm);

/// Checked space-accounting arithmetic: the dep-extended space grows
/// the products by an order of magnitude, so a silent wrap would
/// corrupt every downstream count.  Fails loudly instead.
[[nodiscard]] inline long long checked_mul(long long a, long long b) {
  long long out = 0;
  MCMC_CHECK_MSG(!__builtin_mul_overflow(a, b, &out),
                 "space size product overflows long long");
  return out;
}
[[nodiscard]] inline long long checked_add(long long a, long long b) {
  long long out = 0;
  MCMC_CHECK_MSG(!__builtin_add_overflow(a, b, &out),
                 "space size sum overflows long long");
  return out;
}

/// True if some location is written by one thread and accessed by the
/// other (without this, the threads cannot observe each other at all).
[[nodiscard]] bool communicates(const ThreadShape& a, const ThreadShape& b);

/// All permutations of {0, ..., n-1} in lexicographic order.
[[nodiscard]] std::vector<std::vector<int>> location_permutations(int n);

/// Writes per location, indexed by location: a flat table that grows
/// to the highest written location, so a reused one stops allocating.
using WriteCounts = std::vector<int>;

/// The writes `counts` records for `loc` (0 past its end).
[[nodiscard]] inline int writes_to(const WriteCounts& counts, int loc) {
  const auto at = static_cast<std::size_t>(loc);
  return at < counts.size() ? counts[at] : 0;
}

/// Number of outcome assignments of the two-thread program (a, b): each
/// read observes one of {initial} + {every write to its location}.  A
/// dep-addressed read still targets its slot's location (the DepConst
/// constant is the location), so the domain is unchanged by separators.
/// `writes` is reset and left holding each written location's write
/// count, as materialize_pair leaves it, so a reused table allocates
/// nothing.
[[nodiscard]] long long outcome_count(const ThreadShape& a,
                                      const ThreadShape& b,
                                      WriteCounts& writes);

/// Materializes a shape: writes store 1, 2, ... per location (continuing
/// `values`, which is shared across the program's threads), reads load
/// into fresh registers from `next_reg`.  Dep separators materialize the
/// TestBuilder idioms: DataDep emits `t = r - r + c` feeding an indirect
/// read address or a write value, CtrlDep emits a branch on the
/// preceding read's register.
[[nodiscard]] core::Thread materialize(const ThreadShape& shape,
                                       WriteCounts& values,
                                       core::Reg& next_reg);

/// The two-thread program (a, b): a's thread then b's, materialized
/// over one shared value numbering and register counter.  `values` is
/// reset and left holding each written location's write count.  The
/// stream, the naive sampler and the program-class count all build
/// programs through this, so their programs cannot drift apart.
[[nodiscard]] core::Program materialize_pair(const ThreadShape& a,
                                             const ThreadShape& b,
                                             WriteCounts& values);

/// Calls fn(dst_reg, loc) for every read of `thread`, in order, with
/// the read's statically resolved target location: a register-indirect
/// address is followed through the DepConst that defines it (the only
/// way materialize and TestBuilder produce one).  Both the stream's
/// outcome-domain computation and the naive sampler resolve reads
/// through this one helper, so dep-addressed reads cannot get a
/// different outcome domain in the counted and sampled spaces.
template <typename Fn>
void for_each_read(const core::Thread& thread, Fn&& fn) {
  for (std::size_t i = 0; i < thread.size(); ++i) {
    const core::Instruction& instr = thread[i];
    if (instr.op != core::Op::Read) continue;
    int loc = instr.loc;
    if (instr.addr_reg >= 0) {
      loc = core::kNoLoc;
      for (std::size_t k = i; k-- > 0;) {
        const core::Instruction& def = thread[k];
        if (def.op == core::Op::DepConst && def.dst == instr.addr_reg) {
          loc = def.value;
          break;
        }
      }
      MCMC_CHECK_MSG(loc != core::kNoLoc,
                     "indirect read address is not DepConst-resolvable");
    }
    fn(instr.dst, loc);
  }
}

}  // namespace mcmc::enumeration::shapes
