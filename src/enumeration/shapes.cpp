#include "enumeration/shapes.h"

#include <algorithm>
#include <utility>

#include "core/instruction.h"

namespace mcmc::enumeration::shapes {

bool well_formed(const ThreadShape& shape) {
  for (std::size_t i = 0; i < shape.size(); ++i) {
    const Sep sep = shape[i].sep;
    if (i == 0) {
      // No predecessor: any separator here would be silently
      // meaningless, so it is rejected outright.
      if (sep != Sep::None) return false;
    } else if ((sep == Sep::DataDep || sep == Sep::CtrlDep) &&
               !shape[i - 1].is_read) {
      return false;  // only a read produces a value to depend on
    }
  }
  return true;
}

std::vector<ThreadShape> all_thread_shapes(const NaiveOptions& o) {
  std::vector<ThreadShape> out;
  ThreadShape current;
  // Depth-first over slots.  Separator candidates are tried in enum
  // order (None, Fence, DataDep, CtrlDep), so with deps off the
  // sequence is byte-identical to the historical fence-only order.
  constexpr Sep kSeps[] = {Sep::None, Sep::Fence, Sep::DataDep, Sep::CtrlDep};
  auto rec = [&](auto&& self, int depth) -> void {
    if (!current.empty()) {
      MCMC_CHECK_MSG(well_formed(current),
                     "generator emitted an ill-formed shape");
      out.push_back(current);
    }
    if (depth == o.max_accesses_per_thread) return;
    for (const Sep sep : kSeps) {
      if (current.empty()) {
        if (sep != Sep::None) continue;  // first slot has no predecessor
      } else if (sep == Sep::Fence) {
        if (!o.fences) continue;
      } else if (sep == Sep::DataDep || sep == Sep::CtrlDep) {
        if (!o.deps || !current.back().is_read) continue;
      }
      for (const bool is_read : {false, true}) {
        for (int loc = 0; loc < o.num_locations; ++loc) {
          current.push_back({is_read, loc, sep});
          self(self, depth + 1);
          current.pop_back();
        }
      }
    }
  };
  rec(rec, 0);
  return out;
}

std::string encode(const ThreadShape& t, const std::vector<int>& loc_perm) {
  MCMC_REQUIRE_MSG(well_formed(t), "encode: ill-formed shape");
  std::string s;
  for (const auto& a : t) {
    switch (a.sep) {
      case Sep::None: break;
      case Sep::Fence: s += 'f'; break;
      case Sep::DataDep: s += 'd'; break;
      case Sep::CtrlDep: s += 'c'; break;
    }
    s += a.is_read ? 'R' : 'W';
    s += static_cast<char>('0' + loc_perm[static_cast<std::size_t>(a.loc)]);
  }
  return s;
}

long long outcome_count(const ThreadShape& a, const ThreadShape& b,
                        WriteCounts& writes) {
  writes.clear();
  for (const auto* t : {&a, &b}) {
    for (const auto& acc : *t) {
      if (acc.is_read) continue;
      const auto at = static_cast<std::size_t>(acc.loc);
      if (at >= writes.size()) writes.resize(at + 1, 0);
      ++writes[at];
    }
  }
  long long count = 1;
  for (const auto* t : {&a, &b}) {
    for (const auto& acc : *t) {
      if (acc.is_read) {
        count = checked_mul(count, 1 + writes_to(writes, acc.loc));
      }
    }
  }
  return count;
}

bool communicates(const ThreadShape& a, const ThreadShape& b) {
  for (const auto& wa : a) {
    if (wa.is_read) continue;
    for (const auto& xb : b) {
      if (xb.loc == wa.loc) return true;
    }
  }
  for (const auto& wb : b) {
    if (wb.is_read) continue;
    for (const auto& xa : a) {
      if (xa.loc == wb.loc) return true;
    }
  }
  return false;
}

std::vector<std::vector<int>> location_permutations(int n) {
  std::vector<int> perm(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) perm[static_cast<std::size_t>(i)] = i;
  std::vector<std::vector<int>> out;
  do {
    out.push_back(perm);
  } while (std::next_permutation(perm.begin(), perm.end()));
  return out;
}

core::Thread materialize(const ThreadShape& shape, WriteCounts& values,
                         core::Reg& next_reg) {
  MCMC_REQUIRE_MSG(well_formed(shape), "materialize: ill-formed shape");
  core::Thread t;
  // An access takes at most two instructions: a separator (fence,
  // branch or DepConst) and the access itself.
  t.reserve(2 * shape.size());
  core::Reg prev_read = core::kNoReg;  // register of the preceding read slot
  for (const auto& a : shape) {
    switch (a.sep) {
      case Sep::None:
      case Sep::DataDep:
        break;
      case Sep::Fence:
        t.push_back(core::make_fence());
        break;
      case Sep::CtrlDep:
        t.push_back(core::make_branch(prev_read));
        break;
    }
    if (a.is_read) {
      if (a.sep == Sep::DataDep) {
        // TestBuilder::dep_read: t = r - r + loc ; Read [t] -> r'
        const core::Reg tmp = next_reg++;
        t.push_back(core::make_dep_const(tmp, prev_read, a.loc));
        t.push_back(core::make_read_indirect(tmp, next_reg));
      } else {
        t.push_back(core::make_read(a.loc, next_reg));
      }
      prev_read = next_reg++;
    } else {
      const auto at = static_cast<std::size_t>(a.loc);
      if (at >= values.size()) values.resize(at + 1, 0);
      const int v = ++values[at];
      if (a.sep == Sep::DataDep) {
        // TestBuilder::dep_write: t = r - r + v ; Write loc <- t
        const core::Reg tmp = next_reg++;
        t.push_back(core::make_dep_const(tmp, prev_read, v));
        t.push_back(core::make_write_from_reg(a.loc, tmp));
      } else {
        t.push_back(core::make_write(a.loc, v));
      }
      prev_read = core::kNoReg;  // a write yields no value to depend on
    }
  }
  return t;
}

core::Program materialize_pair(const ThreadShape& a, const ThreadShape& b,
                               WriteCounts& values) {
  values.clear();
  core::Reg next_reg = 0;
  std::vector<core::Thread> threads;
  threads.reserve(2);
  threads.push_back(materialize(a, values, next_reg));
  threads.push_back(materialize(b, values, next_reg));
  return core::Program(std::move(threads));
}

}  // namespace mcmc::enumeration::shapes
