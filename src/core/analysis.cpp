#include "core/analysis.h"

#include "util/check.h"

namespace mcmc::core {

namespace {

/// Position of the instruction before `end` in `th` that defines `r`, or
/// -1.  Registers are defined once (Program::validate), so a backward scan
/// of the thread finds the only definition a use can see; threads are
/// short, and no per-register table is built.
int definition(const Thread& th, int end, Reg r) {
  for (int p = end - 1; p >= 0; --p) {
    if (th[static_cast<std::size_t>(p)].dst == r) return p;
  }
  return -1;
}

/// Bit b of row a in rows of `words` words each.
bool test_bit(const std::vector<std::uint64_t>& rows, std::size_t words,
              EventId a, EventId b) {
  const auto sb = static_cast<std::size_t>(b);
  return ((rows[static_cast<std::size_t>(a) * words + sb / 64] >> (sb % 64)) &
          1) != 0;
}

void set_bit(std::vector<std::uint64_t>& rows, std::size_t words, EventId a,
             EventId b) {
  const auto sb = static_cast<std::size_t>(b);
  rows[static_cast<std::size_t>(a) * words + sb / 64] |= 1ULL << (sb % 64);
}

}  // namespace

Analysis::Analysis(const Program& program) { reset(program); }

void Analysis::reset(const Program& program) {
  clear();
  if (!program.marked_valid()) program.validate();
  program_ = &program;
  resolve_events();
  compute_deps();
  compute_indexes();
}

void Analysis::clear() {
  program_ = nullptr;
  events_.clear();
  thread_base_.clear();
  num_locations_ = 0;
  words_ = 0;
  dep_.clear();
  cdep_.clear();
  writes_.clear();
  write_begin_.clear();
  reads_.clear();
  reads_mask_ = 0;
  writes_mask_ = 0;
  fences_mask_ = 0;
  po_mask_.clear();
  same_addr_mask_.clear();
}

void Analysis::resolve_events() {
  // A DepConst-defined register's value, seen from position `at` of `th`.
  const auto static_value = [](const Thread& th, int at, Reg r,
                               const char* what) {
    const int d = definition(th, at, r);
    MCMC_CHECK_MSG(d >= 0 && th[static_cast<std::size_t>(d)].op ==
                                 Op::DepConst,
                   what);
    return th[static_cast<std::size_t>(d)].value;
  };
  for (int t = 0; t < program_->num_threads(); ++t) {
    thread_base_.push_back(static_cast<int>(events_.size()));
    const auto& th = program_->thread(t);
    for (int i = 0; i < static_cast<int>(th.size()); ++i) {
      const auto& instr = th[static_cast<std::size_t>(i)];
      Event e;
      e.thread = t;
      e.index = i;
      e.op = instr.op;
      e.dst = instr.dst;
      e.instr = &instr;
      if (instr.op == Op::DepConst) e.value = instr.value;
      if (instr.is_memory_access()) {
        if (instr.addr_reg >= 0) {
          e.loc = static_value(th, i, instr.addr_reg,
                               "address register not statically resolvable");
          MCMC_CHECK_MSG(e.loc >= 0,
                         "address register resolves to a negative location");
        } else {
          e.loc = instr.loc;
        }
        if (e.loc + 1 > num_locations_) num_locations_ = e.loc + 1;
      }
      if (instr.op == Op::Write) {
        e.value = instr.value_from_reg
                      ? static_value(
                            th, i, instr.src,
                            "store value register not statically resolvable")
                      : instr.value;
      }
      events_.push_back(e);
    }
  }
}

void Analysis::compute_deps() {
  const auto n = static_cast<std::size_t>(num_events());
  words_ = (n + 63) / 64;
  dep_.assign(n * words_, 0);
  cdep_.assign(n * words_, 0);

  for (int t = 0; t < program_->num_threads(); ++t) {
    const auto& th = program_->thread(t);
    const int base = thread_base_[static_cast<std::size_t>(t)];
    const int len = static_cast<int>(th.size());

    // DataDep is the transitive taint of register uses: instruction j's
    // inputs depend on the instruction d defining a register j reads, and
    // on everything d depends on.  Positions are visited in program
    // order, so d's row is complete when j absorbs it.
    for (int j = 0; j < len; ++j) {
      const auto& instr = th[static_cast<std::size_t>(j)];
      auto absorb = [&](Reg r) {
        if (r < 0) return;
        const int d = definition(th, j, r);
        if (d < 0) return;  // defined in another thread: invalid
        set_bit(dep_, words_, base + d, base + j);
        for (int i = 0; i < d; ++i) {
          if (test_bit(dep_, words_, base + i, base + d)) {
            set_bit(dep_, words_, base + i, base + j);
          }
        }
      };
      absorb(instr.addr_reg);
      if (instr.op == Op::DepConst || instr.op == Op::Branch) absorb(instr.src);
      if (instr.op == Op::Write && instr.value_from_reg) absorb(instr.src);
    }

    // Control dependencies: everything after a branch is control-dependent
    // on whatever the branch condition data-depends on (and on the branch's
    // own inputs' sources).
    for (int b = 0; b < len; ++b) {
      if (th[static_cast<std::size_t>(b)].op != Op::Branch) continue;
      for (int i = 0; i < b; ++i) {
        if (!test_bit(dep_, words_, base + i, base + b)) continue;
        for (int j = b + 1; j < len; ++j) {
          set_bit(cdep_, words_, base + i, base + j);
        }
      }
    }
  }
}

const Event& Analysis::event(EventId e) const {
  MCMC_REQUIRE(e >= 0 && e < num_events());
  return events_[static_cast<std::size_t>(e)];
}

EventId Analysis::event_id(int thread, int index) const {
  MCMC_REQUIRE(thread >= 0 && thread < program_->num_threads());
  MCMC_REQUIRE(index >= 0 &&
               index < static_cast<int>(program_->thread(thread).size()));
  return thread_base_[static_cast<std::size_t>(thread)] + index;
}

void Analysis::compute_indexes() {
  const int n = num_events();
  // Writes grouped by location, in event-id order (a counting sort):
  // count each location's writes into the slot after it, sum the counts
  // into starts, place each write at its location's cursor, and shift
  // the advanced cursors back into starts.
  const auto num_locs = static_cast<std::size_t>(num_locations_);
  write_begin_.assign(num_locs + 1, 0);
  for (const Event& e : events_) {
    if (e.op == Op::Write) ++write_begin_[static_cast<std::size_t>(e.loc) + 1];
  }
  for (std::size_t l = 0; l < num_locs; ++l) {
    write_begin_[l + 1] += write_begin_[l];
  }
  writes_.resize(write_begin_[num_locs]);
  for (EventId e = 0; e < n; ++e) {
    const Event& ev = events_[static_cast<std::size_t>(e)];
    if (ev.op == Op::Write) {
      writes_[write_begin_[static_cast<std::size_t>(ev.loc)]++] = e;
    }
    if (ev.op == Op::Read) reads_.push_back(e);
  }
  for (std::size_t l = num_locs; l > 0; --l) {
    write_begin_[l] = write_begin_[l - 1];
  }
  write_begin_[0] = 0;

  if (!masks_valid()) return;
  // Bits [0, k) of a row.
  const auto below = [](int k) { return k >= 64 ? ~0ULL : (1ULL << k) - 1; };
  const auto is_access = [](const Event& e) {
    return e.op == Op::Read || e.op == Op::Write;
  };
  po_mask_.assign(static_cast<std::size_t>(n), 0);
  same_addr_mask_.assign(static_cast<std::size_t>(n), 0);
  for (EventId a = 0; a < n; ++a) {
    const auto sa = static_cast<std::size_t>(a);
    const Event& ea = events_[sa];
    const std::uint64_t bit = 1ULL << a;
    if (ea.op == Op::Read) reads_mask_ |= bit;
    if (ea.op == Op::Write) writes_mask_ |= bit;
    if (ea.op == Op::Fence) fences_mask_ |= bit;
    // Event ids are thread-major: a's program-order successors are the
    // ids after it up to its thread's end.
    const int thread_end =
        a - ea.index + static_cast<int>(program_->thread(ea.thread).size());
    po_mask_[sa] = below(thread_end) & ~below(a + 1);
    if (!is_access(ea)) continue;
    for (EventId b = 0; b < n; ++b) {
      const Event& eb = events_[static_cast<std::size_t>(b)];
      if (b != a && is_access(eb) && eb.loc == ea.loc) {
        same_addr_mask_[sa] |= 1ULL << b;
      }
    }
  }
}

EventRange Analysis::writes_to(Loc loc) const {
  MCMC_REQUIRE(loc >= 0 && loc < num_locations_);
  const EventId* const writes = writes_.data();
  return {writes + write_begin_[static_cast<std::size_t>(loc)],
          writes + write_begin_[static_cast<std::size_t>(loc) + 1]};
}

std::uint64_t Analysis::po_mask(EventId x) const {
  MCMC_REQUIRE(masks_valid() && x >= 0 && x < num_events());
  return po_mask_[static_cast<std::size_t>(x)];
}

std::uint64_t Analysis::same_addr_mask(EventId x) const {
  MCMC_REQUIRE(masks_valid() && x >= 0 && x < num_events());
  return same_addr_mask_[static_cast<std::size_t>(x)];
}

std::uint64_t Analysis::data_dep_mask(EventId x) const {
  MCMC_REQUIRE(masks_valid() && x >= 0 && x < num_events());
  return dep_[static_cast<std::size_t>(x)];
}

std::uint64_t Analysis::ctrl_dep_mask(EventId x) const {
  MCMC_REQUIRE(masks_valid() && x >= 0 && x < num_events());
  return cdep_[static_cast<std::size_t>(x)];
}

bool Analysis::po(EventId a, EventId b) const {
  const auto& ea = event(a);
  const auto& eb = event(b);
  return ea.thread == eb.thread && ea.index < eb.index;
}

bool Analysis::same_thread(EventId a, EventId b) const {
  return event(a).thread == event(b).thread;
}

bool Analysis::same_addr(EventId a, EventId b) const {
  const auto& ea = event(a);
  const auto& eb = event(b);
  return ea.instr->is_memory_access() && eb.instr->is_memory_access() &&
         ea.loc == eb.loc;
}

bool Analysis::data_dep(EventId a, EventId b) const {
  MCMC_REQUIRE(a >= 0 && a < num_events() && b >= 0 && b < num_events());
  return test_bit(dep_, words_, a, b);
}

bool Analysis::ctrl_dep(EventId a, EventId b) const {
  MCMC_REQUIRE(a >= 0 && a < num_events() && b >= 0 && b < num_events());
  return test_bit(cdep_, words_, a, b);
}

}  // namespace mcmc::core
