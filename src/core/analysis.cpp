#include "core/analysis.h"

#include <map>

#include "util/check.h"

namespace mcmc::core {

std::shared_ptr<const Analysis> analyze_shared(
    std::shared_ptr<const Program> program) {
  struct Pinned {
    explicit Pinned(std::shared_ptr<const Program> p)
        : program(std::move(p)), analysis(*program) {}
    std::shared_ptr<const Program> program;
    Analysis analysis;
  };
  auto pinned = std::make_shared<const Pinned>(std::move(program));
  return std::shared_ptr<const Analysis>(pinned, &pinned->analysis);
}

Analysis::Analysis(const Program& program) : program_(&program) {
  program.validate();
  resolve_events();
  compute_deps();
  compute_indexes();
}

void Analysis::resolve_events() {
  for (int t = 0; t < program_->num_threads(); ++t) {
    thread_base_.push_back(static_cast<int>(events_.size()));
    const auto& th = program_->thread(t);
    std::map<Reg, int> static_value;  // DepConst-defined registers
    for (int i = 0; i < static_cast<int>(th.size()); ++i) {
      const auto& instr = th[static_cast<std::size_t>(i)];
      Event e;
      e.thread = t;
      e.index = i;
      e.op = instr.op;
      e.dst = instr.dst;
      e.instr = &instr;
      if (instr.op == Op::DepConst) {
        e.value = instr.value;
        static_value[instr.dst] = instr.value;
      }
      if (instr.is_memory_access()) {
        if (instr.addr_reg >= 0) {
          const auto it = static_value.find(instr.addr_reg);
          MCMC_CHECK_MSG(it != static_value.end(),
                         "address register not statically resolvable");
          MCMC_CHECK_MSG(it->second >= 0,
                         "address register resolves to a negative location");
          e.loc = it->second;
        } else {
          e.loc = instr.loc;
        }
      }
      if (instr.op == Op::Write) {
        if (instr.value_from_reg) {
          const auto it = static_value.find(instr.src);
          MCMC_CHECK_MSG(it != static_value.end(),
                         "store value register not statically resolvable");
          e.value = it->second;
        } else {
          e.value = instr.value;
        }
      }
      events_.push_back(e);
    }
  }
}

void Analysis::compute_deps() {
  const auto n = static_cast<std::size_t>(num_events());
  dep_.assign(n, std::vector<bool>(n, false));
  cdep_.assign(n, std::vector<bool>(n, false));

  for (int t = 0; t < program_->num_threads(); ++t) {
    const auto& th = program_->thread(t);
    const int base = thread_base_[static_cast<std::size_t>(t)];
    const int len = static_cast<int>(th.size());

    // taint[i][j]: instruction j's inputs depend on instruction i's output
    // (i < j, both positions within this thread).
    std::vector<std::vector<bool>> taint(
        static_cast<std::size_t>(len),
        std::vector<bool>(static_cast<std::size_t>(len), false));

    // reg_def[r] = position defining register r in this thread.
    std::map<Reg, int> reg_def;
    for (int j = 0; j < len; ++j) {
      const auto& instr = th[static_cast<std::size_t>(j)];
      auto absorb = [&](Reg r) {
        if (r < 0) return;
        const auto it = reg_def.find(r);
        if (it == reg_def.end()) return;  // defined in another thread: invalid
        const int d = it->second;
        taint[static_cast<std::size_t>(d)][static_cast<std::size_t>(j)] = true;
        // Transitive through the defining instruction's own dependencies.
        for (int i = 0; i < d; ++i) {
          if (taint[static_cast<std::size_t>(i)][static_cast<std::size_t>(d)]) {
            taint[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] =
                true;
          }
        }
      };
      absorb(instr.addr_reg);
      if (instr.op == Op::DepConst || instr.op == Op::Branch) absorb(instr.src);
      if (instr.op == Op::Write && instr.value_from_reg) absorb(instr.src);
      if (instr.dst >= 0) reg_def[instr.dst] = j;
    }

    for (int i = 0; i < len; ++i) {
      for (int j = i + 1; j < len; ++j) {
        dep_[static_cast<std::size_t>(base + i)]
            [static_cast<std::size_t>(base + j)] =
                taint[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
      }
    }

    // Control dependencies: everything after a branch is control-dependent
    // on whatever the branch condition data-depends on (and on the branch's
    // own inputs' sources).
    for (int b = 0; b < len; ++b) {
      if (th[static_cast<std::size_t>(b)].op != Op::Branch) continue;
      for (int i = 0; i < b; ++i) {
        const bool feeds_branch =
            taint[static_cast<std::size_t>(i)][static_cast<std::size_t>(b)];
        if (!feeds_branch) continue;
        for (int j = b + 1; j < len; ++j) {
          cdep_[static_cast<std::size_t>(base + i)]
               [static_cast<std::size_t>(base + j)] = true;
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
  writes_by_loc_.assign(
      static_cast<std::size_t>(program_->num_locations()), {});
  for (EventId e = 0; e < n; ++e) {
    if (is_write(e)) {
      writes_by_loc_[static_cast<std::size_t>(event(e).loc)].push_back(e);
    }
    if (is_read(e)) reads_.push_back(e);
  }

  if (!masks_valid()) return;
  po_mask_.assign(static_cast<std::size_t>(n), 0);
  same_addr_mask_.assign(static_cast<std::size_t>(n), 0);
  data_dep_mask_.assign(static_cast<std::size_t>(n), 0);
  ctrl_dep_mask_.assign(static_cast<std::size_t>(n), 0);
  for (EventId a = 0; a < n; ++a) {
    const std::uint64_t bit = 1ULL << a;
    if (is_read(a)) reads_mask_ |= bit;
    if (is_write(a)) writes_mask_ |= bit;
    if (is_fence(a)) fences_mask_ |= bit;
    for (EventId b = 0; b < n; ++b) {
      if (b == a) continue;
      const std::uint64_t bbit = 1ULL << b;
      const auto sa = static_cast<std::size_t>(a);
      if (po(a, b)) po_mask_[sa] |= bbit;
      if (same_addr(a, b)) same_addr_mask_[sa] |= bbit;
      if (data_dep(a, b)) data_dep_mask_[sa] |= bbit;
      if (ctrl_dep(a, b)) ctrl_dep_mask_[sa] |= bbit;
    }
  }
}

const std::vector<EventId>& Analysis::writes_to(Loc loc) const {
  MCMC_REQUIRE(loc >= 0 &&
               loc < static_cast<Loc>(writes_by_loc_.size()));
  return writes_by_loc_[static_cast<std::size_t>(loc)];
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
  return data_dep_mask_[static_cast<std::size_t>(x)];
}

std::uint64_t Analysis::ctrl_dep_mask(EventId x) const {
  MCMC_REQUIRE(masks_valid() && x >= 0 && x < num_events());
  return ctrl_dep_mask_[static_cast<std::size_t>(x)];
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
  return dep_[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)];
}

bool Analysis::ctrl_dep(EventId a, EventId b) const {
  MCMC_REQUIRE(a >= 0 && a < num_events() && b >= 0 && b < num_events());
  return cdep_[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)];
}

}  // namespace mcmc::core
