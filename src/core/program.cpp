#include "core/program.h"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <tuple>

#include "util/check.h"
#include "util/strings.h"

namespace mcmc::core {

Program::Program(std::vector<Thread> threads) : threads_(std::move(threads)) {}

const Thread& Program::thread(int t) const {
  MCMC_REQUIRE(t >= 0 && t < num_threads());
  return threads_[static_cast<std::size_t>(t)];
}

Thread& Program::mutable_thread(int t) {
  MCMC_REQUIRE(t >= 0 && t < num_threads());
  marked_valid_ = false;
  return threads_[static_cast<std::size_t>(t)];
}

int Program::add_thread(Thread thread) {
  marked_valid_ = false;
  threads_.push_back(std::move(thread));
  return num_threads() - 1;
}

void Program::validate_and_mark() {
  validate();
  marked_valid_ = true;
}

int Program::size() const {
  int n = 0;
  for (const auto& t : threads_) n += static_cast<int>(t.size());
  return n;
}

int Program::num_memory_accesses() const {
  int n = 0;
  for (const auto& t : threads_) {
    for (const auto& i : t) {
      if (i.is_memory_access()) ++n;
    }
  }
  return n;
}

int Program::num_locations() const {
  int hi = -1;
  for (const auto& t : threads_) {
    for (const auto& i : t) {
      if (i.is_memory_access() && i.addr_reg < 0) hi = std::max(hi, i.loc);
    }
  }
  // Indirect addresses resolve through DepConst constants; scan those too.
  for (const auto& t : threads_) {
    std::map<Reg, int> dep_consts;
    for (const auto& i : t) {
      if (i.op == Op::DepConst) dep_consts[i.dst] = i.value;
      if (i.is_memory_access() && i.addr_reg >= 0) {
        const auto it = dep_consts.find(i.addr_reg);
        if (it != dep_consts.end()) hi = std::max(hi, it->second);
      }
    }
  }
  return hi + 1;
}

void Program::validate() const {
  // Definition sites in one flat table, sorted by register and then by
  // program order: no node per register, and nothing sized by a
  // register's index.  Registers are unique once redefinitions are
  // rejected, so a use finds its one definition by binary search.
  struct Def {
    Reg reg;
    int thread;
    int index;
    bool operator<(const Def& o) const {
      return std::tie(reg, thread, index) < std::tie(o.reg, o.thread, o.index);
    }
  };
  std::vector<Def> defs;
  defs.reserve(static_cast<std::size_t>(size()));
  for (int t = 0; t < num_threads(); ++t) {
    const auto& th = threads_[static_cast<std::size_t>(t)];
    for (int i = 0; i < static_cast<int>(th.size()); ++i) {
      const Reg dst = th[static_cast<std::size_t>(i)].dst;
      if (dst >= 0) defs.push_back({dst, t, i});
    }
  }
  std::sort(defs.begin(), defs.end());
  // Report the redefinition a walk in program order would meet first.
  const auto order = [](const Def& d) { return std::tie(d.thread, d.index); };
  const Def* redefined = nullptr;
  for (std::size_t k = 1; k < defs.size(); ++k) {
    const Def& def = defs[k];
    if (def.reg != defs[k - 1].reg) continue;
    if (redefined == nullptr || order(def) < order(*redefined)) {
      redefined = &def;
    }
  }
  if (redefined != nullptr) {
    throw std::invalid_argument("register " + reg_name(redefined->reg) +
                                " defined more than once");
  }
  auto check_use = [&](Reg r, int t, int i, bool must_be_static) {
    const auto it = std::lower_bound(defs.begin(), defs.end(), Def{r, -1, -1});
    if (it == defs.end() || it->reg != r) {
      throw std::invalid_argument("register " + reg_name(r) +
                                  " used but never defined");
    }
    const int dt = it->thread;
    const int di = it->index;
    if (dt != t || di >= i) {
      throw std::invalid_argument("register " + reg_name(r) +
                                  " used before its definition");
    }
    if (must_be_static) {
      const auto& def = threads_[static_cast<std::size_t>(dt)]
                                [static_cast<std::size_t>(di)];
      if (def.op != Op::DepConst) {
        throw std::invalid_argument(
            "register " + reg_name(r) +
            " must be statically resolvable (DepConst-defined) where used "
            "as an address or store value");
      }
    }
  };
  for (int t = 0; t < num_threads(); ++t) {
    const auto& th = threads_[static_cast<std::size_t>(t)];
    for (int i = 0; i < static_cast<int>(th.size()); ++i) {
      const auto& instr = th[static_cast<std::size_t>(i)];
      if (instr.addr_reg >= 0) check_use(instr.addr_reg, t, i, true);
      if (instr.op == Op::Write && instr.value_from_reg) {
        check_use(instr.src, t, i, true);
      }
      if (instr.op == Op::DepConst || instr.op == Op::Branch) {
        check_use(instr.src, t, i, false);
      }
      if (instr.is_memory_access() && instr.addr_reg < 0 && instr.loc < 0) {
        throw std::invalid_argument("memory access without an address");
      }
    }
  }
}

std::string Program::to_string() const {
  std::vector<std::vector<std::string>> cols;
  std::size_t rows = 0;
  for (const auto& th : threads_) {
    std::vector<std::string> col;
    // Mark DepConst registers that feed addresses so the printer shows
    // location names for their constants.
    std::vector<bool> feeds_addr(th.size(), false);
    for (std::size_t i = 0; i < th.size(); ++i) {
      if (th[i].addr_reg < 0) continue;
      for (std::size_t j = 0; j < i; ++j) {
        if (th[j].op == Op::DepConst && th[j].dst == th[i].addr_reg) {
          feeds_addr[j] = true;
        }
      }
    }
    for (std::size_t i = 0; i < th.size(); ++i) {
      col.push_back(core::to_string(th[i], feeds_addr[i]));
    }
    rows = std::max(rows, col.size());
    cols.push_back(std::move(col));
  }
  std::vector<std::size_t> width(cols.size());
  for (std::size_t c = 0; c < cols.size(); ++c) {
    width[c] = std::string("T" + std::to_string(c + 1)).size();
    for (const auto& s : cols[c]) width[c] = std::max(width[c], s.size());
  }
  std::string out;
  for (std::size_t c = 0; c < cols.size(); ++c) {
    if (c) out += " | ";
    out += util::pad_right("T" + std::to_string(c + 1), width[c]);
  }
  out += '\n';
  for (std::size_t c = 0; c < cols.size(); ++c) {
    if (c) out += "-+-";
    out += std::string(width[c], '-');
  }
  out += '\n';
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols.size(); ++c) {
      if (c) out += " | ";
      out += util::pad_right(r < cols[c].size() ? cols[c][r] : "", width[c]);
    }
    out += '\n';
  }
  return out;
}

bool operator==(const Instruction& a, const Instruction& b) {
  return a.op == b.op && a.loc == b.loc && a.addr_reg == b.addr_reg &&
         a.dst == b.dst && a.src == b.src && a.value == b.value &&
         a.value_from_reg == b.value_from_reg;
}

bool operator==(const Program& a, const Program& b) {
  return a.threads_ == b.threads_;
}

}  // namespace mcmc::core
