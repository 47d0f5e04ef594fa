#include "core/formula.h"

#include <algorithm>
#include <map>
#include <tuple>

#include "util/check.h"
#include "util/strings.h"

namespace mcmc::core {

struct Formula::Node {
  enum class Kind { Atom, And, Or };
  Kind kind = Kind::Atom;
  Atom atom = Atom::False;
  std::string custom_name;
  CustomPredicate custom_pred;
  std::vector<std::shared_ptr<const Node>> children;
};

Formula Formula::constant(bool value) {
  auto n = std::make_shared<Node>();
  n->atom = value ? Atom::True : Atom::False;
  return Formula(std::move(n));
}

Formula Formula::atom(Atom a) {
  MCMC_REQUIRE_MSG(a != Atom::Custom, "use Formula::custom for custom atoms");
  auto n = std::make_shared<Node>();
  n->atom = a;
  return Formula(std::move(n));
}

Formula Formula::custom(std::string name, CustomPredicate pred) {
  MCMC_REQUIRE(pred != nullptr);
  auto n = std::make_shared<Node>();
  n->atom = Atom::Custom;
  n->custom_name = std::move(name);
  n->custom_pred = std::move(pred);
  return Formula(std::move(n));
}

Formula Formula::conj(std::vector<Formula> operands) {
  MCMC_REQUIRE(!operands.empty());
  if (operands.size() == 1) return operands[0];
  auto n = std::make_shared<Node>();
  n->kind = Node::Kind::And;
  for (auto& f : operands) n->children.push_back(f.node_);
  return Formula(std::move(n));
}

Formula Formula::disj(std::vector<Formula> operands) {
  MCMC_REQUIRE(!operands.empty());
  if (operands.size() == 1) return operands[0];
  auto n = std::make_shared<Node>();
  n->kind = Node::Kind::Or;
  for (auto& f : operands) n->children.push_back(f.node_);
  return Formula(std::move(n));
}

namespace {

bool eval_atom(Atom a, const std::string&, const CustomPredicate& pred,
               const Analysis& an, EventId x, EventId y) {
  switch (a) {
    case Atom::True:
      return true;
    case Atom::False:
      return false;
    case Atom::ReadX:
      return an.is_read(x);
    case Atom::ReadY:
      return an.is_read(y);
    case Atom::WriteX:
      return an.is_write(x);
    case Atom::WriteY:
      return an.is_write(y);
    case Atom::FenceX:
      return an.is_fence(x);
    case Atom::FenceY:
      return an.is_fence(y);
    case Atom::SameAddr:
      return an.same_addr(x, y);
    case Atom::DataDep:
      return an.data_dep(x, y);
    case Atom::ControlDep:
      return an.ctrl_dep(x, y);
    case Atom::Custom:
      return pred(an, x, y);
  }
  MCMC_UNREACHABLE("bad atom");
}

}  // namespace

struct FormulaEval;  // (placeholder to keep clang-format stable)

bool Formula::eval(const Analysis& analysis, EventId x, EventId y) const {
  struct Rec {
    static bool go(const Node& n, const Analysis& an, EventId x, EventId y) {
      switch (n.kind) {
        case Node::Kind::Atom:
          return eval_atom(n.atom, n.custom_name, n.custom_pred, an, x, y);
        case Node::Kind::And:
          for (const auto& c : n.children) {
            if (!go(*c, an, x, y)) return false;
          }
          return true;
        case Node::Kind::Or:
          for (const auto& c : n.children) {
            if (go(*c, an, x, y)) return true;
          }
          return false;
      }
      MCMC_UNREACHABLE("bad node kind");
    }
  };
  return Rec::go(*node_, analysis, x, y);
}

bool Formula::has_custom() const {
  struct Rec {
    static bool go(const Node& n) {
      if (n.kind == Node::Kind::Atom) return n.atom == Atom::Custom;
      for (const auto& c : n.children) {
        if (go(*c)) return true;
      }
      return false;
    }
  };
  return Rec::go(*node_);
}

namespace {

std::string atom_name(Atom a, const std::string& custom_name) {
  switch (a) {
    case Atom::True:
      return "true";
    case Atom::False:
      return "false";
    case Atom::ReadX:
      return "Read(x)";
    case Atom::ReadY:
      return "Read(y)";
    case Atom::WriteX:
      return "Write(x)";
    case Atom::WriteY:
      return "Write(y)";
    case Atom::FenceX:
      return "Fence(x)";
    case Atom::FenceY:
      return "Fence(y)";
    case Atom::SameAddr:
      return "SameAddr(x,y)";
    case Atom::DataDep:
      return "DataDep(x,y)";
    case Atom::ControlDep:
      return "ControlDep(x,y)";
    case Atom::Custom:
      return custom_name + "(x,y)";
  }
  MCMC_UNREACHABLE("bad atom");
}

}  // namespace

std::string Formula::to_string() const {
  // Parenthesize whenever a connective nests inside a different one, so
  // the rendering never relies on precedence conventions.
  struct Rec {
    static std::string go(const Node& n, Node::Kind parent) {
      switch (n.kind) {
        case Node::Kind::Atom:
          return atom_name(n.atom, n.custom_name);
        case Node::Kind::And: {
          std::vector<std::string> parts;
          for (const auto& c : n.children) {
            parts.push_back(go(*c, Node::Kind::And));
          }
          const std::string s = util::join(parts, " & ");
          return parent == Node::Kind::Or ? "(" + s + ")" : s;
        }
        case Node::Kind::Or: {
          std::vector<std::string> parts;
          for (const auto& c : n.children) {
            parts.push_back(go(*c, Node::Kind::Or));
          }
          const std::string s = util::join(parts, " | ");
          return parent == Node::Kind::And ? "(" + s + ")" : s;
        }
      }
      MCMC_UNREACHABLE("bad node kind");
    }
  };
  return Rec::go(*node_, Node::Kind::Atom);
}

FormulaSet::FormulaSet(std::vector<Formula> formulas)
    : formulas_(std::move(formulas)) {
  using Key = std::tuple<Op::Kind, Atom, std::uint32_t, std::uint32_t,
                         const Formula::Node*>;
  struct Builder {
    std::vector<Op>& nodes;
    std::map<Key, std::uint32_t> ids;

    std::uint32_t intern(const Op& op) {
      const auto [it, inserted] =
          ids.emplace(std::make_tuple(op.kind, op.atom, op.lhs, op.rhs,
                                      op.custom),
                      static_cast<std::uint32_t>(nodes.size()));
      if (inserted) nodes.push_back(op);
      return it->second;
    }

    // An n-ary connective folds left into binary nodes; And and Or
    // commute, so a node lists its operands in id order.
    std::uint32_t go(const Formula::Node& n) {
      Op op;
      if (n.kind == Formula::Node::Kind::Atom) {
        op.atom = n.atom;
        if (n.atom == Atom::Custom) op.custom = &n;
        return intern(op);
      }
      op.kind = n.kind == Formula::Node::Kind::And ? Op::Kind::And
                                                   : Op::Kind::Or;
      std::uint32_t acc = go(*n.children.front());
      for (std::size_t c = 1; c < n.children.size(); ++c) {
        const std::uint32_t next = go(*n.children[c]);
        op.lhs = std::min(acc, next);
        op.rhs = std::max(acc, next);
        acc = intern(op);
      }
      return acc;
    }
  };
  Builder builder{nodes_, {}};
  roots_.reserve(formulas_.size());
  for (const Formula& f : formulas_) roots_.push_back(builder.go(*f.node_));
}

void FormulaSet::compile(const Analysis& analysis,
                         std::vector<ReorderMask>& masks,
                         std::vector<std::uint64_t>& scratch) const {
  MCMC_REQUIRE_MSG(analysis.masks_valid(),
                   "FormulaSet::compile needs a <= 64-event analysis");
  const int n = analysis.num_events();
  const auto sn = static_cast<std::size_t>(n);
  const std::uint64_t full = n == 64 ? ~0ULL : (1ULL << n) - 1;
  std::array<std::uint64_t, 64> po{};
  for (EventId x = 0; x < n; ++x) {
    po[static_cast<std::size_t>(x)] = analysis.po_mask(x);
  }
  // Row x of node k is scratch[k * n + x]: the events y for which the
  // node's subformula holds on (x, y).
  scratch.resize(nodes_.size() * sn);
  std::uint64_t* const rows = scratch.data();
  for (std::size_t k = 0; k < nodes_.size(); ++k) {
    const Op& op = nodes_[k];
    std::uint64_t* const out = rows + k * sn;
    const std::uint64_t* const lhs = rows + op.lhs * sn;
    const std::uint64_t* const rhs = rows + op.rhs * sn;
    const auto fill = [&](auto&& row_of) {
      for (EventId x = 0; x < n; ++x) out[x] = row_of(x);
    };
    const auto if_x = [&](std::uint64_t set) {
      fill([&](EventId x) { return ((set >> x) & 1) != 0 ? full : 0ULL; });
    };
    if (op.kind == Op::Kind::And) {
      fill([&](EventId x) { return lhs[x] & rhs[x]; });
      continue;
    }
    if (op.kind == Op::Kind::Or) {
      fill([&](EventId x) { return lhs[x] | rhs[x]; });
      continue;
    }
    switch (op.atom) {
      case Atom::True:
        fill([&](EventId) { return full; });
        break;
      case Atom::False:
        fill([](EventId) { return 0ULL; });
        break;
      case Atom::ReadX:
        if_x(analysis.reads_mask());
        break;
      case Atom::ReadY:
        fill([&](EventId) { return analysis.reads_mask(); });
        break;
      case Atom::WriteX:
        if_x(analysis.writes_mask());
        break;
      case Atom::WriteY:
        fill([&](EventId) { return analysis.writes_mask(); });
        break;
      case Atom::FenceX:
        if_x(analysis.fences_mask());
        break;
      case Atom::FenceY:
        fill([&](EventId) { return analysis.fences_mask(); });
        break;
      case Atom::SameAddr:
        fill([&](EventId x) { return analysis.same_addr_mask(x); });
        break;
      case Atom::DataDep:
        fill([&](EventId x) { return analysis.data_dep_mask(x); });
        break;
      case Atom::ControlDep:
        fill([&](EventId x) { return analysis.ctrl_dep_mask(x); });
        break;
      case Atom::Custom:
        // Opaque predicate: one call per po pair, the only pairs a mask
        // keeps.
        fill([&](EventId x) {
          std::uint64_t row = 0;
          std::uint64_t todo = po[static_cast<std::size_t>(x)];
          while (todo != 0) {
            const int y = __builtin_ctzll(todo);
            todo &= todo - 1;
            if (op.custom->custom_pred(analysis, x, y)) row |= 1ULL << y;
          }
          return row;
        });
        break;
    }
  }

  masks.resize(roots_.size());
  for (std::size_t i = 0; i < roots_.size(); ++i) {
    ReorderMask& mask = masks[i];
    const std::uint64_t* const root = rows + roots_[i] * sn;
    for (std::size_t x = 0; x < sn; ++x) mask.rows[x] = root[x] & po[x];
    // Keep the rows past this analysis zero (a reused mask may hold a
    // larger one's).
    for (std::size_t x = sn; x < static_cast<std::size_t>(mask.num_events);
         ++x) {
      mask.rows[x] = 0;
    }
    mask.num_events = n;
  }
}

Formula operator&&(const Formula& a, const Formula& b) {
  return Formula::conj({a, b});
}

Formula operator||(const Formula& a, const Formula& b) {
  return Formula::disj({a, b});
}

Formula f_true() { return Formula::constant(true); }
Formula f_false() { return Formula::constant(false); }
Formula read_x() { return Formula::atom(Atom::ReadX); }
Formula read_y() { return Formula::atom(Atom::ReadY); }
Formula write_x() { return Formula::atom(Atom::WriteX); }
Formula write_y() { return Formula::atom(Atom::WriteY); }
Formula fence_x() { return Formula::atom(Atom::FenceX); }
Formula fence_y() { return Formula::atom(Atom::FenceY); }
Formula same_addr() { return Formula::atom(Atom::SameAddr); }
Formula data_dep() { return Formula::atom(Atom::DataDep); }
Formula ctrl_dep() { return Formula::atom(Atom::ControlDep); }

}  // namespace mcmc::core
