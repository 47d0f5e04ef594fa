// Quantifier-free positive boolean formulas over instruction-pair
// predicates: the representation of must-not-reorder functions F(x, y)
// (Section 2.3 of the paper).
//
// Atoms are the paper's predicates applied to the pair (x, y):
//   Read(x), Read(y), Write(x), Write(y), Fence(x), Fence(y),
//   SameAddr(x, y), DataDep(x, y), ControlDep(x, y),
// plus user-registered custom predicates (needed for the Section 3.3
// special-fence construction and for exploring exotic models).
//
// Formulas are immutable trees with value semantics; combine them with
// `&&` and `||`.  Negation is intentionally absent (the class is positive).
// FormulaSet compiles a list of them against an Analysis into per-event
// bitmask rows (ReorderMask), the form the checkers consume.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/analysis.h"

namespace mcmc::core {

/// Built-in predicate atoms.
enum class Atom {
  True,
  False,
  ReadX,
  ReadY,
  WriteX,
  WriteY,
  FenceX,
  FenceY,
  SameAddr,
  DataDep,
  ControlDep,
  Custom,
};

/// Signature of a custom predicate: evaluated on the analyzed program and
/// an ordered event pair with po(x, y).
using CustomPredicate =
    std::function<bool(const Analysis&, EventId x, EventId y)>;

/// A positive boolean formula over pair predicates.
class Formula {
 public:
  /// Constant and atom factories.
  static Formula constant(bool value);
  static Formula atom(Atom a);
  /// Custom predicate atom; `name` is used for printing.
  static Formula custom(std::string name, CustomPredicate pred);

  static Formula conj(std::vector<Formula> operands);
  static Formula disj(std::vector<Formula> operands);

  /// Evaluates F(x, y) for events with po(x, y) in `analysis`.
  [[nodiscard]] bool eval(const Analysis& analysis, EventId x,
                          EventId y) const;

  /// Renders the formula, e.g. "(Write(x) & Write(y)) | Fence(x) | Fence(y)".
  [[nodiscard]] std::string to_string() const;

  /// True if any atom is a user-registered custom predicate (whose
  /// semantics the library cannot inspect).
  [[nodiscard]] bool has_custom() const;

 private:
  friend class FormulaSet;
  struct Node;
  explicit Formula(std::shared_ptr<const Node> node) : node_(std::move(node)) {}
  std::shared_ptr<const Node> node_;
};

/// A compiled must-not-reorder function against one analysis: bit y of
/// `rows[x]` is set iff po(x, y) and F(x, y), and rows from `num_events`
/// on are zero.  Fixed-size, so deciding against one allocates nothing.
struct ReorderMask {
  int num_events = 0;
  std::array<std::uint64_t, 64> rows{};
};

/// A list of formulas compiled together into reorder masks.  The trees
/// are hash-consed on construction: structurally equal subformulas,
/// within one formula or across the list, become one node, keyed by
/// (connective, atom, operand nodes) — a custom atom by its node's
/// identity, which the set keeps alive by holding its formulas.  So
/// compile() evaluates each distinct subformula once per analysis, over
/// whole bitmask rows, and writes every formula's mask in one pass.
/// Immutable after construction and safe to share across threads.
class FormulaSet {
 public:
  explicit FormulaSet(std::vector<Formula> formulas);

  /// The compiled formulas, in the order given.
  [[nodiscard]] const std::vector<Formula>& formulas() const {
    return formulas_;
  }
  [[nodiscard]] std::size_t size() const { return roots_.size(); }
  /// Distinct subformulas: the nodes compile() evaluates.
  [[nodiscard]] std::size_t num_nodes() const { return nodes_.size(); }

  /// Sets `masks` to one mask per formula against `analysis`; `scratch`
  /// holds the node rows.  Both buffers are the caller's: once they have
  /// grown to this set and the largest analysis compiled, compile
  /// performs no heap allocation.  Custom atoms call their predicate on
  /// every program-order pair.  Requires `analysis.masks_valid()` (at
  /// most 64 events).
  void compile(const Analysis& analysis, std::vector<ReorderMask>& masks,
               std::vector<std::uint64_t>& scratch) const;

 private:
  /// One node, evaluated after its operands (which have lower ids).
  struct Op {
    enum class Kind : std::uint8_t { Atom, And, Or };
    Kind kind = Kind::Atom;
    Atom atom = Atom::False;
    std::uint32_t lhs = 0;
    std::uint32_t rhs = 0;
    const Formula::Node* custom = nullptr;  ///< owned by formulas_
  };

  std::vector<Formula> formulas_;
  std::vector<Op> nodes_;
  std::vector<std::uint32_t> roots_;  ///< node of each formula
};

[[nodiscard]] Formula operator&&(const Formula& a, const Formula& b);
[[nodiscard]] Formula operator||(const Formula& a, const Formula& b);

// Named atom shorthands.
[[nodiscard]] Formula f_true();
[[nodiscard]] Formula f_false();
[[nodiscard]] Formula read_x();
[[nodiscard]] Formula read_y();
[[nodiscard]] Formula write_x();
[[nodiscard]] Formula write_y();
[[nodiscard]] Formula fence_x();
[[nodiscard]] Formula fence_y();
[[nodiscard]] Formula same_addr();
[[nodiscard]] Formula data_dep();
[[nodiscard]] Formula ctrl_dep();

}  // namespace mcmc::core
