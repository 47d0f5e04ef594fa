// A litmus test: a named program with a candidate outcome.
//
// The question a litmus test poses is "can this program finish with these
// register values?"  A model that answers yes is *weaker* on this test; a
// model that answers no *forbids* the relaxation the test probes.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/analysis.h"
#include "core/key_facts.h"
#include "core/outcome.h"
#include "core/program.h"
#include "util/hash128.h"

namespace mcmc::litmus {

/// A named litmus test.
///
/// The program is immutable and shared: copies of a test, and tests
/// derived through with_outcome, hold the same validated program object
/// (a reference-count bump, not a deep copy).  Every program reaching a
/// test has passed Program::validate — the public constructor validates
/// and marks it (Program::validate_and_mark, so an Analysis of it does
/// not validate it again), and with_outcome only re-uses an already
/// validated program.
class LitmusTest {
 public:
  /// Validates `program` (std::invalid_argument on violation).
  LitmusTest(std::string name, core::Program program, core::Outcome outcome,
             std::string description = "")
      : name_(std::move(name)),
        description_(std::move(description)),
        outcome_(std::move(outcome)) {
    auto validated = std::make_shared<core::Program>(std::move(program));
    validated->validate_and_mark();
    program_ = std::move(validated);
  }

  /// A sibling test over this test's program — the same object, neither
  /// copied nor re-validated — named `name`, with `outcome` and no
  /// description.  The exhaustive stream derives every outcome of a
  /// program this way.
  [[nodiscard]] LitmusTest with_outcome(std::string name,
                                        core::Outcome outcome) const {
    return LitmusTest(std::move(name), program_, std::move(outcome));
  }

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const std::string& description() const { return description_; }
  [[nodiscard]] const core::Program& program() const { return *program_; }
  [[nodiscard]] const core::Outcome& outcome() const { return outcome_; }
  /// The shared program handle (see the class comment).
  [[nodiscard]] const std::shared_ptr<const core::Program>& shared_program()
      const {
    return program_;
  }

  /// Renders the program table plus the outcome line.
  [[nodiscard]] std::string to_string() const;

 private:
  LitmusTest(std::string name, std::shared_ptr<const core::Program> program,
             core::Outcome outcome)
      : name_(std::move(name)),
        program_(std::move(program)),
        outcome_(std::move(outcome)) {}

  std::string name_;
  std::string description_;
  std::shared_ptr<const core::Program> program_;
  core::Outcome outcome_;
};

/// Reusable buffers for repeated canonical-key / canonical-fingerprint
/// computation.  One KeyScratch per worker thread; the reference
/// returned by the scratch-taking `canonical_key` overload points into
/// it and is valid until the next call with the same scratch.
struct KeyScratch {
  // Legacy string-key path (canonical_key).
  std::string best;
  std::string candidate;
  std::vector<int> perm;

  // Fingerprint path (canonical_fingerprint): resolved facts plus flat
  // first-appearance relabeling tables, reset per permutation by
  // generation counter so steady state performs no heap allocation.
  // `facts` describes `facts_program` (set by load_key_facts) when
  // `facts_fast`; otherwise that program is outside KeyFacts' fast path.
  core::KeyFacts facts;
  const core::Program* facts_program = nullptr;
  bool facts_fast = false;
  std::vector<std::uint64_t> loc_gen;  // raw location -> stamp
  std::vector<int> loc_id;             // raw location -> canonical id
  struct LocValue {
    std::uint64_t loc = 0;  // canonical location id
    int value = 0;          // raw value
  };
  std::vector<LocValue> values;  // insertion-ordered (loc, value) pairs
  std::uint64_t generation = 0;
};

/// Canonical semantic key over the *resolved* event structure: threads
/// are serialized in the lexicographically least order, locations are
/// relabeled by first appearance per candidate order, store values (and
/// reads' required values) are relabeled by first appearance per
/// location with the initial value 0 pinned, and registers are erased
/// entirely (they only reach verdicts through the dependency matrices
/// and outcome constraints, both of which are serialized directly).
/// Two tests with equal canonical keys receive the same verdict from
/// every model whose must-not-reorder formula uses only the built-in
/// predicates — the atoms (Read/Write/Fence, SameAddr, DataDep,
/// ControlDep) are invariant under exactly these renamings, and
/// read-from matching is preserved by any per-location value bijection
/// that fixes 0.  Formulas with custom predicates may inspect raw
/// thread/location/value identity, so callers must fall back to
/// structural identity (structural_fingerprint) for those models.
[[nodiscard]] std::string canonical_key(const core::Analysis& analysis,
                                        const core::Outcome& outcome);

/// Allocation-reusing variant (see KeyScratch): the returned reference
/// aliases `scratch.best`.
[[nodiscard]] const std::string& canonical_key(const core::Analysis& analysis,
                                               const core::Outcome& outcome,
                                               KeyScratch& scratch);

/// Convenience overload that analyzes `test.program()` internally.
[[nodiscard]] std::string canonical_key(const LitmusTest& test);

/// 128-bit canonical fingerprint: hashes the same serialization walk as
/// `canonical_key` — permuted threads, locations relabeled by first
/// appearance, values relabeled per location with 0 pinned, dependency
/// matrices, undefined-register outcome tail — as fixed-width 64-bit
/// words through util::Hash128Stream, taking the minimum digest over
/// the same thread permutations, with no Analysis, no string, and (in
/// steady state) no heap allocation.
///
/// Equality of fingerprints decides equality of canonical classes: for
/// any injective serialization, the *set* of per-permutation digests is
/// an orbit invariant, so two tests share a minimum digest iff they
/// share an orbit (iff their canonical_key strings are equal) — up to
/// 128-bit hash collisions, which engine::AuditedSource cross-checks
/// against the strings over the full streamed space.
/// Programs outside core::KeyFacts' fast path (threads longer than 64
/// instructions — a class-invariant condition) fall back to hashing the
/// legacy string key.
[[nodiscard]] util::Key128 canonical_fingerprint(const core::Program& program,
                                                 const core::Outcome& outcome,
                                                 KeyScratch& scratch);

/// Convenience overload over a test's program and outcome.
[[nodiscard]] util::Key128 canonical_fingerprint(const LitmusTest& test,
                                                 KeyScratch& scratch);

/// The per-program half of canonical_fingerprint: builds `program`'s
/// core::KeyFacts into `scratch`, so that every outcome over it is then
/// hashed by canonical_fingerprint_loaded without rebuilding them.
/// `program` must stay alive and unchanged until the next load.
void load_key_facts(const core::Program& program, KeyScratch& scratch);

/// canonical_fingerprint(program, outcome, scratch) — bit for bit — for
/// the program most recently passed to load_key_facts(program, scratch).
[[nodiscard]] util::Key128 canonical_fingerprint_loaded(
    const core::Outcome& outcome, KeyScratch& scratch);

/// 128-bit digest of a test's structural identity: equal digests mean,
/// up to hash collisions, that the programs match instruction for
/// instruction (same thread order, locations, registers) and the
/// outcomes constrain the same registers to the same values, so it is
/// safe for deduplicating verdicts under *any* model.  Raw instruction
/// fields and outcome constraints, no canonicalization, no allocation.
[[nodiscard]] util::Key128 structural_fingerprint(const LitmusTest& test);

}  // namespace mcmc::litmus
