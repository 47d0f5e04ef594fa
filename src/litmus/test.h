// A litmus test: a named program with a candidate outcome.
//
// The question a litmus test poses is "can this program finish with these
// register values?"  A model that answers yes is *weaker* on this test; a
// model that answers no *forbids* the relaxation the test probes.
#pragma once

#include <cstdint>
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
class LitmusTest {
 public:
  LitmusTest(std::string name, core::Program program, core::Outcome outcome,
             std::string description = "")
      : name_(std::move(name)),
        description_(std::move(description)),
        program_(std::move(program)),
        outcome_(std::move(outcome)) {
    program_.validate();
  }

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const std::string& description() const { return description_; }
  [[nodiscard]] const core::Program& program() const { return program_; }
  [[nodiscard]] const core::Outcome& outcome() const { return outcome_; }

  /// Renders the program table plus the outcome line.
  [[nodiscard]] std::string to_string() const;

 private:
  std::string name_;
  std::string description_;
  core::Program program_;
  core::Outcome outcome_;
};

/// Syntactic identity key: equal keys mean the programs match
/// instruction-for-instruction (same thread order, locations, registers)
/// and the outcomes constrain the same registers to the same values.
/// Safe for deduplicating verdicts under *any* model.
[[nodiscard]] std::string structural_key(const LitmusTest& test);

/// Allocation-reusing variant: clears `out` and writes the key into it,
/// keeping its capacity across calls.  The streaming pipeline computes
/// one key per streamed test (millions per run), so each worker thread
/// holds one buffer instead of allocating per test.
void structural_key(const LitmusTest& test, std::string& out);

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
  core::KeyFacts facts;
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
/// `structural_key` for those models.
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

/// 128-bit digest of the structural identity (same equality classes as
/// `structural_key`, up to hash collisions): raw instruction fields and
/// outcome constraints, no canonicalization, no allocation.
[[nodiscard]] util::Key128 structural_fingerprint(const LitmusTest& test);

}  // namespace mcmc::litmus
