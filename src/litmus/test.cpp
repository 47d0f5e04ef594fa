#include "litmus/test.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <set>

#include "util/check.h"

namespace mcmc::litmus {

std::string LitmusTest::to_string() const {
  std::string out = "Test " + name_;
  if (!description_.empty()) out += " (" + description_ + ")";
  out += "\n";
  out += program_->to_string();
  out += "Outcome: " + outcome_.to_string() + "\n";
  return out;
}

namespace {

/// Serializes the resolved events with threads taken in `perm` order,
/// relabeling locations by first appearance and memory values by first
/// appearance per location.
///
/// Value canonicalization: verdicts see store values only through the
/// read-from matching "a read constrained to v observes a write of v to
/// the same location, or the initial value when v == 0".  Any
/// per-location bijection on the nonzero values (with 0, the initial
/// value, held fixed) therefore maps admissible executions to admissible
/// executions, so writes' values and reads' required values are
/// serialized through a per-location first-appearance relabeling: equal
/// keys mean the tests differ by exactly such a bijection (composed with
/// a thread permutation and a location renaming).  DepConst register
/// constants that reach verdicts directly (an outcome constraint on the
/// defined register) are *not* memory values and stay raw.
void serialize_permuted(const core::Analysis& an, const core::Outcome& outcome,
                        const std::vector<int>& perm, std::string& key) {
  key.clear();
  std::map<core::Loc, int> loc_id;
  auto canon_loc_id = [&](core::Loc loc) {
    const auto [it, _] = loc_id.emplace(loc, static_cast<int>(loc_id.size()));
    return it->second;
  };
  // (canonical location, raw value) -> canonical value; 0 is pinned so
  // "reads the initial value" stays distinguishable from every write.
  std::map<std::pair<int, int>, int> value_id;
  auto canon_value = [&](int loc, int value) -> std::string {
    if (value == 0) return "0";
    const auto [it, _] = value_id.emplace(
        std::make_pair(loc, value), static_cast<int>(value_id.size()) + 1);
    return std::to_string(it->second);
  };
  auto required = [&](core::Reg reg, int loc) -> std::string {
    if (reg < 0) return "*";
    const auto v = outcome.required(reg);
    return v ? canon_value(loc, *v) : "*";
  };

  for (const int t : perm) {
    key += '|';
    const int len = static_cast<int>(an.program().thread(t).size());
    for (int i = 0; i < len; ++i) {
      const auto& ev = an.event(an.event_id(t, i));
      key += ';';
      switch (ev.op) {
        case core::Op::Read: {
          const int loc = canon_loc_id(ev.loc);
          key += 'R' + std::to_string(loc) + '=' + required(ev.dst, loc);
          break;
        }
        case core::Op::Write: {
          const int loc = canon_loc_id(ev.loc);
          key += 'W' + std::to_string(loc) + '<' + canon_value(loc, ev.value);
          break;
        }
        case core::Op::Fence:
          key += 'F';
          break;
        case core::Op::Branch:
          key += 'B';
          break;
        case core::Op::DepConst:
          // The constant only reaches verdicts through resolved
          // addresses, store values, and the dependency matrices (all
          // serialized elsewhere) — except when the outcome constrains
          // the defined register directly.
          key += 'D';
          if (ev.dst >= 0 && outcome.required(ev.dst)) {
            key += 'v' + std::to_string(ev.value) + 'q' +
                   std::to_string(*outcome.required(ev.dst));
          }
          break;
      }
    }
  }

  // Within-thread dependency matrices, in the same permuted order.
  key += '#';
  for (const int t : perm) {
    key += '|';
    const int len = static_cast<int>(an.program().thread(t).size());
    for (int i = 0; i < len; ++i) {
      for (int j = i + 1; j < len; ++j) {
        const core::EventId a = an.event_id(t, i);
        const core::EventId b = an.event_id(t, j);
        key += static_cast<char>('0' + (an.data_dep(a, b) ? 1 : 0) +
                                 (an.ctrl_dep(a, b) ? 2 : 0));
      }
    }
  }

  // Outcome constraints on registers no event defines (pathological, but
  // they make outcomes unsatisfiable and so must stay part of the key).
  std::set<core::Reg> defined;
  for (const auto& ev : an.events()) {
    if (ev.dst >= 0) defined.insert(ev.dst);
  }
  for (const auto& [reg, value] : outcome.constraints()) {
    if (defined.count(reg) == 0) {
      key += '!' + std::to_string(reg) + '=' + std::to_string(value);
    }
  }
}

}  // namespace

const std::string& canonical_key(const core::Analysis& analysis,
                                 const core::Outcome& outcome,
                                 KeyScratch& scratch) {
  const int num_threads = analysis.program().num_threads();
  auto& perm = scratch.perm;
  perm.resize(static_cast<std::size_t>(num_threads));
  std::iota(perm.begin(), perm.end(), 0);

  serialize_permuted(analysis, outcome, perm, scratch.best);
  // Minimize over thread permutations; beyond 6 threads the factorial
  // sweep stops paying for itself, and the identity order is still a
  // sound (just less deduplicating) key.
  if (num_threads > 6) return scratch.best;

  while (std::next_permutation(perm.begin(), perm.end())) {
    serialize_permuted(analysis, outcome, perm, scratch.candidate);
    if (scratch.candidate < scratch.best) {
      std::swap(scratch.best, scratch.candidate);
    }
  }
  return scratch.best;
}

std::string canonical_key(const core::Analysis& analysis,
                          const core::Outcome& outcome) {
  KeyScratch scratch;
  return canonical_key(analysis, outcome, scratch);
}

std::string canonical_key(const LitmusTest& test) {
  const core::Analysis analysis(test.program());
  return canonical_key(analysis, test.outcome());
}

namespace {

// Word tags of the fingerprint serialization (low byte of each event
// word).  Distinct tags frame the stream exactly as serialize_permuted's
// punctuation does, so the word sequence is an injective encoding of
// the same canonicalized content: equal sequences <=> equal legacy
// serializations.
constexpr std::uint64_t kFpThread = 1;      // + thread length << 8
constexpr std::uint64_t kFpRead = 2;        // + loc << 8, value << 32
constexpr std::uint64_t kFpWrite = 3;       // + loc << 8, value << 32
constexpr std::uint64_t kFpFence = 4;
constexpr std::uint64_t kFpBranch = 5;
constexpr std::uint64_t kFpDep = 6;         // unconstrained DepConst
constexpr std::uint64_t kFpDepConstrained = 7;  // + 2 raw value words
constexpr std::uint64_t kFpUndefReg = 8;    // + 2 raw tail words
/// Sentinel for "unconstrained read" in the 32-bit value field — never
/// collides with canonical value ids, which are bounded by the event
/// count.
constexpr std::uint64_t kFpNoValue = 0xFFFFFFFFULL;

std::uint64_t raw_word(long long v) { return static_cast<std::uint64_t>(v); }

/// Hashes the resolved events with threads taken in `perm` order —
/// the word-stream image of serialize_permuted: same walk, same
/// first-appearance location relabeling, same per-location value
/// relabeling with 0 pinned (see serialize_permuted's commentary for
/// why that canonicalization is verdict-preserving).
util::Key128 fingerprint_permuted(const core::KeyFacts& facts,
                                  const core::Outcome& outcome,
                                  const std::vector<int>& perm,
                                  KeyScratch& scratch) {
  ++scratch.generation;
  scratch.values.clear();
  int next_loc = 0;
  const auto canon_loc = [&](core::Loc loc) -> std::uint64_t {
    const auto s = static_cast<std::size_t>(loc);
    if (s >= scratch.loc_gen.size()) {
      scratch.loc_gen.resize(s + 1, 0);
      scratch.loc_id.resize(s + 1, 0);
    }
    if (scratch.loc_gen[s] != scratch.generation) {
      scratch.loc_gen[s] = scratch.generation;
      scratch.loc_id[s] = next_loc++;
    }
    return static_cast<std::uint64_t>(scratch.loc_id[s]);
  };
  // (canonical location, raw value) -> id in first-appearance order,
  // 1-based with 0 pinned.  Linear scan: a test touches a handful of
  // distinct (loc, value) pairs, and the list reuses its capacity.
  const auto canon_value = [&](std::uint64_t loc, int value) -> std::uint64_t {
    if (value == 0) return 0;
    for (std::size_t k = 0; k < scratch.values.size(); ++k) {
      if (scratch.values[k].loc == loc && scratch.values[k].value == value) {
        return k + 1;
      }
    }
    scratch.values.push_back({loc, value});
    return scratch.values.size();
  };

  util::Hash128Stream h;
  for (const int t : perm) {
    const int len = facts.thread_len(t);
    h.absorb(kFpThread | (static_cast<std::uint64_t>(len) << 8));
    for (int i = 0; i < len; ++i) {
      const auto& ev = facts.event(t, i);
      switch (ev.op) {
        case core::Op::Read: {
          const std::uint64_t loc = canon_loc(ev.loc);
          std::uint64_t val = kFpNoValue;
          if (ev.dst >= 0) {
            if (const auto req = outcome.required(ev.dst)) {
              val = canon_value(loc, *req);
            }
          }
          h.absorb(kFpRead | (loc << 8) | (val << 32));
          break;
        }
        case core::Op::Write: {
          const std::uint64_t loc = canon_loc(ev.loc);
          h.absorb(kFpWrite | (loc << 8) | (canon_value(loc, ev.value) << 32));
          break;
        }
        case core::Op::Fence:
          h.absorb(kFpFence);
          break;
        case core::Op::Branch:
          h.absorb(kFpBranch);
          break;
        case core::Op::DepConst:
          // Raw constant and required value, exactly when the outcome
          // constrains the defined register (serialize_permuted's
          // 'v...q...' suffix); otherwise the constant is invisible.
          if (ev.dst >= 0 && outcome.required(ev.dst)) {
            h.absorb(kFpDepConstrained);
            h.absorb(raw_word(ev.value));
            h.absorb(raw_word(*outcome.required(ev.dst)));
          } else {
            h.absorb(kFpDep);
          }
          break;
      }
    }
  }

  // Within-thread dependency matrices in the same permuted order: per
  // position, its data- and control-dependency source bits (the column
  // serialize_permuted walks pair by pair).  Packing depends only on
  // the thread length, which the kFpThread words already frame.
  for (const int t : perm) {
    const int len = facts.thread_len(t);
    for (int j = 0; j < len; ++j) {
      if (len <= 32) {
        h.absorb(facts.data_dep_bits(t, j) |
                 (facts.ctrl_dep_bits(t, j) << 32));
      } else {
        h.absorb(facts.data_dep_bits(t, j));
        h.absorb(facts.ctrl_dep_bits(t, j));
      }
    }
  }

  // Outcome constraints on registers no event defines (raw, like the
  // legacy '!' tail — they make the outcome unsatisfiable).
  for (const auto& [reg, value] : outcome.constraints()) {
    if (!facts.defines(reg)) {
      h.absorb(kFpUndefReg);
      h.absorb(raw_word(reg));
      h.absorb(raw_word(value));
    }
  }
  return h.finish();
}

}  // namespace

void load_key_facts(const core::Program& program, KeyScratch& scratch) {
  scratch.facts_program = &program;
  scratch.facts_fast = scratch.facts.build(program);
}

util::Key128 canonical_fingerprint_loaded(const core::Outcome& outcome,
                                          KeyScratch& scratch) {
  if (!scratch.facts_fast) {
    // Outside the fast path (a thread longer than the 64-bit dependency
    // masks).  The bail-out condition is invariant under thread
    // permutation and renaming, so a canonical class lands entirely in
    // one hash domain or the other — never split across both.
    MCMC_REQUIRE_MSG(scratch.facts_program != nullptr,
                     "canonical_fingerprint_loaded before load_key_facts");
    const core::Analysis analysis(*scratch.facts_program);
    return util::hash128(canonical_key(analysis, outcome, scratch));
  }
  const int num_threads = scratch.facts.num_threads();
  auto& perm = scratch.perm;
  perm.resize(static_cast<std::size_t>(num_threads));
  std::iota(perm.begin(), perm.end(), 0);

  util::Key128 best =
      fingerprint_permuted(scratch.facts, outcome, perm, scratch);
  // Minimum digest over the same permutation sweep as canonical_key
  // (identity-only beyond 6 threads): the digest *set* is an orbit
  // invariant, so min-equality decides class equality regardless of
  // which permutation attains it.
  if (num_threads <= 6) {
    while (std::next_permutation(perm.begin(), perm.end())) {
      const util::Key128 candidate =
          fingerprint_permuted(scratch.facts, outcome, perm, scratch);
      if (candidate < best) best = candidate;
    }
  }
  return best;
}

util::Key128 canonical_fingerprint(const core::Program& program,
                                   const core::Outcome& outcome,
                                   KeyScratch& scratch) {
  load_key_facts(program, scratch);
  return canonical_fingerprint_loaded(outcome, scratch);
}

util::Key128 canonical_fingerprint(const LitmusTest& test,
                                   KeyScratch& scratch) {
  return canonical_fingerprint(test.program(), test.outcome(), scratch);
}

util::Key128 structural_fingerprint(const LitmusTest& test) {
  util::Hash128Stream h;
  for (const auto& thread : test.program().threads()) {
    h.absorb(kFpThread | (static_cast<std::uint64_t>(thread.size()) << 8));
    for (const auto& instr : thread) {
      h.absorb(static_cast<std::uint64_t>(static_cast<int>(instr.op)) |
               (instr.value_from_reg ? 1ULL << 8 : 0));
      h.absorb(raw_word(instr.loc));
      h.absorb(raw_word(instr.addr_reg));
      h.absorb(raw_word(instr.dst));
      h.absorb(raw_word(instr.src));
      h.absorb(raw_word(instr.value));
    }
  }
  for (const auto& [reg, value] : test.outcome().constraints()) {
    h.absorb(kFpUndefReg);
    h.absorb(raw_word(reg));
    h.absorb(raw_word(value));
  }
  return h.finish();
}

}  // namespace mcmc::litmus
