// Properties of the canonical-key machinery (litmus/test.h): keys and
// their 128-bit fingerprints are invariant under the full symmetry
// group of a test — thread exchange, location permutation, and
// per-location value renaming (fixing the initial value 0) — the
// fingerprint induces exactly the same equivalence classes as the
// legacy string key, and the canonical reduction pass over the naive
// space agrees exactly with the shape-level reduction of count_naive on
// the program level.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/audited_source.h"
#include "engine/test_stream.h"
#include "enumeration/exhaustive.h"
#include "enumeration/naive.h"
#include "enumeration/shapes.h"
#include "enumeration/suite.h"
#include "litmus/catalog.h"
#include "litmus/test.h"
#include "program_classes.h"
#include "structural_key.h"
#include "util/hash128.h"
#include "util/rng.h"

namespace mcmc {
namespace {

using litmus::LitmusTest;

/// Applies a location permutation to every direct-address access.
LitmusTest permute_locations(const LitmusTest& test,
                             const std::vector<int>& perm) {
  std::vector<core::Thread> threads = test.program().threads();
  for (auto& thread : threads) {
    for (auto& instr : thread) {
      if (instr.is_memory_access() && instr.addr_reg < 0) {
        instr.loc = perm[static_cast<std::size_t>(instr.loc)];
      }
    }
  }
  return LitmusTest(test.name(), core::Program(std::move(threads)),
                    test.outcome());
}

/// Swaps the two threads (registers are program-unique, so the swapped
/// program is still valid).
LitmusTest swap_threads(const LitmusTest& test) {
  std::vector<core::Thread> threads = test.program().threads();
  std::reverse(threads.begin(), threads.end());
  return LitmusTest(test.name(), core::Program(std::move(threads)),
                    test.outcome());
}

/// Renames write values per location with the bijection v -> k + 1 - v
/// over each location's written values 1..k (0, the initial value, is
/// fixed), remapping outcome constraints of reads consistently.
LitmusTest reverse_values(const LitmusTest& test) {
  std::map<core::Loc, int> writes;
  for (const auto& thread : test.program().threads()) {
    for (const auto& instr : thread) {
      if (instr.op == core::Op::Write) ++writes[instr.loc];
    }
  }
  auto remap = [&](core::Loc loc, int value) {
    return value == 0 ? 0 : writes[loc] + 1 - value;
  };

  std::vector<core::Thread> threads = test.program().threads();
  std::map<core::Reg, core::Loc> read_loc;
  for (auto& thread : threads) {
    for (auto& instr : thread) {
      if (instr.op == core::Op::Write && !instr.value_from_reg) {
        instr.value = remap(instr.loc, instr.value);
      } else if (instr.op == core::Op::Read) {
        read_loc[instr.dst] = instr.loc;
      }
    }
  }
  core::Outcome outcome;
  for (const auto& [reg, value] : test.outcome().constraints()) {
    const auto it = read_loc.find(reg);
    outcome.require(reg, it == read_loc.end() ? value
                                              : remap(it->second, value));
  }
  return LitmusTest(test.name(), core::Program(std::move(threads)),
                    std::move(outcome));
}

/// Dep-aware location permutation: direct addresses plus the DepConst
/// constants that encode a read's indirect address (dep_read idiom).
LitmusTest permute_locations_dep(const LitmusTest& test,
                                 const std::vector<int>& perm) {
  std::vector<core::Thread> threads = test.program().threads();
  for (auto& thread : threads) {
    std::set<core::Reg> addr_regs;
    for (const auto& instr : thread) {
      if (instr.op == core::Op::Read && instr.addr_reg >= 0) {
        addr_regs.insert(instr.addr_reg);
      }
    }
    for (auto& instr : thread) {
      if (instr.is_memory_access() && instr.addr_reg < 0) {
        instr.loc = perm[static_cast<std::size_t>(instr.loc)];
      } else if (instr.op == core::Op::DepConst &&
                 addr_regs.count(instr.dst) != 0) {
        instr.value = perm[static_cast<std::size_t>(instr.value)];
      }
    }
  }
  return LitmusTest(test.name(), core::Program(std::move(threads)),
                    test.outcome());
}

/// Dep-aware value renaming: like reverse_values, but register-valued
/// writes (dep_write idiom) are renamed through their defining DepConst,
/// and outcome constraints of dep-addressed reads resolve their real
/// location first.
LitmusTest reverse_values_dep(const LitmusTest& test) {
  std::map<core::Loc, int> writes;
  for (const auto& thread : test.program().threads()) {
    for (const auto& instr : thread) {
      if (instr.op == core::Op::Write) ++writes[instr.loc];
    }
  }
  auto remap = [&](core::Loc loc, int value) {
    return value == 0 ? 0 : writes[loc] + 1 - value;
  };

  std::vector<core::Thread> threads = test.program().threads();
  std::map<core::Reg, core::Loc> read_loc;
  for (auto& thread : threads) {
    for (std::size_t i = 0; i < thread.size(); ++i) {
      auto& instr = thread[i];
      if (instr.op != core::Op::Write) continue;
      if (!instr.value_from_reg) {
        instr.value = remap(instr.loc, instr.value);
        continue;
      }
      for (std::size_t k = i; k-- > 0;) {
        auto& def = thread[k];
        if (def.op == core::Op::DepConst && def.dst == instr.src) {
          def.value = remap(instr.loc, def.value);
          break;
        }
      }
    }
    enumeration::shapes::for_each_read(
        thread, [&](core::Reg dst, int loc) { read_loc[dst] = loc; });
  }
  core::Outcome outcome;
  for (const auto& [reg, value] : test.outcome().constraints()) {
    const auto it = read_loc.find(reg);
    outcome.require(reg, it == read_loc.end() ? value
                                              : remap(it->second, value));
  }
  return LitmusTest(test.name(), core::Program(std::move(threads)),
                    std::move(outcome));
}

TEST(CanonicalProperty, KeyInvariantUnderRandomSymmetryChains) {
  enumeration::NaiveOptions bounds;
  const auto tests = enumeration::sample_naive_tests(bounds, 150, 4242);
  util::Rng rng(99);
  std::vector<int> perm = {0, 1, 2};
  for (const auto& test : tests) {
    const std::string key = litmus::canonical_key(test);
    LitmusTest current = test;
    for (int step = 0; step < 4; ++step) {
      switch (rng.below(3)) {
        case 0: {
          std::vector<int> p = perm;
          for (std::size_t i = p.size(); i > 1; --i) {
            std::swap(p[i - 1], p[rng.below(i)]);
          }
          current = permute_locations(current, p);
          break;
        }
        case 1:
          current = swap_threads(current);
          break;
        default:
          current = reverse_values(current);
          break;
      }
      EXPECT_EQ(litmus::canonical_key(current), key)
          << "after step " << step << "\noriginal:\n" << test.to_string()
          << "transformed:\n" << current.to_string();
    }
  }
}

TEST(CanonicalProperty, KeyIsStableAndSymmetricPairsActuallyMerge) {
  // Determinism plus a positive control: a thread-swapped, location-
  // permuted, value-renamed twin is structurally different yet
  // canonically identical.
  const auto tests =
      enumeration::sample_naive_tests(enumeration::NaiveOptions{}, 40, 7);
  for (const auto& test : tests) {
    EXPECT_EQ(litmus::canonical_key(test), litmus::canonical_key(test));
    const auto twin =
        reverse_values(swap_threads(permute_locations(test, {2, 0, 1})));
    EXPECT_EQ(litmus::canonical_key(twin), litmus::canonical_key(test));
  }
}

TEST(CanonicalProperty, FingerprintInvariantUnderRandomSymmetryChains) {
  // The fingerprint must absorb the same symmetry group as the string
  // key: thread exchange, location permutation, per-location value
  // renaming.
  enumeration::NaiveOptions bounds;
  const auto tests = enumeration::sample_naive_tests(bounds, 150, 4242);
  util::Rng rng(99);
  litmus::KeyScratch scratch;
  std::vector<int> perm = {0, 1, 2};
  for (const auto& test : tests) {
    const util::Key128 fp = litmus::canonical_fingerprint(test, scratch);
    LitmusTest current = test;
    for (int step = 0; step < 4; ++step) {
      switch (rng.below(3)) {
        case 0: {
          std::vector<int> p = perm;
          for (std::size_t i = p.size(); i > 1; --i) {
            std::swap(p[i - 1], p[rng.below(i)]);
          }
          current = permute_locations(current, p);
          break;
        }
        case 1:
          current = swap_threads(current);
          break;
        default:
          current = reverse_values(current);
          break;
      }
      EXPECT_EQ(litmus::canonical_fingerprint(current, scratch), fp)
          << "after step " << step << "\noriginal:\n" << test.to_string()
          << "transformed:\n" << current.to_string();
    }
  }
}

TEST(CanonicalProperty, DepKeyAndFingerprintInvariantUnderSymmetryChains) {
  // The same symmetry-group invariance over a dependency-carrying
  // corpus: samples from the dep-extended naive space (DepConst chains,
  // indirect reads, register-valued writes, branches), transformed with
  // the dep-aware permutation and renaming above.
  enumeration::NaiveOptions bounds;
  bounds.deps = true;
  const auto tests = enumeration::sample_naive_tests(bounds, 150, 0xD095);
  util::Rng rng(17);
  litmus::KeyScratch scratch;
  std::vector<int> perm = {0, 1, 2};
  bool saw_dep = false;
  for (const auto& test : tests) {
    for (const auto& thread : test.program().threads()) {
      for (const auto& instr : thread) {
        saw_dep = saw_dep || instr.op == core::Op::DepConst ||
                  instr.op == core::Op::Branch;
      }
    }
    const std::string key = litmus::canonical_key(test);
    const util::Key128 fp = litmus::canonical_fingerprint(test, scratch);
    LitmusTest current = test;
    for (int step = 0; step < 4; ++step) {
      switch (rng.below(3)) {
        case 0: {
          std::vector<int> p = perm;
          for (std::size_t i = p.size(); i > 1; --i) {
            std::swap(p[i - 1], p[rng.below(i)]);
          }
          current = permute_locations_dep(current, p);
          break;
        }
        case 1:
          current = swap_threads(current);
          break;
        default:
          current = reverse_values_dep(current);
          break;
      }
      EXPECT_EQ(litmus::canonical_key(current), key)
          << "after step " << step << "\noriginal:\n" << test.to_string()
          << "transformed:\n" << current.to_string();
      EXPECT_EQ(litmus::canonical_fingerprint(current, scratch), fp)
          << "after step " << step << "\noriginal:\n" << test.to_string()
          << "transformed:\n" << current.to_string();
    }
  }
  // The sample must actually contain dependency idioms.
  EXPECT_TRUE(saw_dep);
}

TEST(CanonicalProperty, FingerprintClassesMatchLegacyKeyClasses) {
  // The differential heart of the fingerprint: over a corpus mixing
  // naive-space samples (duplicate-rich tiny bounds included), the
  // dependency-idiom suite, and the full hand-written catalog, the
  // fingerprint partition must be exactly the canonical_key partition —
  // same-key pairs share a fingerprint AND distinct-key pairs get
  // distinct fingerprints.
  std::vector<LitmusTest> corpus;
  {
    enumeration::NaiveOptions bounds;
    for (auto& t : enumeration::sample_naive_tests(bounds, 250, 0xFACE)) {
      corpus.push_back(std::move(t));
    }
    enumeration::NaiveOptions tiny;
    tiny.num_locations = 1;
    tiny.max_accesses_per_thread = 2;
    tiny.fences = false;
    for (auto& t : enumeration::sample_naive_tests(tiny, 150, 31337)) {
      corpus.push_back(std::move(t));  // plenty of symmetric duplicates
    }
    enumeration::NaiveOptions dep_bounds;
    dep_bounds.deps = true;
    for (auto& t : enumeration::sample_naive_tests(dep_bounds, 200, 0xDEED)) {
      corpus.push_back(std::move(t));  // generated dep idioms
    }
    for (auto& t : enumeration::corollary1_suite(true)) {
      corpus.push_back(std::move(t));  // data/ctrl deps, indirect addresses
    }
    for (auto& t : litmus::full_catalog()) {
      corpus.push_back(std::move(t));
    }
    // Twins of everything so far (thread swap + location rotation +
    // value renaming), so the merge direction is exercised on every
    // shape, not only where sampling happened to collide.  The rotation
    // is sized to the test's own direct locations; tests with indirect
    // addressing keep those resolved locations fixed, which merely
    // makes the twin a different member of the corpus — the bijection
    // check below does not depend on twins being symmetric images.
    const std::size_t base = corpus.size();
    for (std::size_t i = 0; i < base; ++i) {
      int max_loc = 2;
      for (const auto& thread : corpus[i].program().threads()) {
        for (const auto& instr : thread) {
          if (instr.is_memory_access() && instr.addr_reg < 0) {
            max_loc = std::max(max_loc, instr.loc);
          }
        }
      }
      std::vector<int> rotation(static_cast<std::size_t>(max_loc) + 1);
      for (std::size_t l = 0; l < rotation.size(); ++l) {
        rotation[l] = static_cast<int>((l + 1) % rotation.size());
      }
      corpus.push_back(
          reverse_values(swap_threads(permute_locations(corpus[i], rotation))));
    }
  }

  litmus::KeyScratch scratch;
  std::unordered_map<std::string, util::Key128> key_to_fp;
  std::unordered_map<util::Key128, std::string, util::Key128Hash> fp_to_key;
  for (const auto& test : corpus) {
    const std::string key = litmus::canonical_key(test);
    const util::Key128 fp = litmus::canonical_fingerprint(test, scratch);
    // A reused scratch and a fresh one must agree (generation-counter
    // reset correctness).
    litmus::KeyScratch fresh;
    EXPECT_EQ(litmus::canonical_fingerprint(test, fresh), fp)
        << test.to_string();

    const auto [k_it, k_new] = key_to_fp.emplace(key, fp);
    EXPECT_EQ(k_it->second, fp)
        << "equal keys, distinct fingerprints (class split):\n"
        << test.to_string();
    const auto [f_it, f_new] = fp_to_key.emplace(fp, key);
    EXPECT_EQ(f_it->second, key)
        << "distinct keys, equal fingerprints (class merge):\n"
        << test.to_string();
    EXPECT_EQ(k_new, f_new);
  }
  // The corpus must actually exercise both directions: many classes,
  // and strictly fewer classes than tests (real merges happened).
  EXPECT_GT(key_to_fp.size(), 100u);
  EXPECT_LT(key_to_fp.size(), corpus.size());
}

TEST(CanonicalProperty, StructuralFingerprintMatchesStructuralKeyClasses) {
  // structural_fingerprint must separate exactly what structural_key
  // separates — in particular canonically-identical twins (thread
  // swaps) stay structurally distinct.
  enumeration::NaiveOptions bounds;
  auto corpus = enumeration::sample_naive_tests(bounds, 200, 777);
  const std::size_t base = corpus.size();
  for (std::size_t i = 0; i < base; ++i) {
    corpus.push_back(swap_threads(corpus[i]));
  }
  std::unordered_map<std::string, util::Key128> key_to_fp;
  std::unordered_map<util::Key128, std::string, util::Key128Hash> fp_to_key;
  for (const auto& test : corpus) {
    const std::string key = structural_key(test);
    const util::Key128 fp = litmus::structural_fingerprint(test);
    const auto k_it = key_to_fp.emplace(key, fp).first;
    EXPECT_EQ(k_it->second, fp) << test.to_string();
    const auto f_it = fp_to_key.emplace(fp, key).first;
    EXPECT_EQ(f_it->second, key) << test.to_string();
  }
}

/// Canonical test classes of the space `options` defines, counted by
/// their legacy string keys (litmus::canonical_key) while
/// engine::AuditedSource checks every fingerprint against them.
long long canonical_test_classes(
    const enumeration::ExhaustiveOptions& options) {
  enumeration::ExhaustiveStream stream(options);
  engine::AuditedSource audited(stream, 4);
  engine::for_each_test(audited, [](const LitmusTest&) {});
  return static_cast<long long>(audited.classes());
}

TEST(CanonicalProperty, ReducedProgramClassesMatchNaiveCountsExactly) {
  // The canonical-key pass over communicating programs must reproduce
  // count_naive's shape-level reduction (location permutation x thread
  // exchange) program for program: the key's extra power (value
  // renaming) is exactly what makes material programs with symmetric
  // shapes collapse the same way the shape encoding does.
  enumeration::ExhaustiveOptions configs[4];
  configs[0].bounds = {2, 1, false};  // the hand-counted tiny space
  configs[1].bounds = {2, 2, true};
  configs[2].bounds = {2, 3, true};
  configs[3].bounds = {2, 2, true};
  configs[3].bounds.deps = true;  // dependency-extended slice
  for (const auto& base : configs) {
    enumeration::ExhaustiveOptions options = base;
    options.communicating_only = true;
    const auto naive = enumeration::count_naive(options.bounds);
    EXPECT_EQ(canonical_program_classes(options), naive.reduced_programs)
        << "bounds: " << options.bounds.max_accesses_per_thread << " accesses, "
        << options.bounds.num_locations << " locations, fences="
        << options.bounds.fences;
    // Outcome classes merge further: outcome assignments that are images
    // of each other under a program automorphism share a canonical key
    // (e.g. the two single-read outcomes of W X | W X; R X that read the
    // one write of either thread), so the canonical count is a lower
    // bound of the shape-level one.
    const long long test_classes = canonical_test_classes(options);
    EXPECT_LE(test_classes, naive.reduced_tests);
    EXPECT_GT(test_classes, 0);
  }
}

TEST(CanonicalProperty, TinySpaceClassCountsAreExact) {
  // 1 location, <= 2 accesses, no fences: 18 canonical communicating
  // programs (hand-counted in enumeration_test.cpp) carrying 80
  // canonical tests (86 shape-level outcome assignments, 6 of which are
  // automorphism images).
  enumeration::ExhaustiveOptions tiny;
  tiny.bounds = {2, 1, false};
  tiny.communicating_only = true;
  EXPECT_EQ(canonical_program_classes(tiny), 18);
  const auto orbits = enumeration::ExhaustiveStream::count_orbits(tiny);
  EXPECT_EQ(orbits.programs, 18);
  EXPECT_EQ(orbits.tests, 86);
  EXPECT_EQ(canonical_test_classes(tiny), 80);
  const auto naive = enumeration::count_naive(tiny.bounds);
  EXPECT_EQ(naive.reduced_programs, 18);
  EXPECT_EQ(naive.reduced_tests, 86);
}

}  // namespace
}  // namespace mcmc
