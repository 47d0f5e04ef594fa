// Microbenchmark of the keys-stage primitives: what does one test cost
// to canonicalize, and what did the fingerprint rewrite buy?
//
// Five timed passes over the same prefix of the exhaustive stream:
//
//   analysis      full core::Analysis per test (legacy prerequisite)
//   key-facts     core::KeyFacts per test (fingerprint prerequisite)
//   string-key    Analysis + legacy canonical_key string
//   fingerprint   canonical_fingerprint (KeyFacts + 128-bit min-hash)
//   per-program   the stream's keys path: KeyFacts once per run of
//                 tests sharing a program object, then the min-hash of
//                 each outcome (canonical_fingerprint_loaded)
//
// plus the structural fingerprint (structural_fingerprint).
// Each pass folds its results into a checksum so the work cannot be
// optimized away, and a final differential pass re-derives the keys
// and asserts that string-key classes, fingerprint classes and
// per-program fingerprints agree on the sample (exit status reflects
// it).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <unordered_map>
#include <vector>

#include "peak_rss.h"

#include "core/analysis.h"
#include "core/key_facts.h"
#include "enumeration/exhaustive.h"
#include "litmus/test.h"
#include "util/hash128.h"
#include "util/table.h"
#include "util/timer.h"

namespace {

struct Pass {
  const char* name;
  double seconds = 0.0;
  std::uint64_t checksum = 0;
};

double ns_per_test(const Pass& pass, std::size_t n) {
  return n == 0 ? 0.0 : pass.seconds * 1e9 / static_cast<double>(n);
}

std::string format(double v, const char* suffix) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.1f%s", v, suffix);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mcmc;

  std::size_t num_tests = 50000;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--tests") == 0 && i + 1 < argc) {
      num_tests = static_cast<std::size_t>(std::atoll(argv[++i]));
    }
  }

  std::printf("== bench_keys: per-test cost of the keys stage ==\n\n");

  // ---- Materialize the sample: the first N tests of the full space. ----
  enumeration::ExhaustiveStream stream({});
  std::vector<litmus::LitmusTest> tests;
  tests.reserve(num_tests);
  std::vector<litmus::LitmusTest> chunk;
  while (tests.size() < num_tests && stream.next_chunk(chunk)) {
    for (auto& test : chunk) {
      if (tests.size() == num_tests) break;
      tests.push_back(std::move(test));
    }
    chunk.clear();
  }
  for (auto& test : chunk) {
    if (tests.size() == num_tests) break;
    tests.push_back(std::move(test));
  }
  std::printf("Sample: first %zu tests of the exhaustive stream.\n\n",
              tests.size());

  util::Timer timer;

  // ---- Prerequisites: Analysis vs KeyFacts. ----
  Pass analysis{"analysis (full)"};
  timer.reset();
  for (const auto& test : tests) {
    const core::Analysis an(test.program());
    analysis.checksum += static_cast<std::uint64_t>(an.num_events());
  }
  analysis.seconds = timer.seconds();

  Pass facts_pass{"key-facts (lean)"};
  core::KeyFacts facts;
  timer.reset();
  for (const auto& test : tests) {
    if (facts.build(test.program())) {
      facts_pass.checksum += static_cast<std::uint64_t>(facts.num_threads());
    }
  }
  facts_pass.seconds = timer.seconds();

  // ---- Canonical: legacy string key vs 128-bit fingerprint. ----
  Pass string_key{"canonical string key"};
  litmus::KeyScratch scratch;
  timer.reset();
  for (const auto& test : tests) {
    const core::Analysis an(test.program());
    const std::string& key =
        litmus::canonical_key(an, test.outcome(), scratch);
    string_key.checksum += key.size();
  }
  string_key.seconds = timer.seconds();

  Pass fingerprint{"canonical fingerprint"};
  timer.reset();
  for (const auto& test : tests) {
    fingerprint.checksum ^= litmus::canonical_fingerprint(test, scratch).lo;
  }
  fingerprint.seconds = timer.seconds();

  // The stream's keys step: facts once per program run.  The sample
  // holds every test, so program addresses stay unique while compared.
  const auto per_program_fingerprints = [&](std::vector<util::Key128>& out) {
    out.clear();
    const core::Program* loaded = nullptr;
    for (const auto& test : tests) {
      if (&test.program() != loaded) {
        litmus::load_key_facts(test.program(), scratch);
        loaded = &test.program();
      }
      out.push_back(litmus::canonical_fingerprint_loaded(test.outcome(),
                                                         scratch));
    }
  };
  Pass per_program{"fingerprint, per-program facts"};
  std::vector<util::Key128> program_major;
  program_major.reserve(tests.size());
  timer.reset();
  per_program_fingerprints(program_major);
  per_program.seconds = timer.seconds();
  for (const auto& fp : program_major) per_program.checksum ^= fp.lo;

  // ---- Structural. ----
  Pass structural_fp{"structural fingerprint"};
  timer.reset();
  for (const auto& test : tests) {
    structural_fp.checksum ^= litmus::structural_fingerprint(test).lo;
  }
  structural_fp.seconds = timer.seconds();

  const Pass* passes[] = {&analysis,          &facts_pass,
                          &string_key,        &fingerprint,
                          &per_program,       &structural_fp};
  util::Table table({"pass", "total", "ns/test", "checksum"});
  for (const Pass* pass : passes) {
    table.add_row({pass->name, format(pass->seconds, "s"),
                   format(ns_per_test(*pass, tests.size()), ""),
                   std::to_string(pass->checksum)});
  }
  std::printf("%s\n", table.to_string().c_str());

  std::printf("Speedups: prerequisites %.1fx, canonical %.1fx, "
              "per-program facts %.1fx.\n\n",
              facts_pass.seconds > 0 ? analysis.seconds / facts_pass.seconds
                                     : 0.0,
              fingerprint.seconds > 0 ? string_key.seconds / fingerprint.seconds
                                      : 0.0,
              per_program.seconds > 0
                  ? fingerprint.seconds / per_program.seconds
                  : 0.0);

  // ---- Differential validation on the timed sample: the string-key
  // and fingerprint classes coincide, and the per-program path yields
  // every test's fingerprint bit for bit. ----
  bool ok = true;
  std::size_t per_program_mismatches = 0;
  per_program_fingerprints(program_major);
  std::unordered_map<std::string, util::Key128> key_to_fp;
  std::unordered_map<util::Key128, std::string, util::Key128Hash> fp_to_key;
  for (std::size_t i = 0; i < tests.size(); ++i) {
    const auto& test = tests[i];
    const std::string key = litmus::canonical_key(test);
    const util::Key128 fp = litmus::canonical_fingerprint(test, scratch);
    if (!(program_major[i] == fp)) ++per_program_mismatches;
    const auto by_key = key_to_fp.emplace(key, fp);
    if (!by_key.second && !(by_key.first->second == fp)) ok = false;
    const auto by_fp = fp_to_key.emplace(fp, key);
    if (!by_fp.second && by_fp.first->second != key) ok = false;
  }
  ok = ok && key_to_fp.size() == fp_to_key.size() &&
       per_program_mismatches == 0;
  std::printf("Differential: %zu string-key classes, %zu fingerprint "
              "classes, %zu per-program fingerprint mismatches: %s\n",
              key_to_fp.size(), fp_to_key.size(), per_program_mismatches,
              ok ? "agree" : "DISAGREE");
  const double rss = mcmc::bench::peak_rss_mb();
  if (rss >= 0) std::printf("Peak RSS: %.1f MB\n", rss);
  return ok ? 0 : 1;
}
