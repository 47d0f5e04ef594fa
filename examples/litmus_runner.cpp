// Evaluate litmus tests under memory models.
//
//   $ ./litmus_runner                       # run the built-in catalog
//   $ ./litmus_runner tests.lit             # run a corpus from a file
//   $ ./litmus_runner -                     # read tests from stdin
//   $ ./litmus_runner --exhaustive 40       # first 40 naive-space tests
//   $ ./litmus_runner --explain tests.lit   # also explain forbidden ones
//   $ ./litmus_runner --stats tests.lit     # engine statistics on stderr
//   $ ./litmus_runner --store FILE tests.lit # persistent verdict store:
//                                           # verdicts load from / commit
//                                           # to FILE (crash-safe; see
//                                           # README "Persistence
//                                           # guarantees")
//
// Prints the verdict of every named hardware model for each test, plus a
// witness execution order when the outcome is allowed; with --explain,
// forbidden verdicts are justified with the forced happens-before cycle.
// The file format is described in src/litmus/parser.h; a file may contain
// several tests, each starting at a `name:` line.
//
// All verdicts for the whole corpus are evaluated in one batched
// engine::VerdictEngine run (parallel across cells, symmetric tests
// deduplicated); witness linearizations are then recovered only for the
// allowed cells.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>

#include "core/analysis.h"
#include "core/checker.h"
#include "core/explain.h"
#include "engine/verdict_engine.h"
#include "enumeration/exhaustive.h"
#include "litmus/catalog.h"
#include "litmus/parser.h"
#include "models/zoo.h"
#include "store/verdict_store.h"
#include "util/table.h"

namespace {

void print_one(const mcmc::litmus::LitmusTest& test,
               const std::vector<mcmc::core::MemoryModel>& models,
               const mcmc::engine::BitMatrix& verdicts, int test_index,
               bool explain) {
  using namespace mcmc;
  std::printf("%s\n", test.to_string().c_str());
  const core::Analysis an(test.program());
  util::Table table({"model", "verdict", "witness (first event ... last)"});
  for (std::size_t m = 0; m < models.size(); ++m) {
    const bool allowed = verdicts.get(static_cast<int>(m), test_index);
    std::string witness;
    if (allowed) {
      // The engine answered the (cheap, batched) decision question; the
      // witness linearization is only materialized for allowed cells.
      const auto result = core::check(an, models[m], test.outcome());
      for (const auto e : result.order) {
        if (!an.is_memory_access(e) && !an.is_fence(e)) continue;
        if (!witness.empty()) witness += "; ";
        witness += "T" + std::to_string(an.event(e).thread + 1) + ":" +
                   core::to_string(*an.event(e).instr);
      }
    }
    table.add_row({models[m].name(), allowed ? "ALLOWED" : "forbidden",
                   witness});
  }
  std::printf("%s\n", table.to_string().c_str());

  if (!explain) return;
  for (const auto& model : models) {
    const auto explanation =
        core::explain_forbidden(an, model, test.outcome());
    if (explanation.actually_allowed) continue;
    std::printf("why %s forbids it:\n", model.name().c_str());
    for (std::size_t i = 0; i < explanation.candidates.size(); ++i) {
      const auto& item = explanation.candidates[i];
      std::printf("  read-from candidate %zu: %s\n", i + 1,
                  item.summary.c_str());
      for (const auto& line : item.forced_cycle) {
        std::printf("    %s\n", line.c_str());
      }
    }
    std::printf("\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mcmc;
  bool explain = false;
  bool stats = false;
  long exhaustive = 0;
  std::string store_path;
  std::vector<std::string> inputs;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--explain") {
      explain = true;
    } else if (arg == "--stats") {
      stats = true;
    } else if (arg == "--store" && i + 1 < argc) {
      store_path = argv[++i];
    } else if (arg == "--exhaustive" && i + 1 < argc) {
      exhaustive = std::strtol(argv[++i], nullptr, 10);
      if (exhaustive <= 0) {
        std::fprintf(stderr, "--exhaustive takes a positive test count\n");
        return 2;
      }
    } else {
      inputs.push_back(arg);
    }
  }
  try {
    std::vector<litmus::LitmusTest> tests;
    if (exhaustive > 0) {
      // A slice of the naive-space enumeration, pulled chunk by chunk.
      enumeration::ExhaustiveStream stream(enumeration::ExhaustiveOptions{});
      std::vector<litmus::LitmusTest> chunk;
      bool more = true;
      while (more && static_cast<long>(tests.size()) < exhaustive) {
        chunk.clear();
        more = stream.next_chunk(chunk);
        for (auto& t : chunk) {
          if (static_cast<long>(tests.size()) == exhaustive) break;
          tests.push_back(std::move(t));
        }
      }
    } else if (inputs.empty()) {
      tests = litmus::full_catalog();
    } else {
      for (const auto& input : inputs) {
        std::string text;
        if (input == "-") {
          std::ostringstream buffer;
          buffer << std::cin.rdbuf();
          text = buffer.str();
        } else {
          std::ifstream in(input);
          if (!in) {
            std::fprintf(stderr, "cannot open %s\n", input.c_str());
            return 2;
          }
          std::ostringstream buffer;
          buffer << in.rdbuf();
          text = buffer.str();
        }
        for (auto& t : litmus::parse_corpus(text)) {
          tests.push_back(std::move(t));
        }
      }
    }

    const auto models = models::all_named_models();
    engine::VerdictEngine eng;
    // Optional persistent store: verdicts computed on earlier runs are
    // served from disk, and this run's are committed back (atomically;
    // a corrupt or stale file self-invalidates and everything is simply
    // recomputed).
    std::unique_ptr<store::VerdictStore> vstore;
    if (!store_path.empty()) {
      auto opened = store::VerdictStore::open(
          store_path, store::StoreMeta::from_models(models));
      std::fprintf(stderr, "[store %s: %s, %zu entries]\n", store_path.c_str(),
                   store::to_string(opened.outcome).c_str(),
                   opened.store->size());
      vstore = std::move(opened.store);
      eng.set_store(vstore.get());
    }
    const auto verdicts = eng.run_matrix(models, tests);
    if (stats) {
      std::fprintf(stderr, "[engine %s]\n",
                   eng.last_stats().to_string().c_str());
    }
    if (vstore != nullptr) {
      // Folded commit: one file afterwards, and no write at all when
      // every verdict came from the store.
      std::string error;
      if (!vstore->commit(store_path, nullptr, /*fold=*/true, &error)) {
        std::fprintf(stderr, "[store commit failed: %s]\n", error.c_str());
      }
    }
    for (std::size_t t = 0; t < tests.size(); ++t) {
      print_one(tests[t], models, verdicts, static_cast<int>(t), explain);
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
