// perfbench_workload: runs one workload of the benchmark and prints one
// JSON line with its checks, operation counts and metrics.  run.py
// builds it, calls it once per run, and turns that line into the
// benchmark's result; see perfbench/README.md.
//
//   perfbench_workload --workload sweep|checkpoint|serve --seed N
//                    --seconds S --trace 0|1 [--trace-file PATH]
//                    [--litmusd PATH] --workdir DIR
//
// Store files, sockets and the daemon's log go to DIR.
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workload.h"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload sweep|checkpoint|serve --seed N "
               "--seconds S --trace 0|1 [--trace-file PATH] "
               "[--litmusd PATH] --workdir DIR\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  RunConfig config;
  config.process_start = std::chrono::steady_clock::now();
  std::string workload;
  std::string workdir;

  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string arg = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value, &end, 10);
      if (end == value || *end != '\0') return usage(argv[0]);
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || !(config.seconds > 0)) {
        return usage(argv[0]);
      }
    } else if (arg == "--trace") {
      config.trace = std::string(value) == "1";
    } else if (arg == "--trace-file") {
      config.trace_path = value;
    } else if (arg == "--litmusd") {
      config.litmusd = value;
    } else if (arg == "--workdir") {
      workdir = value;
    } else {
      return usage(argv[0]);
    }
  }
  if (argc % 2 != 1 || workdir.empty() ||
      (config.trace && config.trace_path.empty()) ||
      (workload != "sweep" && workload != "checkpoint" &&
       workload != "serve") ||
      (workload == "serve" && config.litmusd.empty())) {
    return usage(argv[0]);
  }
  if (::chdir(workdir.c_str()) != 0) {
    std::fprintf(stderr, "cannot enter %s\n", workdir.c_str());
    return 2;
  }

  RunResult result;
  try {
    result = workload == "serve" ? run_serve(config)
                                 : run_sweep(config, workload == "checkpoint");
  } catch (const std::exception& e) {
    result.problems.push_back(std::string("exception: ") + e.what());
  }

  Operations total;
  JsonObject operations;
  for (const auto& [kind, ops] : result.operations) {
    total.attempted += ops.attempted;
    total.failed += ops.failed;
    operations.add(kind, JsonObject()
                             .add("attempted", ops.attempted)
                             .add("failed", ops.failed));
  }
  const bool correct = result.problems.empty() && total.failed == 0;
  JsonObject out;
  out.add("workload", workload)
      .add("correct", correct)
      .add("attempted", total.attempted)
      .add("failed", total.failed)
      .add("problems", result.problems)
      .add("operations", operations)
      .add("end_to_end", result.end_to_end.to_json())
      .add("per_layer", result.layers.to_json())
      .add("detail", result.detail);
  std::printf("%s\n", out.dump().c_str());
  return correct ? 0 : 1;
}
