// The benchmark's workloads and what one run of one reports.
//
// Every workload reports the same end-to-end metrics (tracing off) and
// the same per-layer metrics (traced run); a layer a workload does not
// exercise reads 0.  The names here must match BENCHMARK.json, which
// run.py checks on every run.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "report.h"

namespace perfbench {

struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_path;  ///< Chrome trace output of a traced run
  std::string litmusd;     ///< daemon binary (serve)
  std::chrono::steady_clock::time_point process_start;
};

struct Operations {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

struct EndToEnd {
  double setup_s = 0.0;
  double tests_per_s = 0.0;
  double peak_rss_mb = 0.0;

  [[nodiscard]] JsonObject to_json() const;
};

/// Per-layer metrics, named <layer>.<metric> after the repository's
/// modules.  Counts are exact; see perfbench/README.md for which
/// end-to-end metric each should move.
struct LayerMetrics {
  double produce_s = 0.0;
  double produce_ns_per_test = 0.0;
  std::uint64_t tests = 0;

  double keys_s = 0.0;
  double keys_ns_per_test = 0.0;
  double dedup_s = 0.0;
  double verdict_s = 0.0;
  std::uint64_t checks = 0;
  double verdict_ns_per_check = 0.0;
  std::uint64_t novel_tests = 0;
  double dedup_rate = 0.0;
  double unattributed_s = 0.0;

  double sweep_s = 0.0;
  std::uint64_t sweep_checks = 0;
  double sweep_ns_per_check = 0.0;
  std::uint64_t candidates = 0;
  double candidate_rate = 0.0;

  std::uint64_t seals = 0;
  double commit_s = 0.0;
  std::uint64_t fsyncs = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t final_bytes = 0;
  double write_amp = 0.0;
  double load_s = 0.0;

  double parse_ns_per_test = 0.0;
  double fingerprint_ns_per_test = 0.0;

  std::uint64_t engine_runs = 0;
  double tests_per_engine_run = 0.0;
  std::uint64_t max_coalesced = 0;
  std::uint64_t saves = 0;
  double store_hit_rate = 0.0;
  double encode_ns_per_frame = 0.0;
  double decode_ns_per_frame = 0.0;
  double probe_p50_ms = 0.0;
  double check_p50_ms = 0.0;
  double cold_p50_ms = 0.0;
  double cold_p90_ms = 0.0;
  double probe_p99_ms = 0.0;
  double check_p99_ms = 0.0;
  double cold_p99_ms = 0.0;

  double overhead_pct = 0.0;
  std::uint64_t spans = 0;

  [[nodiscard]] JsonObject to_json() const;
};

struct RunResult {
  /// Failed correctness checks, one line each; empty means correct.
  std::vector<std::string> problems;
  /// Operations by kind (a sweep, or a serve request kind).
  std::vector<std::pair<std::string, Operations>> operations;
  EndToEnd end_to_end;
  LayerMetrics layers;  ///< meaningful in traced runs only
  JsonObject detail;    ///< samples, counts and settings behind the metrics
};

/// `checkpoint` false: the cold Theorem-1 harness, no store.  True:
/// the same with a store opened empty and sealed every 16 chunks.
[[nodiscard]] RunResult run_sweep(const RunConfig& config, bool checkpoint);

/// The real litmusd under a closed-loop request mix.
[[nodiscard]] RunResult run_serve(const RunConfig& config);

/// Seconds from `a` to `b`.
[[nodiscard]] inline double seconds_between(
    std::chrono::steady_clock::time_point a,
    std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

}  // namespace perfbench
