#include "workload.h"

namespace perfbench {

JsonObject EndToEnd::to_json() const {
  JsonObject out;
  out.add("setup_s", setup_s)
      .add("tests_per_s", tests_per_s)
      .add("peak_rss_mb", peak_rss_mb);
  return out;
}

JsonObject LayerMetrics::to_json() const {
  JsonObject out;
  out.add("enumeration.produce_s", produce_s)
      .add("enumeration.produce_ns_per_test", produce_ns_per_test)
      .add("enumeration.tests", tests)
      .add("engine.keys_s", keys_s)
      .add("engine.keys_ns_per_test", keys_ns_per_test)
      .add("engine.dedup_s", dedup_s)
      .add("engine.verdict_s", verdict_s)
      .add("engine.checks", checks)
      .add("engine.verdict_ns_per_check", verdict_ns_per_check)
      .add("engine.novel_tests", novel_tests)
      .add("engine.dedup_rate", dedup_rate)
      .add("engine.unattributed_s", unattributed_s)
      .add("explore.sweep_s", sweep_s)
      .add("explore.sweep_checks", sweep_checks)
      .add("explore.sweep_ns_per_check", sweep_ns_per_check)
      .add("explore.candidates", candidates)
      .add("explore.candidate_rate", candidate_rate)
      .add("store.seals", seals)
      .add("store.commit_s", commit_s)
      .add("store.fsyncs", fsyncs)
      .add("store.bytes_written", bytes_written)
      .add("store.final_bytes", final_bytes)
      .add("store.write_amp", write_amp)
      .add("store.load_s", load_s)
      .add("litmus.parse_ns_per_test", parse_ns_per_test)
      .add("litmus.fingerprint_ns_per_test", fingerprint_ns_per_test)
      .add("serve.engine_runs", engine_runs)
      .add("serve.tests_per_engine_run", tests_per_engine_run)
      .add("serve.max_coalesced", max_coalesced)
      .add("serve.saves", saves)
      .add("serve.store_hit_rate", store_hit_rate)
      .add("serve.encode_ns_per_frame", encode_ns_per_frame)
      .add("serve.decode_ns_per_frame", decode_ns_per_frame)
      .add("serve.probe_p50_ms", probe_p50_ms)
      .add("serve.check_p50_ms", check_p50_ms)
      .add("serve.cold_p50_ms", cold_p50_ms)
      .add("serve.cold_p90_ms", cold_p90_ms)
      .add("serve.probe_p99_ms", probe_p99_ms)
      .add("serve.check_p99_ms", check_p99_ms)
      .add("serve.cold_p99_ms", cold_p99_ms)
      .add("trace.overhead_pct", overhead_pct)
      .add("trace.spans", spans);
  return out;
}

}  // namespace perfbench
