// E7 -- the empirical Theorem-1 / Corollary-1 equivalence run.
//
// Streams the *entire* naive bounded space (Section 3.4; ~5.16 million
// tests at the default bounds) through the VerdictEngine in fixed-size
// chunks — never materializing it — and builds the 90x90 model-pair
// distinguishability matrix it induces.  That matrix is compared bit
// for bit against the one induced by the paper's Corollary-1 suite:
// Theorem 1 claims the tiny suite distinguishes every model pair the
// million-test space distinguishes.
//
// Also reports the symmetry reduction measured by the canonical-key
// machinery (thread exchange x location renaming x value renaming):
// streamed tests vs canonical classes actually evaluated, and programs
// vs program classes, counted from the space's symmetry orbits
// (ExhaustiveStream::count_orbits: the programs a fresh stream builds).
//
// Flags:
//   --max-accesses N    accesses per thread (default 3 = the full space)
//   --locations N       locations (default 3)
//   --no-fences         drop the optional fences
//   --with-deps         extend the space with dependency-carrying slots
//                       (data-dep reads/writes and ctrl-dep branches
//                       after a read; ~25.4M tests at default bounds);
//                       the streamed matrix is then compared against
//                       the *with-dep* Corollary-1 suite, and with
//                       --json a no-dep baseline pass additionally
//                       reports the keys-stage cost ratio
//   --chunk N           tests per chunk (default 4096)
//   --threads N         engine threads (default: hardware concurrency)
//   --no-filter         disable the monotone-extremes prefilter
//   --audit             collision-audit the hash-based dedup (more RAM,
//                       and a producer that builds a full-build twin of
//                       the stream and audits it on --threads threads),
//                       checking every repeat the stream elides; exits
//                       nonzero unless the audited classes equal the
//                       novel tests and the verified elisions equal the
//                       stream's repeats.  Not combinable with --resume
//   --verify-serial     re-run single-threaded, require a bit-for-bit
//                       identical distinguishability matrix
//   --progress N        print chunk stats every N chunks (default 64)
//   --json FILE         also write the run summary (host, bounds,
//                       counts, stage breakdown, throughput, matrix
//                       outcome) as JSON; BENCH_exhaustive.json in the
//                       repo root is a committed snapshot of a
//                       full-space run
//   --store FILE        persistent verdict store: verdicts load from and
//                       commit to FILE (crash-safe; see README
//                       "Persistence guarantees")
//   --resume            continue an interrupted run from the checkpoint
//                       in --store (no-op when none is present); like
//                       --checkpoint-every and --kill-after-seals, it
//                       is rejected without --store
//   --checkpoint-every N  seal a checkpoint every N chunks (default 64)
//   --require-store-hit-rate R  exit nonzero unless the store served at
//                       least fraction R of all probed verdict cells
//                       (CI's warm-store regression gate)
//   --kill-after-seals N  testing hook: abort the stream once its N-th
//                       checkpoint commit has landed (its background
//                       write is joined at the next seal or at the
//                       end), leaving exactly the file a SIGKILL right
//                       after that commit would; rerun with --resume to
//                       continue
//
// With non-default bounds the streamed space is a strict sub-space, so
// containment (naive <= suite) is checked instead of equality.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>

#include "host_info.h"
#include "peak_rss.h"

#include "engine/audited_source.h"
#include "engine/verdict_engine.h"
#include "enumeration/exhaustive.h"
#include "enumeration/suite.h"
#include "explore/distinguish.h"
#include "explore/space.h"
#include "util/table.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  using namespace mcmc;

  enumeration::ExhaustiveOptions opts;
  opts.chunk_size = 4096;
  engine::EngineOptions engine_options;
  explore::TheoremHarnessOptions harness;
  long progress_every = 64;
  bool verify_serial = false;
  bool audit = false;
  std::string json_path;
  std::string store_path;
  bool resume = false;
  long checkpoint_every = 64;
  double require_hit_rate = -1.0;
  long kill_after_seals = -1;
  // The last flag given that only means something with --store.
  const char* store_only_flag = nullptr;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto int_arg = [&](long lo, long hi, long& out) {
      if (i + 1 >= argc) return false;
      char* end = nullptr;
      const long v = std::strtol(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0' || v < lo || v > hi) return false;
      out = v;
      return true;
    };
    long v = 0;
    if (arg == "--max-accesses" && int_arg(1, 4, v)) {
      opts.bounds.max_accesses_per_thread = static_cast<int>(v);
    } else if (arg == "--locations" && int_arg(1, 4, v)) {
      opts.bounds.num_locations = static_cast<int>(v);
    } else if (arg == "--no-fences") {
      opts.bounds.fences = false;
    } else if (arg == "--with-deps") {
      opts.bounds.deps = true;
    } else if (arg == "--chunk" && int_arg(1, 1 << 20, v)) {
      opts.chunk_size = static_cast<int>(v);
    } else if (arg == "--threads" && int_arg(0, 4096, v)) {
      engine_options.num_threads = static_cast<int>(v);
    } else if (arg == "--no-filter") {
      harness.filter_extremes = false;
    } else if (arg == "--audit") {
      audit = true;
    } else if (arg == "--verify-serial") {
      verify_serial = true;
    } else if (arg == "--progress" && int_arg(1, 1 << 20, v)) {
      progress_every = v;
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--store" && i + 1 < argc) {
      store_path = argv[++i];
    } else if (arg == "--resume") {
      resume = true;
      store_only_flag = "--resume";
    } else if (arg == "--checkpoint-every" && int_arg(1, 1 << 20, v)) {
      checkpoint_every = v;
      store_only_flag = "--checkpoint-every";
    } else if (arg == "--require-store-hit-rate" && i + 1 < argc) {
      char* end = nullptr;
      require_hit_rate = std::strtod(argv[++i], &end);
      if (end == argv[i] || *end != '\0' || require_hit_rate < 0.0 ||
          require_hit_rate > 1.0) {
        std::fprintf(stderr, "bad hit rate '%s' (want [0, 1])\n", argv[i]);
        return 2;
      }
    } else if (arg == "--kill-after-seals" && int_arg(1, 1 << 20, v)) {
      kill_after_seals = v;
      store_only_flag = "--kill-after-seals";
    } else {
      std::fprintf(stderr,
                   "usage: %s [--max-accesses N] [--locations N] [--no-fences]"
                   " [--with-deps]"
                   " [--chunk N] [--threads N]"
                   " [--no-filter] [--audit] [--verify-serial]"
                   " [--progress N] [--json FILE] [--store FILE] [--resume]"
                   " [--checkpoint-every N] [--require-store-hit-rate R]"
                   " [--kill-after-seals N]\n",
                   argv[0]);
      return 2;
    }
  }
  if (store_only_flag != nullptr && store_path.empty()) {
    // Persistence is wired only with a store, so the flag would
    // silently do nothing.
    std::fprintf(stderr, "%s requires --store\n", store_only_flag);
    return 2;
  }
  if (audit && resume) {
    // A resumed run's counters include chunks the audit never saw.
    std::fprintf(stderr, "--audit cannot be combined with --resume\n");
    return 2;
  }

  const bool full_space = opts.bounds.max_accesses_per_thread == 3 &&
                          opts.bounds.num_locations == 3 && opts.bounds.fences;

  std::printf("== E7: streamed naive space vs the Corollary-1 suite ==\n\n");
  const auto expected = enumeration::ExhaustiveStream::count(opts);
  std::printf("space: %lld programs, %lld tests (chunks of %d)\n\n",
              expected.programs, expected.tests, opts.chunk_size);

  // ---- The suite-induced matrices. ----
  const auto space = explore::model_space(true);
  std::vector<core::MemoryModel> models;
  for (const auto& c : space) models.push_back(c.to_model());
  engine::VerdictEngine eng(engine_options);

  // ---- Persistent verdict store (optional). ----
  const store::StoreMeta store_meta = explore::harness_store_meta(models);
  const util::Key128 zoo_fp = store_meta.zoo_fingerprint();
  std::unique_ptr<store::VerdictStore> vstore;
  store::OpenOutcome store_outcome = store::OpenOutcome::Fresh;
  store::StreamPersistence persistence;
  if (!store_path.empty()) {
    auto opened = store::VerdictStore::open(store_path, store_meta);
    store_outcome = opened.outcome;
    vstore = std::move(opened.store);
    std::printf("store: %s -- %s, %zu entries%s%s\n", store_path.c_str(),
                store::to_string(store_outcome).c_str(), vstore->size(),
                opened.detail.empty() ? "" : ": ",
                opened.detail.c_str());
    eng.set_store(vstore.get());
    harness.verdict_store = vstore.get();
    persistence.path = store_path;
    persistence.checkpoint_every_chunks = static_cast<int>(checkpoint_every);
    persistence.resume = resume;
    persistence.kill_after_seals = static_cast<int>(kill_after_seals);
    harness.persistence = &persistence;
  }

  const auto suite_nodep = enumeration::corollary1_suite(false);
  const auto suite_dep = enumeration::corollary1_suite(true);
  const auto by_suite_nodep =
      explore::distinguishability(eng, models, suite_nodep);
  const auto by_suite_dep = explore::distinguishability(eng, models, suite_dep);

  // ---- The streamed naive-space matrix. ----
  enumeration::ExhaustiveStream stream(opts);
  // The audit's full-build twin: never opted in, it builds every test.
  std::optional<enumeration::ExhaustiveStream> twin;
  std::optional<engine::AuditedSource> audited;
  if (audit) {
    twin.emplace(opts);
    audited.emplace(stream, eng.effective_threads(), &*twin);
  }
  engine::TestSource& source =
      audited ? static_cast<engine::TestSource&>(*audited) : stream;
  explore::TheoremHarnessReport report;
  util::Timer timer;
  explore::DistinguishMatrix by_naive;
  try {
    by_naive = explore::distinguishability_streamed(
        eng, models, source, harness, &report,
        [&](const engine::StreamChunkStats& cs) {
          if ((cs.index + 1) % static_cast<std::size_t>(progress_every) != 0) {
            return;
          }
          std::printf("  chunk %5zu: streamed %zu novel %zu (dedup %.1f%%)"
                      " engine[%s]\n",
                      cs.index + 1, cs.streamed, cs.novel,
                      cs.streamed > 0
                          ? 100.0 * static_cast<double>(cs.duplicates) /
                                static_cast<double>(cs.streamed)
                          : 0.0,
                      cs.engine.to_string().c_str());
        });
  } catch (const store::StreamInterrupted& interrupted) {
    std::printf("\nstream interrupted by test hook: %s\n", interrupted.what());
    std::printf("rerun with --store %s --resume to continue\n",
                store_path.c_str());
    return 3;
  }
  const double wall = timer.seconds();

  std::printf("\nstream: %s\n", report.stream.to_string().c_str());
  std::printf("pipeline stages: %s\n",
              report.stream.stages.to_string().c_str());
  std::printf("throughput: %.0f streamed tests/sec (%.1fs wall, %d threads)\n",
              wall > 0
                  ? static_cast<double>(report.stream.tests_streamed) / wall
                  : 0.0,
              wall, eng.effective_threads());
  if (harness.filter_extremes) {
    std::printf("extremes prefilter: %zu candidates / %zu filtered "
                "(sweep %.1fs [%s])\n",
                report.candidate_tests, report.filtered_tests,
                report.sweep_seconds, report.sweep.to_string().c_str());
    std::printf("sweep: %zu cells decided by %zu searches\n",
                report.sweep.cells, report.sweep.searches);
  }
  double store_hit_rate = 0.0;
  if (vstore != nullptr) {
    const std::uint64_t probed = vstore->hits() + vstore->misses();
    store_hit_rate = probed > 0
                         ? static_cast<double>(vstore->hits()) /
                               static_cast<double>(probed)
                         : 0.0;
    std::printf("store: %zu entries, %llu/%llu probed cells served "
                "(hit rate %.4f); %zu commits wrote %llu bytes (seal %.2fs "
                "on the stream, write %.2fs beside it)\n",
                vstore->size(),
                static_cast<unsigned long long>(vstore->hits()),
                static_cast<unsigned long long>(probed), store_hit_rate,
                report.stream.commits,
                static_cast<unsigned long long>(report.stream.bytes_committed),
                report.stream.stages.seal, report.stream.stages.write);
  }
  const double rss = bench::peak_rss_mb();
  if (rss >= 0) std::printf("peak RSS: %.1f MB\n", rss);

  // ---- Symmetry reduction measured by the canonical-key machinery.
  // Program classes depend only on the bounds: one per orbit of shape
  // pairs, counted from the space itself, so a fresh, resumed or warm
  // run prints the same count. ----
  const long long program_classes =
      enumeration::ExhaustiveStream::count_orbits(opts).programs;
  std::printf("program classes: %lld\n", program_classes);
  const long long canonical_tests =
      static_cast<long long>(report.stream.novel_tests);
  std::printf("\nsymmetry reduction (canonical keys): %lld tests -> %lld "
              "classes (%.1fx); %lld programs -> %lld classes (%.1fx)\n",
              report.stream.tests_streamed > 0
                  ? static_cast<long long>(report.stream.tests_streamed)
                  : 0LL,
              canonical_tests,
              canonical_tests > 0
                  ? static_cast<double>(report.stream.tests_streamed) /
                        static_cast<double>(canonical_tests)
                  : 0.0,
              stream.emitted().programs, program_classes,
              program_classes > 0
                  ? static_cast<double>(stream.emitted().programs) /
                        static_cast<double>(program_classes)
                  : 0.0);

  // ---- The Theorem-1 comparison. ----
  util::Table table({"corpus", "tests", "distinguished pairs (of 4005)"});
  table.add_row({"naive space (streamed)",
                 std::to_string(report.stream.tests_streamed),
                 std::to_string(by_naive.distinguished_pairs())});
  table.add_row({"Corollary-1 suite, no deps",
                 std::to_string(suite_nodep.size()),
                 std::to_string(by_suite_nodep.distinguished_pairs())});
  table.add_row({"Corollary-1 suite, with deps",
                 std::to_string(suite_dep.size()),
                 std::to_string(by_suite_dep.distinguished_pairs())});
  std::printf("\n%s\n", table.to_string().c_str());

  // With deps the streamed space contains dependency tests the no-dep
  // suite cannot match, so the comparison target is the with-dep suite.
  const auto& by_suite_target =
      opts.bounds.deps ? by_suite_dep : by_suite_nodep;
  const char* target_name =
      opts.bounds.deps ? "with-dep suite" : "no-dep suite";
  bool ok = true;
  bool theorem_identical = false;
  if (full_space) {
    const bool equal = by_naive == by_suite_target;
    theorem_identical = equal;
    std::printf("naive space vs %s, bit for bit: %s\n", target_name,
                equal ? "IDENTICAL (Theorem 1 holds empirically)"
                      : "MISMATCH");
    if (!equal) {
      for (const auto& [a, b] : by_naive.pairs_beyond(by_suite_target)) {
        std::printf("  naive-only pair: %s vs %s\n", space[a].name().c_str(),
                    space[b].name().c_str());
      }
      for (const auto& [a, b] : by_suite_target.pairs_beyond(by_naive)) {
        std::printf("  suite-only pair: %s vs %s\n", space[a].name().c_str(),
                    space[b].name().c_str());
      }
    }
    ok = ok && equal;
  } else {
    const bool subset = by_naive.subset_of(by_suite_target);
    std::printf("sub-space naive <= %s: %s\n", target_name,
                subset ? "holds" : "VIOLATED");
    ok = ok && subset;
  }
  const bool within_dep = by_naive.subset_of(by_suite_dep);
  std::printf("naive <= with-dep suite: %s\n",
              within_dep ? "holds" : "VIOLATED");
  ok = ok && within_dep;
  if (audited) {
    const bool equal = audited->classes() == report.stream.novel_tests;
    std::printf("fingerprint audit: %zu classes seen, %zu novel tests: %s\n",
                audited->classes(), report.stream.novel_tests,
                equal ? "equal" : "MISMATCH");
    ok = ok && equal;
    // Every elision the audit verified is a repeat the stream counted.
    const bool elided_equal =
        audited->elided_verified() == report.stream.repeat_tests;
    if (elided_equal) {
      std::printf("elided repeats verified: %zu\n", audited->elided_verified());
    } else {
      std::printf("elided repeats verified: %zu, but the stream counted %zu: "
                  "MISMATCH\n",
                  audited->elided_verified(), report.stream.repeat_tests);
    }
    ok = ok && elided_equal;
  }

  // ---- Dep keys-cost baseline: with deps on, measure the keys stage
  // of a plain no-dep stream (keys cost is model-independent, so two
  // probe models suffice) and report the per-test ratio.  The 2x
  // budget is reported, not gated — a loaded CI box must not flake the
  // nightly run. ----
  const double run_keys_ns = report.stream.keys_ns_per_test();
  double norun_keys_ns = 0.0;
  std::size_t nodep_baseline_tests = 0;
  double nodep_keys_seconds = 0.0;
  if (opts.bounds.deps && !json_path.empty()) {
    enumeration::ExhaustiveOptions base_opts = opts;
    base_opts.bounds.deps = false;
    enumeration::ExhaustiveStream base_stream(base_opts);
    engine::VerdictEngine base_eng(engine_options);
    const std::vector<core::MemoryModel> probes = {models[0], models[1]};
    const auto base_stats =
        base_eng.run_stream(probes, base_stream, nullptr);
    norun_keys_ns = base_stats.keys_ns_per_test();
    nodep_baseline_tests = base_stats.tests_streamed;
    nodep_keys_seconds = base_stats.stages.keys;
    std::printf("\nkeys stage per test: dep space %.1f ns, no-dep baseline "
                "%.1f ns (ratio %.2fx, budget 2x)\n",
                run_keys_ns, norun_keys_ns,
                norun_keys_ns > 0 ? run_keys_ns / norun_keys_ns : 0.0);
  }

  // ---- The serial-vs-parallel determinism guard: the same stream run
  // on one thread must induce the identical matrix bit for bit. ----
  if (verify_serial) {
    engine::EngineOptions serial_options = engine_options;
    serial_options.num_threads = 1;
    explore::TheoremHarnessOptions serial_harness = harness;
    // The guard proves the parallel pipeline deterministic by full
    // recomputation — a store would let it serve answers instead of
    // deriving them.
    serial_harness.verdict_store = nullptr;
    serial_harness.persistence = nullptr;
    engine::VerdictEngine serial_eng(serial_options);
    enumeration::ExhaustiveStream serial_stream(opts);
    util::Timer serial_timer;
    explore::TheoremHarnessReport serial_report;
    const auto by_serial = explore::distinguishability_streamed(
        serial_eng, models, serial_stream, serial_harness, &serial_report);
    const bool identical =
        by_serial == by_naive &&
        serial_report.stream.tests_streamed == report.stream.tests_streamed &&
        serial_report.stream.novel_tests == report.stream.novel_tests;
    std::printf("\nserial re-run (1 thread): %.1fs, "
                "matrix + stream accounting vs parallel run: %s\n",
                serial_timer.seconds(),
                identical ? "IDENTICAL (bit for bit)" : "MISMATCH");
    ok = ok && identical;
  }

  // ---- The warm-store regression gate (CI reruns against the nightly
  // artifact and requires >= 99% of probed cells served). ----
  if (require_hit_rate >= 0.0) {
    const bool enough = vstore != nullptr && store_hit_rate >= require_hit_rate;
    std::printf("store hit-rate gate: %.4f >= %.4f: %s\n", store_hit_rate,
                require_hit_rate, enough ? "holds" : "VIOLATED");
    ok = ok && enough;
  }

  // ---- Machine-readable summary (committed snapshots live in the repo
  // root as BENCH_exhaustive.json). ----
  if (!json_path.empty()) {
    std::FILE* js = std::fopen(json_path.c_str(), "w");
    if (js == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 2;
    }
    const auto& s = report.stream;
    std::fprintf(js, "{\n");
    std::fprintf(js, "  \"schema_version\": 13,\n");
    const bench::HostInfo host = bench::host_info();
    std::fprintf(js,
                 "  \"host\": {\"nproc\": %u, \"compiler\": \"%s\", "
                 "\"build_type\": \"%s\", \"git_rev\": \"%s\"},\n",
                 host.nproc, host.compiler.c_str(), host.build_type.c_str(),
                 host.git_rev.c_str());
    std::fprintf(js, "  \"zoo_fingerprint\": \"%016llx%016llx\",\n",
                 static_cast<unsigned long long>(zoo_fp.hi),
                 static_cast<unsigned long long>(zoo_fp.lo));
    std::fprintf(js,
                 "  \"bounds\": {\"max_accesses_per_thread\": %d, "
                 "\"num_locations\": %d, \"fences\": %s, \"deps\": %s},\n",
                 opts.bounds.max_accesses_per_thread,
                 opts.bounds.num_locations,
                 opts.bounds.fences ? "true" : "false",
                 opts.bounds.deps ? "true" : "false");
    std::fprintf(js, "  \"full_space\": %s,\n",
                 full_space ? "true" : "false");
    std::fprintf(js, "  \"chunk_size\": %d,\n", opts.chunk_size);
    std::fprintf(js, "  \"threads\": %d,\n", eng.effective_threads());
    std::fprintf(js, "  \"programs\": %lld,\n", stream.emitted().programs);
    std::fprintf(js, "  \"program_classes\": %lld,\n", program_classes);
    std::fprintf(js, "  \"tests_streamed\": %zu,\n", s.tests_streamed);
    std::fprintf(js, "  \"novel_tests\": %zu,\n", s.novel_tests);
    std::fprintf(js, "  \"duplicate_tests\": %zu,\n", s.duplicate_tests);
    std::fprintf(js, "  \"repeat_tests\": %zu,\n", s.repeat_tests);
    std::fprintf(js, "  \"dedup_rate\": %.6f,\n", s.dedup_rate());
    std::fprintf(js, "  \"wall_seconds\": %.3f,\n", wall);
    std::fprintf(js, "  \"tests_per_second\": %.0f,\n",
                 wall > 0 ? static_cast<double>(s.tests_streamed) / wall : 0.0);
    std::fprintf(js,
                 "  \"stages_seconds\": {\"produce\": %.3f, \"wait\": %.3f, "
                 "\"release\": %.3f, \"keys\": %.3f, \"dedup\": %.3f, "
                 "\"verdict\": %.3f, \"sink\": %.3f, \"seal\": %.3f, "
                 "\"write\": %.3f},\n",
                 s.stages.produce, s.stages.wait, s.stages.release,
                 s.stages.keys, s.stages.dedup, s.stages.verdict, s.stages.sink,
                 s.stages.seal, s.stages.write);
    std::fprintf(js, "  \"unattributed_seconds\": %.3f,\n",
                 s.unattributed_seconds());
    std::fprintf(js, "  \"verdict_eval_seconds\": %.3f,\n",
                 s.engine.eval_seconds);
    std::fprintf(js, "  \"keys_ns_per_test\": %.1f,\n", run_keys_ns);
    if (norun_keys_ns > 0.0) {
      std::fprintf(js,
                   "  \"nodep_baseline\": {\"tests_streamed\": %zu, "
                   "\"keys_seconds\": %.3f, \"keys_ns_per_test\": %.1f},\n",
                   nodep_baseline_tests, nodep_keys_seconds, norun_keys_ns);
      std::fprintf(js, "  \"keys_cost_ratio\": %.3f,\n",
                   run_keys_ns / norun_keys_ns);
      std::fprintf(js, "  \"keys_cost_within_2x\": %s,\n",
                   run_keys_ns <= 2.0 * norun_keys_ns ? "true" : "false");
    }
    std::fprintf(js, "  \"dedup_audit\": %s,\n",
                 audit ? "true" : "false");
    std::fprintf(js, "  \"extremes_prefilter\": %s,\n",
                 harness.filter_extremes ? "true" : "false");
    std::fprintf(js, "  \"candidate_tests\": %zu,\n", report.candidate_tests);
    std::fprintf(js, "  \"sweep_seconds\": %.3f,\n", report.sweep_seconds);
    std::fprintf(js, "  \"sweep_eval_seconds\": %.3f,\n",
                 report.sweep.eval_seconds);
    std::fprintf(js, "  \"sweep_cells\": %zu,\n", report.sweep.cells);
    std::fprintf(js, "  \"sweep_searches\": %zu,\n", report.sweep.searches);
    if (vstore != nullptr) {
      std::fprintf(js,
                   "  \"store\": {\"path\": \"%s\", \"outcome\": \"%s\", "
                   "\"resumed\": %s, \"entries\": %zu, \"hits\": %llu, "
                   "\"misses\": %llu, \"hit_rate\": %.6f, "
                   "\"commits\": %zu, \"bytes_committed\": %llu},\n",
                   store_path.c_str(),
                   store::to_string(store_outcome).c_str(),
                   resume ? "true" : "false", vstore->size(),
                   static_cast<unsigned long long>(vstore->hits()),
                   static_cast<unsigned long long>(vstore->misses()),
                   store_hit_rate, s.commits,
                   static_cast<unsigned long long>(s.bytes_committed));
    } else {
      std::fprintf(js, "  \"store\": null,\n");
    }
    std::fprintf(js, "  \"distinguished_pairs\": {\"naive_stream\": %lld, "
                 "\"suite_nodep\": %lld, \"suite_dep\": %lld},\n",
                 static_cast<long long>(by_naive.distinguished_pairs()),
                 static_cast<long long>(by_suite_nodep.distinguished_pairs()),
                 static_cast<long long>(by_suite_dep.distinguished_pairs()));
    std::fprintf(js, "  \"theorem1_identical\": %s,\n",
                 theorem_identical ? "true" : "false");
    std::fprintf(js, "  \"peak_rss_mb\": %.1f,\n", bench::peak_rss_mb());
    std::fprintf(js, "  \"ok\": %s\n", ok ? "true" : "false");
    std::fprintf(js, "}\n");
    std::fclose(js);
    std::printf("\nwrote %s\n", json_path.c_str());
  }
  return ok ? 0 : 1;
}
