// The `serve` workload: the real litmusd (--threads 1) under a closed
// loop of 2 connections, one thread each, each waiting for its reply
// before sending the next request.
//
// Inputs come from the seed, before anything is timed: about 20k
// canonically distinct tests sampled from the with-dep space are
// pre-warmed into the store, and a request schedule is drawn —
//   ~50% batch probes of 64 warm fingerprints,
//   ~35% batch checks of 16 warm tests,
//   ~15% batch checks of 16 never-seen ("cold") tests, each computed
//   once, appended, and committed with the next store commit,
// sized at kRequestsPerSecond per second of --seconds.  A store-less
// in-process VerdictEngine computes every verdict the daemon will be
// asked for, and every returned row is compared with it: warm rows
// must come from the store, cold rows from the engine.  litmusd only
// ever sees the generated requests.
//
// The schedule runs in two identical phases, each on a fresh daemon
// and a store reset to the pre-warmed rows.  A phase's throughput is
// the median over consecutive blocks of the schedule, and the run
// reports the better phase: contention from outside the machine only
// ever slows a phase down.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "child.h"
#include "engine/verdict_engine.h"
#include "enumeration/naive.h"
#include "explore/distinguish.h"
#include "explore/space.h"
#include "litmus/parser.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "store/fs.h"
#include "store/verdict_store.h"
#include "trace.h"
#include "util/rng.h"
#include "util/timer.h"
#include "workload.h"
#include "wrappers.h"

namespace perfbench {

namespace {

using namespace mcmc;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kWarmTests = 20000;
constexpr std::size_t kProbeBatch = 64;
constexpr std::size_t kCheckBatch = 16;
constexpr int kClients = 2;
/// Schedule length per second of --seconds: the two load phases
/// together last about --seconds on the reference host.
constexpr double kRequestsPerSecond = 1800.0;
/// Daemons spawned (and drained) only for setup samples; every
/// measured phase adds one more sample.
constexpr int kSetupSpawns = 8;
constexpr int kPhases = 2;  ///< identical measured load phases
/// Responses of each kind kept for the traced encode/decode pass.
constexpr std::size_t kKeptResponses = 512;

/// litmusd commits its store after this many new rows.  Its default,
/// 256, puts an fsync of the whole growing store behind every 16 cold
/// requests; with the store on a disk (the benchmark writes only inside
/// its checkout) those fsyncs swung throughput by 15% from run to run,
/// against 3% at 2048.  Commits stay on the measured path, about 20 per
/// phase.
const char* const kSaveEvery = "2048";
const char* const kStorePath = "serve.store";
const char* const kSocketPath = "litmusd.sock";
const char* const kLogPath = "litmusd.log";

enum Kind { kProbe = 0, kCheck = 1, kCold = 2, kKinds = 3 };
const char* const kKindNames[kKinds] = {"probe", "check", "cold"};

struct Item {
  Kind kind = kProbe;
  std::vector<std::uint32_t> tests;  ///< into warm (probe, check) or cold
  serve::Request request;
};

struct Inputs {
  std::vector<core::MemoryModel> models;
  std::vector<std::string> model_names;
  std::vector<litmus::LitmusTest> warm;
  std::vector<litmus::LitmusTest> cold;
  std::vector<util::Key128> warm_keys;
  engine::BitMatrix warm_verdicts;  ///< models x warm
  engine::BitMatrix cold_verdicts;  ///< models x cold
  std::vector<Item> schedule;
  std::unique_ptr<store::VerdictStore> warm_store;
};

/// `count` distinct indices below `bound`.
std::vector<std::uint32_t> distinct_indices(util::Rng& rng, std::size_t count,
                                            std::size_t bound) {
  std::vector<std::uint32_t> out;
  while (out.size() < count) {
    const auto i = static_cast<std::uint32_t>(rng.below(bound));
    if (std::find(out.begin(), out.end(), i) == out.end()) out.push_back(i);
  }
  return out;
}

/// Canonically distinct tests of the with-dep space, renamed t0, t1,
/// ... so every test in a corpus has its own name.
std::vector<litmus::LitmusTest> sample_distinct(std::size_t count,
                                                util::Rng& rng) {
  enumeration::NaiveOptions bounds;
  bounds.deps = true;
  std::unordered_set<util::Key128, util::Key128Hash> seen;
  litmus::KeyScratch scratch;
  std::vector<litmus::LitmusTest> out;
  while (out.size() < count) {
    for (auto& test :
         enumeration::sample_naive_tests(bounds, 4096, rng.next())) {
      if (out.size() == count) break;
      if (!seen.insert(litmus::canonical_fingerprint(test, scratch)).second) {
        continue;
      }
      out.emplace_back("t" + std::to_string(out.size()), test.program(),
                       test.outcome());
    }
  }
  return out;
}

Inputs prepare(std::uint64_t seed, double seconds) {
  Inputs in;
  for (const auto& choices : explore::model_space(true)) {
    in.models.push_back(choices.to_model());
    in.model_names.push_back(choices.name());
  }
  util::Rng rng(seed);
  const auto requests =
      std::max<std::size_t>(1, static_cast<std::size_t>(
                                   seconds * kRequestsPerSecond + 0.5));
  std::vector<Kind> kinds(requests);
  std::size_t cold_requests = 0;
  for (auto& kind : kinds) {
    const auto r = rng.below(100);
    kind = r < 50 ? kProbe : r < 85 ? kCheck : kCold;
    if (kind == kCold) ++cold_requests;
  }

  auto tests = sample_distinct(kWarmTests + cold_requests * kCheckBatch, rng);
  in.cold.assign(std::make_move_iterator(tests.begin() + kWarmTests),
                 std::make_move_iterator(tests.end()));
  tests.erase(tests.begin() + kWarmTests, tests.end());
  in.warm = std::move(tests);
  litmus::KeyScratch scratch;
  for (const auto& test : in.warm) {
    in.warm_keys.push_back(litmus::canonical_fingerprint(test, scratch));
  }

  // The oracle: every verdict the daemon will be asked for, computed
  // in process without a store.
  engine::EngineOptions oracle_options;
  oracle_options.cache_enabled = false;
  engine::VerdictEngine oracle(oracle_options);
  in.warm_verdicts = oracle.run_matrix(in.models, in.warm);
  in.cold_verdicts = oracle.run_matrix(in.models, in.cold);

  in.warm_store = std::make_unique<store::VerdictStore>(
      explore::harness_store_meta(in.models));
  std::vector<int> cols;
  for (const auto& model : in.models) {
    cols.push_back(in.warm_store->column_of(store::model_store_key(model)));
  }
  {
    util::ExclusiveLock lock(in.warm_store->mu());
    for (std::size_t t = 0; t < in.warm.size(); ++t) {
      for (std::size_t m = 0; m < in.models.size(); ++m) {
        in.warm_store->set_bit_locked(
            in.warm_keys[t], cols[m],
            in.warm_verdicts.get(static_cast<int>(m), static_cast<int>(t)));
      }
    }
  }

  std::size_t next_cold = 0;
  in.schedule.reserve(requests);
  for (const Kind kind : kinds) {
    Item item;
    item.kind = kind;
    if (kind == kProbe) {
      item.tests = distinct_indices(rng, kProbeBatch, in.warm.size());
      item.request.type = serve::MsgType::kBatchProbe;
      for (const auto t : item.tests) {
        item.request.keys.push_back(in.warm_keys[t]);
      }
    } else {
      std::vector<litmus::LitmusTest> batch;
      if (kind == kCheck) {
        item.tests = distinct_indices(rng, kCheckBatch, in.warm.size());
        for (const auto t : item.tests) batch.push_back(in.warm[t]);
      } else {
        for (std::size_t k = 0; k < kCheckBatch; ++k, ++next_cold) {
          item.tests.push_back(static_cast<std::uint32_t>(next_cold));
          batch.push_back(in.cold[next_cold]);
        }
      }
      item.request.type = serve::MsgType::kBatchCheck;
      item.request.text = litmus::write_corpus(batch);
    }
    in.schedule.push_back(std::move(item));
  }
  return in;
}

/// Why `response` is not the right answer to `item`, or nullopt.
std::optional<std::string> check_response(const Inputs& in, const Item& item,
                                          const serve::Response& response) {
  if (response.type == serve::MsgType::kError) {
    return "error reply " +
           std::to_string(static_cast<std::uint32_t>(response.error_code)) +
           ": " + response.error_message;
  }
  if (response.type != serve::MsgType::kVerdictRows ||
      response.rows.size() != item.tests.size()) {
    return std::string("wrong reply shape");
  }
  const bool cold = item.kind == kCold;
  const auto& verdicts = cold ? in.cold_verdicts : in.warm_verdicts;
  const auto expected_source =
      cold ? serve::VerdictSource::kComputed : serve::VerdictSource::kStore;
  const int num_models = static_cast<int>(in.models.size());
  for (std::size_t i = 0; i < item.tests.size(); ++i) {
    const auto& row = response.rows[i];
    if (row.source != expected_source) {
      return std::string("row from the wrong source");
    }
    if (row.num_models != static_cast<std::uint32_t>(num_models)) {
      return std::string("row has the wrong model count");
    }
    const int t = static_cast<int>(item.tests[i]);
    for (int m = 0; m < num_models; ++m) {
      if (!row.known(m) || row.allowed(m) != verdicts.get(m, t)) {
        return "wrong verdict of model " + std::to_string(m);
      }
    }
  }
  return std::nullopt;
}

/// A litmusd child process; killed and reaped if still running when
/// destroyed.
class Daemon {
 public:
  Daemon(const std::string& binary, Tracer* tracer)
      : tracer_(tracer),
        spawned_(Clock::now()),
        span_start_(tracer != nullptr ? tracer->now_ns() : 0),
        child_({binary, "--socket", kSocketPath, "--store", kStorePath,
                "--threads", "1", "--save-every", kSaveEvery},
               kLogPath) {}

  /// Polls until the daemon answers a models request with `names`;
  /// returns the seconds from spawn to that reply.
  std::optional<double> wait_ready(const std::vector<std::string>& names,
                                   std::string& error) {
    if (!child_.running()) {
      error = child_.error();
      return std::nullopt;
    }
    const auto deadline = spawned_ + std::chrono::seconds(30);
    while (Clock::now() < deadline) {
      serve::Client client;
      std::vector<std::string> served;
      if (client.connect_unix(kSocketPath) && client.models(served, &error)) {
        const double setup = seconds_between(spawned_, Clock::now());
        if (tracer_ != nullptr) {
          Span span;
          span.name = "spawn_to_first_reply";
          span.layer = "serve";
          span.start_ns = span_start_;
          span.end_ns = tracer_->now_ns();
          span.tid = thread_index();
          tracer_->record(span);
        }
        if (served != names) {
          error = "litmusd serves a different model list";
          return std::nullopt;
        }
        return setup;
      }
      if (child_.exited()) {
        error = "litmusd exited during start-up (see " +
                std::string(kLogPath) + ")";
        return std::nullopt;
      }
      ::usleep(200);
    }
    error = "litmusd did not answer within 30 s";
    return std::nullopt;
  }

  /// SIGTERM and reap.  True iff the drain ended in exit status 0.
  /// `peak_rss_mb` is the daemon's high-water mark, read just before
  /// the SIGTERM.  That leaves out only the drain's final save, which
  /// serializes the store its periodic saves did, with fewer than
  /// --save-every rows more.
  bool stop(double& peak_rss_mb) {
    peak_rss_mb = child_.peak_rss_mb();
    return child_.terminate();
  }

 private:
  Tracer* tracer_;
  Clock::time_point spawned_;
  std::int64_t span_start_ = 0;
  Child child_;
};

/// Consecutive schedule blocks whose throughputs are medianed: each
/// is a fixed set of requests, so a burst of contention from outside
/// slows a few blocks instead of moving the whole run.
constexpr std::size_t kBlocks = 15;

struct Load {
  double wall = 0.0;
  std::uint64_t rows = 0;
  std::vector<double> block_tests_per_s;
  std::vector<double> latency_ms[kKinds];
  Operations ops[kKinds];
  std::vector<std::string> failures;  ///< first few, for the report
  std::vector<serve::Response> kept[kKinds];
};

/// The closed loop: kClients threads, each with its own connection,
/// take the next schedule item until none is left.
Load run_load(const Inputs& in, Tracer* tracer) {
  struct PerClient {
    std::vector<double> latency_ms[kKinds];
    Operations ops[kKinds];
    std::uint64_t rows = 0;
    std::vector<std::string> failures;
    std::vector<serve::Response> kept[kKinds];
  };
  std::vector<PerClient> per(kClients);
  // Per request, written only by the thread that sent it: seconds from
  // the load's start to sending and to the checked reply, and the rows
  // it returned (0 if it failed).
  struct Done {
    double sent_s = 0.0;
    double done_s = 0.0;
    std::uint64_t rows = 0;
  };
  std::vector<Done> done(in.schedule.size());
  std::atomic<std::size_t> next{0};
  std::atomic<int> connected{0};
  std::atomic<bool> go{false};
  Clock::time_point start;

  const auto client_loop = [&](PerClient& mine) {
    serve::Client client;
    std::string error;
    const bool up = client.connect_unix(kSocketPath, &error);
    connected.fetch_add(1);
    while (!go.load()) std::this_thread::yield();
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= in.schedule.size()) break;
      const Item& item = in.schedule[i];
      serve::Response response;
      const auto t0 = Clock::now();
      bool sent = false;
      {
        ScopedSpan span(tracer, "Client::call", "serve", i + 1,
                        kKindNames[item.kind]);
        sent = up && client.call(item.request, response, &error);
      }
      const auto t1 = Clock::now();
      const double ms = seconds_between(t0, t1) * 1e3;
      done[i].sent_s = seconds_between(start, t0);
      done[i].done_s = seconds_between(start, t1);
      std::optional<std::string> wrong =
          sent ? check_response(in, item, response)
               : std::optional<std::string>("transport: " + error);
      ++mine.ops[item.kind].attempted;
      if (wrong) {
        // A failed request misses every latency limit.
        mine.latency_ms[item.kind].push_back(
            std::numeric_limits<double>::infinity());
        ++mine.ops[item.kind].failed;
        if (mine.failures.size() < 5) {
          mine.failures.push_back(std::string(kKindNames[item.kind]) +
                                  " request " + std::to_string(i) + ": " +
                                  *wrong);
        }
        continue;
      }
      mine.latency_ms[item.kind].push_back(ms);
      mine.rows += response.rows.size();
      done[i].rows = response.rows.size();
      if (mine.kept[item.kind].size() < kKeptResponses / kClients) {
        mine.kept[item.kind].push_back(std::move(response));
      }
    }
  };

  std::vector<std::thread> threads;
  for (auto& mine : per) threads.emplace_back(client_loop, std::ref(mine));
  while (connected.load() < kClients) std::this_thread::yield();
  start = Clock::now();
  go.store(true);
  for (auto& thread : threads) thread.join();
  Load load;
  load.wall = seconds_between(start, Clock::now());
  const std::size_t n = done.size();
  for (std::size_t b = 0; b < kBlocks && n >= kBlocks; ++b) {
    double first = load.wall;
    double last = 0.0;
    std::uint64_t rows = 0;
    for (std::size_t i = b * n / kBlocks; i < (b + 1) * n / kBlocks; ++i) {
      first = std::min(first, done[i].sent_s);
      last = std::max(last, done[i].done_s);
      rows += done[i].rows;
    }
    load.block_tests_per_s.push_back(
        last > first ? static_cast<double>(rows) / (last - first) : 0.0);
  }
  for (auto& mine : per) {
    load.rows += mine.rows;
    for (int k = 0; k < kKinds; ++k) {
      auto& lat = load.latency_ms[k];
      lat.insert(lat.end(), mine.latency_ms[k].begin(),
                 mine.latency_ms[k].end());
      load.ops[k].attempted += mine.ops[k].attempted;
      load.ops[k].failed += mine.ops[k].failed;
      for (auto& r : mine.kept[k]) load.kept[k].push_back(std::move(r));
    }
    load.failures.insert(load.failures.end(), mine.failures.begin(),
                         mine.failures.end());
  }
  return load;
}

/// One daemon lifetime under load: reset the store to the pre-warmed
/// rows, spawn, wait for the first reply (a setup sample), run the
/// schedule, read the daemon's counters, drain.
struct Lifetime {
  Load load;
  std::vector<std::uint64_t> stats;
  double peak_rss_mb = 0.0;
};

}  // namespace

RunResult run_serve(const RunConfig& config) {
  RunResult result;
  const auto problem = [&](const std::string& what) {
    result.problems.push_back(what);
  };

  util::Timer prep_timer;
  const Inputs in = prepare(config.seed, config.seconds);
  const double prep_s = prep_timer.seconds();

  Operations lifetimes;
  std::vector<double> setup_s;
  // Resets the store file to the pre-warmed rows and spawns a daemon
  // on it; the setup sample is spawn to first successful reply.
  const auto start_daemon =
      [&](Tracer* tracer) -> std::unique_ptr<Daemon> {
    std::string error;
    if (!in.warm_store->save(kStorePath, nullptr, &error)) {
      problem(error);
      return nullptr;
    }
    ++lifetimes.attempted;
    auto daemon = std::make_unique<Daemon>(config.litmusd, tracer);
    const auto ready = daemon->wait_ready(in.model_names, error);
    if (!ready) {
      ++lifetimes.failed;
      problem(error);
      return nullptr;
    }
    setup_s.push_back(*ready);
    return daemon;
  };
  const auto drain = [&](Daemon& daemon, double& peak_rss_mb) {
    if (!daemon.stop(peak_rss_mb)) {
      ++lifetimes.failed;
      problem("litmusd did not exit 0 after SIGTERM");
    }
  };

  // Setup samples from daemons that serve nothing else.
  for (int i = 0; i < kSetupSpawns && result.problems.empty(); ++i) {
    auto daemon = start_daemon(nullptr);
    double ignored = 0.0;
    if (daemon) drain(*daemon, ignored);
  }

  const auto lifetime = [&](Tracer* tracer) -> std::optional<Lifetime> {
    auto daemon = start_daemon(tracer);
    if (!daemon) return std::nullopt;
    Lifetime life;
    life.load = run_load(in, tracer);
    serve::Client client;
    std::string error;
    if (!client.connect_unix(kSocketPath, &error) ||
        !client.stats(life.stats, &error)) {
      problem("stats request failed: " + error);
    }
    drain(*daemon, life.peak_rss_mb);
    if (!(life.peak_rss_mb > 0)) {
      problem("cannot read litmusd's high-water mark");
    }
    return life;
  };

  Operations ops[kKinds];
  const auto count = [&](const Load& load) {
    for (int k = 0; k < kKinds; ++k) {
      ops[k].attempted += load.ops[k].attempted;
      ops[k].failed += load.ops[k].failed;
    }
    for (const auto& f : load.failures) problem(f);
  };

  // Identical untraced phases: store reset, fresh daemon, the whole
  // schedule.  Contention from outside only ever makes a phase worse,
  // so the run reports the better phase per metric.  A traced run
  // measures one untraced phase and one traced.
  std::vector<Lifetime> phases;
  const int untraced = config.trace ? 1 : kPhases;
  for (int i = 0; i < untraced && result.problems.empty(); ++i) {
    auto life = lifetime(nullptr);
    if (!life) break;
    count(life->load);
    phases.push_back(std::move(*life));
  }

  if (config.trace && !phases.empty() && result.problems.empty()) {
    Tracer tracer;
    CountingFs fs(store::RealFs::instance(), tracer);
    LayerMetrics& m = result.layers;

    // store: the load litmusd's setup pays, done in process.
    {
      std::string error;
      if (!in.warm_store->save(kStorePath, nullptr, &error)) problem(error);
      ScopedSpan span(&tracer, "VerdictStore::open", "store");
      util::Timer timer;
      auto opened = store::VerdictStore::open(
          kStorePath, explore::harness_store_meta(in.models), &fs);
      m.load_s = timer.seconds();
      if (opened.store->size() != in.warm.size()) {
        problem("pre-warmed store loads " +
                std::to_string(opened.store->size()) + " rows");
      }
    }

    std::optional<Lifetime> traced = lifetime(&tracer);
    if (traced) {
      count(traced->load);
      const Load& load = traced->load;
      const auto q = [&](Kind kind, double p) {
        return tail_quantile(load.latency_ms[kind], p).value;
      };
      m.probe_p50_ms = q(kProbe, 0.5);
      m.check_p50_ms = q(kCheck, 0.5);
      m.cold_p50_ms = q(kCold, 0.5);
      m.cold_p90_ms = q(kCold, 0.9);
      m.probe_p99_ms = q(kProbe, 0.99);
      m.check_p99_ms = q(kCheck, 0.99);
      m.cold_p99_ms = q(kCold, 0.99);
      m.overhead_pct = (load.wall / phases.front().load.wall - 1) * 100;

      const auto& s = traced->stats;
      if (s.size() >= serve::kStatFieldCount) {
        m.engine_runs = s[serve::kStatBatchesCoalesced];
        m.tests_per_engine_run =
            m.engine_runs > 0
                ? static_cast<double>(s[serve::kStatCheckComputed]) /
                      static_cast<double>(m.engine_runs)
                : 0.0;
        m.max_coalesced = s[serve::kStatMaxCoalesced];
        m.saves = s[serve::kStatStoreSaves];
        const auto asked = s[serve::kStatProbes] + s[serve::kStatChecks];
        m.store_hit_rate =
            asked > 0 ? static_cast<double>(s[serve::kStatProbeStoreHits] +
                                            s[serve::kStatCheckStoreHits]) /
                            static_cast<double>(asked)
                      : 0.0;
      }

      // litmus: the parser and fingerprint over the check corpora.
      std::vector<litmus::LitmusTest> parsed;
      {
        ScopedSpan span(&tracer, "parse_corpus", "litmus");
        util::Timer timer;
        for (const Item& item : in.schedule) {
          if (item.request.type != serve::MsgType::kBatchCheck) continue;
          for (auto& t : litmus::parse_corpus(item.request.text)) {
            parsed.push_back(std::move(t));
          }
        }
        m.parse_ns_per_test =
            parsed.empty()
                ? 0.0
                : timer.seconds() * 1e9 / static_cast<double>(parsed.size());
      }
      {
        ScopedSpan span(&tracer, "canonical_fingerprint", "litmus");
        litmus::KeyScratch scratch;
        std::uint64_t mix = 0;
        util::Timer timer;
        for (const auto& t : parsed) {
          mix ^= litmus::canonical_fingerprint(t, scratch).lo;
        }
        m.fingerprint_ns_per_test =
            parsed.empty()
                ? 0.0
                : timer.seconds() * 1e9 / static_cast<double>(parsed.size());
        result.detail.add("fingerprint_xor", mix);
      }

      // serve: codec round trips over the requests and kept responses.
      {
        ScopedSpan span(&tracer, "codec_round_trips", "serve");
        std::vector<std::string> payloads;
        util::Timer encode_timer;
        for (const Item& item : in.schedule) {
          payloads.push_back(serve::encode_request(item.request));
        }
        for (const auto& kept : load.kept) {
          for (const auto& r : kept) {
            payloads.push_back(serve::encode_response(r));
          }
        }
        const double encode_s = encode_timer.seconds();
        const auto frames = static_cast<double>(payloads.size());
        util::Timer decode_timer;
        bool decoded = true;
        std::size_t p = 0;
        for (; p < in.schedule.size(); ++p) {
          serve::Request request;
          decoded = serve::decode_request(payloads[p], request) && decoded;
        }
        for (; p < payloads.size(); ++p) {
          serve::Response response;
          decoded = serve::decode_response(payloads[p], response) && decoded;
        }
        const double decode_s = decode_timer.seconds();
        if (!decoded) problem("a codec round trip failed");
        m.encode_ns_per_frame = encode_s * 1e9 / frames;
        m.decode_ns_per_frame = decode_s * 1e9 / frames;
      }
    }

    std::vector<Span> spans = tracer.spans();
    nest_spans(spans);
    m.spans = spans.size();
    std::string error;
    if (!write_chrome_trace(spans, config.trace_path, &error)) problem(error);
    result.detail.add("trace_file", config.trace_path);
  }

  if (!phases.empty()) {
    const Lifetime* best = &phases.front();
    JsonObject phase_details;
    for (std::size_t i = 0; i < phases.size(); ++i) {
      const Lifetime& life = phases[i];
      const double tests_per_s = median(life.load.block_tests_per_s);
      if (tests_per_s > median(best->load.block_tests_per_s)) best = &life;
      result.end_to_end.peak_rss_mb =
          i == 0 ? life.peak_rss_mb
                 : std::min(result.end_to_end.peak_rss_mb, life.peak_rss_mb);
      const Load& load = life.load;
      phase_details.add(
          std::to_string(i + 1),
          JsonObject()
              .add("tests_per_s", tests_per_s)
              .add("block_tests_per_s", load.block_tests_per_s)
              .add("whole_load_tests_per_s",
                   load.wall > 0 ? static_cast<double>(load.rows) / load.wall
                                 : 0.0)
              .add("load_wall_s", load.wall)
              .add("rows_returned", load.rows)
              .add("peak_rss_mb", life.peak_rss_mb));
    }
    const Load& load = best->load;
    result.end_to_end.setup_s = median(setup_s);
    result.end_to_end.tests_per_s = median(load.block_tests_per_s);

    JsonObject latency;
    for (int k = 0; k < kKinds; ++k) {
      for (const double p : {0.5, 0.9, 0.99}) {
        const Quantile qt = tail_quantile(load.latency_ms[k], p);
        latency.add(std::string(kKindNames[k]) + "_p" +
                        std::to_string(std::lround(p * 100)) + "_ms",
                    JsonObject()
                        .add("value", qt.value)
                        .add("q", qt.q)
                        .add("samples", static_cast<std::uint64_t>(qt.samples))
                        .add("beyond", static_cast<std::uint64_t>(qt.beyond)));
      }
    }
    result.detail.add("latency", latency).add("phases", phase_details);
  }

  for (int k = 0; k < kKinds; ++k) {
    result.operations.emplace_back(kKindNames[k], ops[k]);
  }
  result.operations.emplace_back("lifetime", lifetimes);

  JsonObject settings;
  settings.add("litmusd_threads", 1)
      .add("clients", kClients)
      .add("warm_tests", static_cast<std::uint64_t>(in.warm.size()))
      .add("cold_tests", static_cast<std::uint64_t>(in.cold.size()))
      .add("requests", static_cast<std::uint64_t>(in.schedule.size()))
      .add("probe_batch", static_cast<std::uint64_t>(kProbeBatch))
      .add("check_batch", static_cast<std::uint64_t>(kCheckBatch))
      .add("save_every", kSaveEvery);
  result.detail.add("settings", settings)
      .add("prepare_s", prep_s)
      .add("setup_samples_s", setup_s);
  std::remove(kStorePath);
  return result;
}

}  // namespace perfbench
