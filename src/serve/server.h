// litmusd server core: an async verdict-serving tier over the
// persistent store.
//
// A Server owns one VerdictEngine, one VerdictStore, and a set of
// stream-socket listeners (Unix-domain always; loopback TCP behind a
// flag), and answers the serve/protocol.h request types:
//
//   * probe (by canonical fingerprint) — answered straight from the
//     store under its shared-read contract, engine untouched; a miss
//     is kUnknown, never computed (a fingerprint is not a test).
//   * check (litmus source) — store hit answered without the engine;
//     novel tests go through a bounded admission queue to a single
//     batcher thread, which coalesces concurrently queued tests from
//     ALL connections into one run_matrix call.  The engine writes
//     computed rows back to the store, so the store warms under live
//     traffic and the second ask is a store hit.
//
// Threading: one accept thread (poll over the listeners and a self-
// pipe), one reader thread per connection (decodes requests, serves
// store hits inline, blocks on a future for queued work, writes its
// own socket — single writer per fd), one batcher thread (the only
// engine user and the only store appender).  Store probes from reader
// threads and appends from the batcher ride the VerdictStore
// reader-writer contract with no extra locking.
//
// Shutdown: request_stop() (SIGTERM in litmusd) closes the listeners,
// lets queued work finish (novel requests arriving after the flag get
// kShuttingDown), shuts down connection reads so readers drain and
// exit, commits what changed in the store, and joins everything.
// In-flight requests are answered, never dropped.
#pragma once

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/model.h"
#include "engine/verdict_engine.h"
#include "litmus/test.h"
#include "serve/protocol.h"
#include "store/verdict_store.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace mcmc::serve {

struct ServerOptions {
  /// Unix-domain listener path; empty disables (then tcp_port must be
  /// enabled).  An existing socket file is replaced.
  std::string socket_path;
  /// Loopback TCP listener: -1 disabled, 0 ephemeral (read the bound
  /// port back via Server::tcp_port()), else the port to bind.
  int tcp_port = -1;
  /// Verdict store file; empty serves from a memory-only store (warm
  /// starts and periodic commits are then no-ops).
  std::string store_path;
  /// Serve the dependency-extended model space (90 models) or the
  /// dependency-free 36.
  bool with_deps = true;
  /// Admission bound: total tests queued for the engine across all
  /// connections; requests that would exceed it get kOverloaded.
  std::size_t max_queue_tests = 4096;
  /// Most tests one coalesced run_matrix call takes off the queue.
  std::size_t max_batch_tests = 1024;
  /// Commit the store (one delta segment) once this many rows were
  /// added or changed since the last commit (0 = only on shutdown).
  std::size_t save_every = 256;
  engine::EngineOptions engine;
};

class Server {
 public:
  explicit Server(ServerOptions options);
  ~Server();  ///< stops and joins if still running

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Opens the store, builds the model space, binds the listeners, and
  /// spawns the service threads.  False (with `error` set) on any
  /// setup failure; the server is then inert.
  [[nodiscard]] bool start(std::string* error = nullptr);

  /// Begins a graceful drain (idempotent, signal-safe is NOT required
  /// — litmusd forwards signals through a self-pipe first).
  void request_stop();

  /// Blocks until the drain completes and all threads are joined.
  void wait();

  /// The TCP port actually bound (ephemeral resolution), -1 if TCP is
  /// disabled.
  [[nodiscard]] int tcp_port() const { return bound_tcp_port_; }

  /// Served model names, in verdict-row column order.
  [[nodiscard]] const std::vector<std::string>& model_names() const {
    return model_names_;
  }

 private:
  struct Connection;

  /// One admission-queue entry: novel tests from one request, answered
  /// through the promise once the batcher has run them.
  struct WorkItem {
    std::vector<litmus::LitmusTest> tests;
    std::promise<std::vector<VerdictRowWire>> promise;
  };

  void accept_loop();
  void reader_loop(std::shared_ptr<Connection> conn);
  void batcher_loop();

  void handle_connection(int fd);
  [[nodiscard]] Response handle_request(Connection& conn,
                                        const Request& request);
  [[nodiscard]] Response handle_probe(Connection& conn,
                                      const Request& request);
  [[nodiscard]] Response handle_check(Connection& conn,
                                      const Request& request);
  [[nodiscard]] Response handle_stats(const Connection& conn,
                                      std::uint64_t id);

  /// Store lookup of one fingerprint across the served model columns.
  [[nodiscard]] bool store_row(const util::Key128& key, VerdictRowWire& row);

  /// Enqueues novel tests; false leaves `code` at the refusal reason.
  [[nodiscard]] bool enqueue(WorkItem&& item, ErrorCode& code);

  void record_latency(std::uint64_t nanos);
  [[nodiscard]] std::uint64_t latency_quantile(double q) const;
  void maybe_save(bool force);

  ServerOptions options_;
  std::vector<core::MemoryModel> models_;
  std::vector<std::string> model_names_;
  std::vector<int> store_cols_;  ///< store column per served model
  std::unique_ptr<store::VerdictStore> store_;
  std::unique_ptr<engine::VerdictEngine> engine_;

  int unix_fd_ = -1;
  int tcp_fd_ = -1;
  int bound_tcp_port_ = -1;
  int wake_pipe_[2] = {-1, -1};

  std::thread accept_thread_;
  std::thread batcher_thread_;
  util::Mutex conns_mu_;
  std::vector<std::shared_ptr<Connection>> conns_ GUARDED_BY(conns_mu_);

  util::Mutex queue_mu_;
  util::CondVar queue_cv_;  // batcher waits for work or drain
  std::vector<WorkItem> queue_ GUARDED_BY(queue_mu_);
  std::size_t queued_tests_ GUARDED_BY(queue_mu_) = 0;

  std::atomic<bool> started_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> joined_{false};

  // Global counters (StatsField); relaxed — they are diagnostics, and
  // each is owned by whichever thread does the counted thing.
  std::atomic<std::uint64_t> probes_{0};
  std::atomic<std::uint64_t> probe_store_hits_{0};
  std::atomic<std::uint64_t> probe_unknown_{0};
  std::atomic<std::uint64_t> checks_{0};
  std::atomic<std::uint64_t> check_store_hits_{0};
  std::atomic<std::uint64_t> check_computed_{0};
  std::atomic<std::uint64_t> batches_coalesced_{0};
  std::atomic<std::uint64_t> max_coalesced_{0};
  std::atomic<std::uint64_t> queue_rejected_{0};
  std::atomic<std::uint64_t> connections_opened_{0};
  std::atomic<std::uint64_t> connections_active_{0};
  std::atomic<std::uint64_t> store_saves_{0};

  /// log2-bucketed request service times (ns); quantiles are bucket
  /// midpoints, which is plenty for a p50/p99 health read.
  std::atomic<std::uint64_t> latency_buckets_[64] = {};
};

}  // namespace mcmc::serve
