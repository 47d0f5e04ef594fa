#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "explore/distinguish.h"
#include "explore/space.h"
#include "litmus/parser.h"

namespace mcmc::serve {

namespace {

/// Writes the whole buffer, riding out EINTR and partial sends;
/// MSG_NOSIGNAL turns a dead peer into an error instead of SIGPIPE.
[[nodiscard]] bool write_all(int fd, const std::string& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

[[nodiscard]] Response error_response(std::uint64_t id, ErrorCode code,
                                      std::string message) {
  Response response;
  response.type = MsgType::kError;
  response.id = id;
  response.error_code = code;
  response.error_message = std::move(message);
  return response;
}

[[nodiscard]] std::size_t row_words(std::size_t num_models) {
  return (num_models + 63) / 64;
}

/// A validity mask with the low `num_models` bits set.
[[nodiscard]] std::vector<std::uint64_t> full_valid(std::size_t num_models) {
  std::vector<std::uint64_t> words(row_words(num_models), ~0ULL);
  if (const std::size_t tail = num_models % 64; tail != 0 && !words.empty()) {
    words.back() = (1ULL << tail) - 1;
  }
  return words;
}

}  // namespace

struct Server::Connection {
  int fd = -1;
  std::thread thread;
  std::atomic<std::uint64_t> requests{0};
  std::atomic<std::uint64_t> store_rows{0};
};

Server::Server(ServerOptions options) : options_(std::move(options)) {}

Server::~Server() {
  request_stop();
  wait();
}

bool Server::start(std::string* error) {
  const auto fail = [&](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };
  if (options_.socket_path.empty() && options_.tcp_port < 0) {
    return fail("no listener configured (socket_path empty, tcp disabled)");
  }
  if (options_.max_batch_tests == 0 || options_.max_queue_tests == 0) {
    return fail("max_batch_tests and max_queue_tests must be positive");
  }

  for (const auto& choices : explore::model_space(options_.with_deps)) {
    models_.push_back(choices.to_model());
    model_names_.push_back(choices.name());
  }

  // The store meta matches the Theorem-1 harness layout, so a store
  // warmed by a nightly exhaustive run is directly servable here.
  const store::StoreMeta meta = explore::harness_store_meta(models_);
  if (options_.store_path.empty()) {
    store_ = std::make_unique<store::VerdictStore>(meta);
  } else {
    auto opened = store::VerdictStore::open(options_.store_path, meta);
    store_ = std::move(opened.store);
  }
  for (const auto& model : models_) {
    const int col = store_->column_of(store::model_store_key(model));
    if (col < 0) return fail("served model has no store column");
    store_cols_.push_back(col);
  }

  // The store holds canonical fingerprints exclusively, so serving
  // through it requires canonical dedup whatever the caller asked.
  engine::EngineOptions engine_options = options_.engine;
  engine_options.canonical_dedup = true;
  engine_ = std::make_unique<engine::VerdictEngine>(engine_options);
  engine_->set_store(store_.get());

  if (!options_.socket_path.empty()) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (options_.socket_path.size() >= sizeof(addr.sun_path)) {
      return fail("socket path too long");
    }
    std::strncpy(addr.sun_path, options_.socket_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    unix_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (unix_fd_ < 0) return fail("socket(AF_UNIX) failed");
    ::unlink(options_.socket_path.c_str());
    if (::bind(unix_fd_, reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(unix_fd_, 64) != 0) {
      ::close(unix_fd_);
      unix_fd_ = -1;
      return fail("bind/listen on " + options_.socket_path + " failed: " +
                  std::strerror(errno));
    }
  }
  if (options_.tcp_port >= 0) {
    tcp_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (tcp_fd_ < 0) return fail("socket(AF_INET) failed");
    const int one = 1;
    ::setsockopt(tcp_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(options_.tcp_port));
    if (::bind(tcp_fd_, reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(tcp_fd_, 64) != 0) {
      ::close(tcp_fd_);
      tcp_fd_ = -1;
      return fail(std::string("tcp bind/listen failed: ") +
                  std::strerror(errno));
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(tcp_fd_, reinterpret_cast<sockaddr*>(&bound), &len) ==
        0) {
      bound_tcp_port_ = ntohs(bound.sin_port);
    }
  }
  if (::pipe(wake_pipe_) != 0) return fail("pipe() failed");

  started_.store(true);
  accept_thread_ = std::thread([this] { accept_loop(); });
  batcher_thread_ = std::thread([this] { batcher_loop(); });
  return true;
}

void Server::request_stop() {
  if (!started_.load()) return;
  {
    util::MutexLock lock(queue_mu_);
    if (draining_.load()) return;
    draining_.store(true);
  }
  queue_cv_.notify_all();
  const char byte = 1;
  (void)!::write(wake_pipe_[1], &byte, 1);
}

void Server::wait() {
  if (!started_.load() || joined_.exchange(true)) return;
  if (accept_thread_.joinable()) accept_thread_.join();
  // Join readers WITHOUT holding conns_mu_ — their exit path closes
  // the fd under that lock.  The accept thread is gone, so the list
  // this copy sees is complete.
  std::vector<std::shared_ptr<Connection>> conns;
  {
    util::MutexLock lock(conns_mu_);
    conns = conns_;
  }
  for (auto& conn : conns) {
    if (conn->thread.joinable()) conn->thread.join();
  }
  if (batcher_thread_.joinable()) batcher_thread_.join();
  maybe_save(/*force=*/true);
  if (unix_fd_ >= 0) ::close(unix_fd_);
  if (tcp_fd_ >= 0) ::close(tcp_fd_);
  if (!options_.socket_path.empty()) ::unlink(options_.socket_path.c_str());
  for (int fd : wake_pipe_) {
    if (fd >= 0) ::close(fd);
  }
}

void Server::accept_loop() {
  while (!draining_.load()) {
    pollfd fds[3];
    nfds_t n = 0;
    fds[n++] = {wake_pipe_[0], POLLIN, 0};
    if (unix_fd_ >= 0) fds[n++] = {unix_fd_, POLLIN, 0};
    if (tcp_fd_ >= 0) fds[n++] = {tcp_fd_, POLLIN, 0};
    if (::poll(fds, n, -1) < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if ((fds[0].revents & POLLIN) != 0) break;  // drain requested
    for (nfds_t i = 1; i < n; ++i) {
      if ((fds[i].revents & POLLIN) == 0) continue;
      const int fd = ::accept(fds[i].fd, nullptr, nullptr);
      if (fd < 0) continue;
      handle_connection(fd);
    }
  }
  // Drain: readers see EOF after their in-flight request; their fds
  // stay valid (and owned by them) until they close.
  util::MutexLock lock(conns_mu_);
  for (auto& conn : conns_) {
    if (conn->fd >= 0) ::shutdown(conn->fd, SHUT_RD);
  }
}

void Server::handle_connection(int fd) {
  auto conn = std::make_shared<Connection>();
  conn->fd = fd;
  connections_opened_.fetch_add(1, std::memory_order_relaxed);
  connections_active_.fetch_add(1, std::memory_order_relaxed);
  util::MutexLock lock(conns_mu_);
  conns_.push_back(conn);
  conn->thread = std::thread([this, conn] { reader_loop(conn); });
}

void Server::reader_loop(std::shared_ptr<Connection> conn) {
  std::string buffer;
  std::string payload;
  char chunk[4096];
  bool alive = true;
  while (alive) {
    const ssize_t n = ::read(conn->fd, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t consumed = 0;
    FrameStatus status;
    while ((status = extract_frame(buffer, consumed, payload)) ==
           FrameStatus::kFrame) {
      buffer.erase(0, consumed);
      const auto t0 = std::chrono::steady_clock::now();
      Request request;
      std::uint32_t version = 0;
      Response response;
      if (!decode_request(payload, request, &version)) {
        // A frame that parsed as a frame but not as a request keeps
        // the stream in sync, so answer and carry on.
        response = error_response(
            0, version != kProtocolVersion ? ErrorCode::kBadVersion
                                           : ErrorCode::kMalformed,
            version != kProtocolVersion ? "unsupported protocol version"
                                        : "undecodable request payload");
      } else {
        conn->requests.fetch_add(1, std::memory_order_relaxed);
        try {
          response = handle_request(*conn, request);
        } catch (const std::exception& e) {
          response =
              error_response(request.id, ErrorCode::kInternal, e.what());
        }
      }
      std::string out;
      append_frame(out, encode_response(response));
      const auto t1 = std::chrono::steady_clock::now();
      record_latency(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
              .count()));
      if (!write_all(conn->fd, out)) {
        alive = false;
        break;
      }
    }
    if (status == FrameStatus::kBad) {
      // Bytes that are not a frame leave no way to resynchronize;
      // tell the peer (best effort) and drop the link.
      std::string out;
      append_frame(out, encode_response(error_response(
                            0, ErrorCode::kMalformed, "bad frame")));
      (void)write_all(conn->fd, out);
      break;
    }
  }
  {
    // The drain path shutdowns fds under the same lock, so it can
    // never touch a closed (possibly reused) descriptor.
    util::MutexLock lock(conns_mu_);
    ::close(conn->fd);
    conn->fd = -1;
  }
  connections_active_.fetch_sub(1, std::memory_order_relaxed);
}

Response Server::handle_request(Connection& conn, const Request& request) {
  switch (request.type) {
    case MsgType::kProbe:
    case MsgType::kBatchProbe:
      return handle_probe(conn, request);
    case MsgType::kCheck:
    case MsgType::kBatchCheck:
      return handle_check(conn, request);
    case MsgType::kStats:
      return handle_stats(conn, request.id);
    case MsgType::kModels: {
      Response response;
      response.type = MsgType::kModelsReply;
      response.id = request.id;
      response.model_names = model_names_;
      return response;
    }
    default:
      return error_response(request.id, ErrorCode::kBadRequest,
                            "not a request type");
  }
}

bool Server::store_row(const util::Key128& key, VerdictRowWire& row) {
  row.num_models = static_cast<std::uint32_t>(models_.size());
  std::vector<std::uint64_t> bits;
  if (!store_->probe_row(key, store_cols_, bits)) {
    row.source = VerdictSource::kUnknown;
    row.valid.assign(row_words(models_.size()), 0);
    row.bits.assign(row_words(models_.size()), 0);
    return false;
  }
  row.source = VerdictSource::kStore;
  row.valid = full_valid(models_.size());
  row.bits = std::move(bits);
  return true;
}

Response Server::handle_probe(Connection& conn, const Request& request) {
  const std::vector<util::Key128> single{request.key};
  const auto& keys =
      request.type == MsgType::kProbe ? single : request.keys;
  Response response;
  response.id = request.id;
  std::uint64_t hits = 0;
  std::vector<VerdictRowWire> rows(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (store_row(keys[i], rows[i])) ++hits;
  }
  probes_.fetch_add(keys.size(), std::memory_order_relaxed);
  probe_store_hits_.fetch_add(hits, std::memory_order_relaxed);
  probe_unknown_.fetch_add(keys.size() - hits, std::memory_order_relaxed);
  conn.store_rows.fetch_add(hits, std::memory_order_relaxed);
  if (request.type == MsgType::kProbe) {
    response.type = MsgType::kVerdictRow;
    response.row = std::move(rows.front());
  } else {
    response.type = MsgType::kVerdictRows;
    response.rows = std::move(rows);
  }
  return response;
}

Response Server::handle_check(Connection& conn, const Request& request) {
  std::vector<litmus::LitmusTest> tests;
  try {
    if (request.type == MsgType::kCheck) {
      tests.push_back(litmus::parse_test(request.text));
    } else {
      tests = litmus::parse_corpus(request.text);
    }
  } catch (const std::invalid_argument& e) {
    return error_response(request.id, ErrorCode::kBadRequest, e.what());
  }

  checks_.fetch_add(tests.size(), std::memory_order_relaxed);
  std::vector<VerdictRowWire> rows(tests.size());
  litmus::KeyScratch scratch;
  WorkItem item;
  std::vector<std::size_t> miss_at;
  std::uint64_t hits = 0;
  for (std::size_t i = 0; i < tests.size(); ++i) {
    const util::Key128 key = litmus::canonical_fingerprint(tests[i], scratch);
    if (store_row(key, rows[i])) {
      ++hits;
    } else {
      miss_at.push_back(i);
      item.tests.push_back(tests[i]);
    }
  }
  check_store_hits_.fetch_add(hits, std::memory_order_relaxed);
  conn.store_rows.fetch_add(hits, std::memory_order_relaxed);

  if (!item.tests.empty()) {
    auto future = item.promise.get_future();
    const std::size_t queued = item.tests.size();
    ErrorCode code = ErrorCode::kInternal;
    if (!enqueue(std::move(item), code)) {
      return error_response(request.id, code,
                            code == ErrorCode::kOverloaded
                                ? "admission queue full"
                                : "server draining");
    }
    std::vector<VerdictRowWire> computed = future.get();
    check_computed_.fetch_add(queued, std::memory_order_relaxed);
    for (std::size_t j = 0; j < miss_at.size(); ++j) {
      rows[miss_at[j]] = std::move(computed[j]);
    }
  }

  Response response;
  response.id = request.id;
  if (request.type == MsgType::kCheck) {
    response.type = MsgType::kVerdictRow;
    response.row = std::move(rows.front());
  } else {
    response.type = MsgType::kVerdictRows;
    response.rows = std::move(rows);
  }
  return response;
}

Response Server::handle_stats(const Connection& conn, std::uint64_t id) {
  Response response;
  response.type = MsgType::kStatsReply;
  response.id = id;
  auto& s = response.stats;
  s.resize(kStatFieldCount, 0);
  const auto relaxed = [](const std::atomic<std::uint64_t>& v) {
    return v.load(std::memory_order_relaxed);
  };
  s[kStatProbes] = relaxed(probes_);
  s[kStatProbeStoreHits] = relaxed(probe_store_hits_);
  s[kStatProbeUnknown] = relaxed(probe_unknown_);
  s[kStatChecks] = relaxed(checks_);
  s[kStatCheckStoreHits] = relaxed(check_store_hits_);
  s[kStatCheckComputed] = relaxed(check_computed_);
  s[kStatBatchesCoalesced] = relaxed(batches_coalesced_);
  s[kStatMaxCoalesced] = relaxed(max_coalesced_);
  {
    util::MutexLock lock(queue_mu_);
    s[kStatQueueDepth] = queued_tests_;
  }
  s[kStatQueueRejected] = relaxed(queue_rejected_);
  s[kStatConnectionsOpened] = relaxed(connections_opened_);
  s[kStatConnectionsActive] = relaxed(connections_active_);
  s[kStatLatencyP50Ns] = latency_quantile(0.50);
  s[kStatLatencyP99Ns] = latency_quantile(0.99);
  s[kStatStoreEntries] = store_->size();
  s[kStatStoreSaves] = relaxed(store_saves_);
  s[kStatClientRequests] = conn.requests.load(std::memory_order_relaxed);
  s[kStatClientStoreHits] = conn.store_rows.load(std::memory_order_relaxed);
  return response;
}

bool Server::enqueue(WorkItem&& item, ErrorCode& code) {
  {
    util::MutexLock lock(queue_mu_);
    if (draining_.load()) {
      code = ErrorCode::kShuttingDown;
      return false;
    }
    if (queued_tests_ + item.tests.size() > options_.max_queue_tests) {
      code = ErrorCode::kOverloaded;
      queue_rejected_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    queued_tests_ += item.tests.size();
    queue_.push_back(std::move(item));
  }
  queue_cv_.notify_one();
  return true;
}

void Server::batcher_loop() {
  for (;;) {
    std::vector<WorkItem> batch;
    std::size_t batch_tests = 0;
    {
      util::MutexLock lock(queue_mu_);
      while (queue_.empty() && !draining_.load()) queue_cv_.wait(queue_mu_);
      if (queue_.empty() && draining_.load()) return;
      // Coalesce: take queued items (novel tests from ANY connection)
      // into one engine run, up to the batch bound — but always at
      // least one item, or an oversized single request would starve.
      std::size_t taken = 0;
      while (taken < queue_.size() &&
             (taken == 0 ||
              batch_tests + queue_[taken].tests.size() <=
                  options_.max_batch_tests)) {
        batch_tests += queue_[taken].tests.size();
        ++taken;
      }
      batch.insert(batch.end(), std::make_move_iterator(queue_.begin()),
                   std::make_move_iterator(queue_.begin() +
                                           static_cast<std::ptrdiff_t>(taken)));
      queue_.erase(queue_.begin(),
                   queue_.begin() + static_cast<std::ptrdiff_t>(taken));
      queued_tests_ -= batch_tests;
    }

    std::vector<litmus::LitmusTest> tests;
    tests.reserve(batch_tests);
    for (const auto& item : batch) {
      tests.insert(tests.end(), item.tests.begin(), item.tests.end());
    }
    batches_coalesced_.fetch_add(1, std::memory_order_relaxed);
    std::uint64_t prev = max_coalesced_.load(std::memory_order_relaxed);
    while (prev < batch_tests &&
           !max_coalesced_.compare_exchange_weak(prev, batch_tests,
                                                 std::memory_order_relaxed)) {
    }

    try {
      // One run over the coalesced tests; the engine probes the store
      // for anything another batch computed meanwhile and writes the
      // rows it computed back (store-served cells dirty nothing), which
      // is what warms the store under live traffic.
      const engine::BitMatrix verdicts = engine_->run_matrix(models_, tests);
      std::size_t offset = 0;
      for (auto& item : batch) {
        std::vector<VerdictRowWire> rows(item.tests.size());
        for (std::size_t j = 0; j < item.tests.size(); ++j) {
          auto& row = rows[j];
          row.source = VerdictSource::kComputed;
          row.num_models = static_cast<std::uint32_t>(models_.size());
          row.valid = full_valid(models_.size());
          row.bits.assign(row_words(models_.size()), 0);
          for (std::size_t m = 0; m < models_.size(); ++m) {
            if (verdicts.get(static_cast<int>(m),
                             static_cast<int>(offset + j))) {
              row.bits[m / 64] |= 1ULL << (m % 64);
            }
          }
        }
        offset += item.tests.size();
        item.promise.set_value(std::move(rows));
      }
    } catch (...) {
      for (auto& item : batch) {
        item.promise.set_exception(std::current_exception());
      }
    }
    maybe_save(/*force=*/false);
  }
}

void Server::maybe_save(bool force) {
  if (options_.store_path.empty()) return;
  // Count dirty rows: a check that fills the missing columns of a row
  // that already exists (an extremes-only row from the Theorem-1
  // harness) grows nothing, yet must reach disk too.
  const std::size_t dirty = store_->dirty_rows();
  if (dirty == 0) return;
  if (!force && (options_.save_every == 0 || dirty < options_.save_every)) {
    return;
  }
  if (store_->commit(options_.store_path)) {
    store_saves_.fetch_add(1, std::memory_order_relaxed);
  }
}

void Server::record_latency(std::uint64_t nanos) {
  int bucket = 0;
  for (std::uint64_t v = nanos; v > 1; v >>= 1) ++bucket;
  latency_buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t Server::latency_quantile(double q) const {
  std::uint64_t total = 0;
  for (const auto& bucket : latency_buckets_) {
    total += bucket.load(std::memory_order_relaxed);
  }
  if (total == 0) return 0;
  const auto target =
      static_cast<std::uint64_t>(q * static_cast<double>(total));
  std::uint64_t seen = 0;
  for (int i = 0; i < 64; ++i) {
    seen += latency_buckets_[i].load(std::memory_order_relaxed);
    if (seen > target) {
      // Bucket i holds [2^i, 2^(i+1)); report the midpoint.
      return (1ULL << i) + (i < 63 ? (1ULL << i) / 2 : 0);
    }
  }
  return 0;
}

}  // namespace mcmc::serve
