// End-to-end tests of the litmusd serving tier: each test spawns the
// real daemon binary (LITMUSD_PATH, injected by CMake) on a private
// socket and store, drives it through the real client, and kills it
// with the real signal.  Covered: cold check computes while the warm
// repeat is served from the store without the engine (asserted via the
// served-from-store stats), concurrent clients get bit-for-bit
// identical verdicts, clients checking distinct corpora at once each
// get an in-process engine's verdicts, stored under their own tests'
// fingerprints, SIGTERM drains to a clean exit, a store
// persisted by one daemon lifetime answers the next, a corrupted store
// file degrades to recomputation with identical verdicts (the PR-7
// quarantine path, end to end), garbage bytes on the socket never
// take the server down, a test over the event bound is refused before
// it reaches the engine, verdicts filled into a row that already
// existed are committed periodically, surviving a SIGKILL, a batch
// probe serves a row only when it holds every served column, and a
// start that fails after binding its socket leaves no socket file.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "engine/verdict_engine.h"
#include "enumeration/exhaustive.h"
#include "explore/distinguish.h"
#include "explore/space.h"
#include "litmus/parser.h"
#include "litmus/test.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "store/verdict_store.h"
#include "store_cells.h"

namespace mcmc::serve {
namespace {

constexpr const char* kSbTest =
    "name: SB\n"
    "thread:\n"
    "  Write X <- 1\n"
    "  Read Y -> r0\n"
    "thread:\n"
    "  Write Y <- 1\n"
    "  Read X -> r1\n"
    "outcome: r0=0 r1=0\n";

/// A small deterministic slice of the exhaustive 2-access space,
/// serialized as a corpus the daemon parses back.
[[nodiscard]] std::vector<litmus::LitmusTest> slice_tests(int count) {
  enumeration::ExhaustiveOptions options;
  options.bounds.num_locations = 1;
  options.bounds.max_accesses_per_thread = 2;
  options.chunk_size = count;
  enumeration::ExhaustiveStream stream(options);
  std::vector<litmus::LitmusTest> tests;
  (void)stream.next_chunk(tests);
  EXPECT_EQ(tests.size(), static_cast<std::size_t>(count));
  return tests;
}

class ServeE2E : public ::testing::Test {
 protected:
  void SetUp() override {
    char dir_template[] = "/tmp/serve_e2e_XXXXXX";
    ASSERT_NE(::mkdtemp(dir_template), nullptr);
    dir_ = dir_template;
    socket_path_ = dir_ + "/litmusd.sock";
    store_path_ = dir_ + "/verdicts.bin";
  }

  void TearDown() override {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      int status = 0;
      ::waitpid(pid_, &status, 0);
      pid_ = -1;
    }
    ::unlink(socket_path_.c_str());
    for (int i = 0; i <= 16; ++i) {
      const std::string file =
          i == 0 ? store_path_ : store_path_ + "." + std::to_string(i);
      ::unlink(file.c_str());
      ::unlink((file + ".corrupt").c_str());
    }
    ::rmdir(dir_.c_str());
  }

  /// Spawns litmusd and waits until its socket accepts a connection.
  void spawn() {
    pid_ = ::fork();
    ASSERT_GE(pid_, 0);
    if (pid_ == 0) {
      const char* argv[] = {LITMUSD_PATH, "--socket", socket_path_.c_str(),
                            "--store",    store_path_.c_str(),
                            "--save-every", "1",      nullptr};
      ::execv(LITMUSD_PATH, const_cast<char**>(argv));
      ::_exit(127);
    }
    for (int attempt = 0; attempt < 300; ++attempt) {
      Client probe_client;
      if (probe_client.connect_unix(socket_path_)) return;
      // A child that died (bad binary path, bind failure) never
      // serves; fail fast instead of burning the full retry budget.
      int status = 0;
      ASSERT_EQ(::waitpid(pid_, &status, WNOHANG), 0) << "litmusd exited";
      ::usleep(100 * 1000);
    }
    FAIL() << "litmusd never came up on " << socket_path_;
  }

  /// SIGTERM drain; asserts the daemon exits 0 (clean shutdown).
  void terminate_cleanly() {
    ASSERT_GT(pid_, 0);
    ASSERT_EQ(::kill(pid_, SIGTERM), 0);
    int status = 0;
    ASSERT_EQ(::waitpid(pid_, &status, 0), pid_);
    pid_ = -1;
    ASSERT_TRUE(WIFEXITED(status)) << "litmusd did not exit";
    EXPECT_EQ(WEXITSTATUS(status), 0) << "drain was not clean";
  }

  [[nodiscard]] Client connect() {
    Client client;
    std::string error;
    EXPECT_TRUE(client.connect_unix(socket_path_, &error)) << error;
    return client;
  }

  std::string dir_;
  std::string socket_path_;
  std::string store_path_;
  pid_t pid_ = -1;
};

TEST_F(ServeE2E, ColdCheckComputesWarmCheckAndProbeHitStore) {
  spawn();
  Client client = connect();
  std::string error;

  VerdictRowWire cold;
  ASSERT_TRUE(client.check(kSbTest, cold, &error)) << error;
  EXPECT_EQ(cold.source, VerdictSource::kComputed);
  EXPECT_EQ(cold.num_models, 90u);

  VerdictRowWire warm;
  ASSERT_TRUE(client.check(kSbTest, warm, &error)) << error;
  EXPECT_EQ(warm.source, VerdictSource::kStore);
  EXPECT_EQ(warm.valid, cold.valid);
  EXPECT_EQ(warm.bits, cold.bits);

  // The store speaks canonical fingerprints, so a probe computed
  // client-side finds the row the check persisted.
  litmus::KeyScratch scratch;
  const util::Key128 key =
      litmus::canonical_fingerprint(litmus::parse_test(kSbTest), scratch);
  VerdictRowWire probed;
  ASSERT_TRUE(client.probe(key, probed, &error)) << error;
  EXPECT_EQ(probed.source, VerdictSource::kStore);
  EXPECT_EQ(probed.bits, cold.bits);

  // The serving claim, in the server's own accounting: exactly one
  // engine pass; the warm check and the probe were store-served.
  std::vector<std::uint64_t> stats;
  ASSERT_TRUE(client.stats(stats, &error)) << error;
  ASSERT_EQ(stats.size(), static_cast<std::size_t>(kStatFieldCount));
  EXPECT_EQ(stats[kStatChecks], 2u);
  EXPECT_EQ(stats[kStatCheckComputed], 1u);
  EXPECT_EQ(stats[kStatCheckStoreHits], 1u);
  EXPECT_EQ(stats[kStatProbes], 1u);
  EXPECT_EQ(stats[kStatProbeStoreHits], 1u);
  EXPECT_EQ(stats[kStatStoreEntries], 1u);
  EXPECT_EQ(stats[kStatClientRequests], 4u);

  // The batcher commits after answering, so the save is only
  // eventually visible — poll briefly.
  for (int attempt = 0; attempt < 100 && stats[kStatStoreSaves] == 0;
       ++attempt) {
    ::usleep(20 * 1000);
    ASSERT_TRUE(client.stats(stats, &error)) << error;
  }
  EXPECT_GE(stats[kStatStoreSaves], 1u);

  terminate_cleanly();
}

TEST_F(ServeE2E, InPlaceVerdictsAreCommittedAndSurviveSigkill) {
  // A store warmed by the Theorem-1 harness holds only the two extremes
  // columns for most classes.  A check fills the other 90 columns into
  // that existing row — the store does not grow — and with
  // --save-every 1 that must still be committed before the next
  // request, not only at the SIGTERM drain a SIGKILL never reaches.
  std::vector<core::MemoryModel> models;
  for (const auto& choices : explore::model_space(true)) {
    models.push_back(choices.to_model());
  }
  const store::StoreMeta meta = explore::harness_store_meta(models);
  litmus::KeyScratch scratch;
  const util::Key128 key =
      litmus::canonical_fingerprint(litmus::parse_test(kSbTest), scratch);
  {
    store::VerdictStore warm(meta);
    set_cell(warm, key, 0, true);   // F = false allows SB
    set_cell(warm, key, 1, false);  // F = true forbids it
    ASSERT_TRUE(warm.save(store_path_));
  }

  spawn();
  Client client = connect();
  std::string error;
  VerdictRowWire row;
  ASSERT_TRUE(client.check(kSbTest, row, &error)) << error;
  EXPECT_EQ(row.source, VerdictSource::kComputed);
  std::vector<std::uint64_t> stats;
  ASSERT_TRUE(client.stats(stats, &error)) << error;
  EXPECT_EQ(stats[kStatStoreEntries], 1u);  // filled in place
  for (int attempt = 0; attempt < 100 && stats[kStatStoreSaves] == 0;
       ++attempt) {
    ::usleep(20 * 1000);
    ASSERT_TRUE(client.stats(stats, &error)) << error;
  }
  EXPECT_GE(stats[kStatStoreSaves], 1u);

  ASSERT_EQ(::kill(pid_, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(pid_, &status, 0), pid_);
  pid_ = -1;

  auto opened = store::VerdictStore::open(store_path_, meta);
  ASSERT_EQ(opened.outcome, store::OpenOutcome::Loaded) << opened.detail;
  ASSERT_EQ(opened.store->size(), 1u);
  for (int col = 0; col < meta.num_models(); ++col) {
    EXPECT_TRUE(probe_cell(*opened.store, key, col).has_value()) << col;
  }
}

TEST_F(ServeE2E, FailedTcpBindLeavesNoSocketBehind) {
  // Another listener holds a loopback port; litmusd binds its Unix
  // socket first, then fails on the port, and must exit 1 without
  // leaving the socket file, which a caller would take for a ready
  // daemon.
  const int held = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(held, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::bind(held, reinterpret_cast<const sockaddr*>(&addr), len), 0);
  ASSERT_EQ(::listen(held, 1), 0);
  ASSERT_EQ(::getsockname(held, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  const std::string port = std::to_string(ntohs(addr.sin_port));

  pid_ = ::fork();
  ASSERT_GE(pid_, 0);
  if (pid_ == 0) {
    const char* argv[] = {LITMUSD_PATH, "--socket", socket_path_.c_str(),
                          "--tcp",      port.c_str(), nullptr};
    ::execv(LITMUSD_PATH, const_cast<char**>(argv));
    ::_exit(127);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid_, &status, 0), pid_);
  pid_ = -1;
  ::close(held);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 1);
  EXPECT_NE(::access(socket_path_.c_str(), F_OK), 0)
      << "the failed start left " << socket_path_;
}

TEST_F(ServeE2E, UnknownFingerprintProbeNeverComputes) {
  spawn();
  Client client = connect();
  std::string error;
  VerdictRowWire row;
  ASSERT_TRUE(client.probe({0x1234, 0x5678}, row, &error)) << error;
  EXPECT_EQ(row.source, VerdictSource::kUnknown);
  for (std::uint64_t word : row.valid) EXPECT_EQ(word, 0u);

  std::vector<std::uint64_t> stats;
  ASSERT_TRUE(client.stats(stats, &error)) << error;
  EXPECT_EQ(stats[kStatProbeUnknown], 1u);
  EXPECT_EQ(stats[kStatCheckComputed], 0u);
  EXPECT_EQ(stats[kStatBatchesCoalesced], 0u);
  terminate_cleanly();
}

TEST_F(ServeE2E, BatchProbeServesOnlyRowsHoldingEveryServedColumn) {
  // One batch probe over three stored states: a row holding every
  // served column, a row holding only the two extremes columns (what
  // the Theorem-1 harness writes for most classes), and no row.  Only
  // the first is served; the partial row is as unknown as the absent
  // one, and neither leaks a column.
  std::vector<core::MemoryModel> models;
  for (const auto& choices : explore::model_space(true)) {
    models.push_back(choices.to_model());
  }
  const auto sb = litmus::parse_test(kSbTest);
  const auto partial = slice_tests(1).front();
  litmus::KeyScratch scratch;
  const util::Key128 full_key = litmus::canonical_fingerprint(sb, scratch);
  const util::Key128 partial_key =
      litmus::canonical_fingerprint(partial, scratch);
  ASSERT_NE(full_key, partial_key);
  engine::EngineOptions oracle_options;
  oracle_options.cache_enabled = false;
  engine::VerdictEngine oracle(oracle_options);
  const engine::BitMatrix want = oracle.run_matrix(models, {sb});
  std::vector<std::uint64_t> want_valid((models.size() + 63) / 64, 0);
  std::vector<std::uint64_t> want_bits(want_valid.size(), 0);
  {
    store::VerdictStore warm(explore::harness_store_meta(models));
    for (std::size_t m = 0; m < models.size(); ++m) {
      const bool allowed = want.get(static_cast<int>(m), 0);
      want_valid[m / 64] |= 1ULL << (m % 64);
      if (allowed) want_bits[m / 64] |= 1ULL << (m % 64);
      set_cell(warm, full_key,
               warm.column_of(store::model_store_key(models[m])), allowed);
    }
    set_cell(warm, partial_key, 0, true);
    set_cell(warm, partial_key, 1, false);
    ASSERT_TRUE(warm.save(store_path_));
  }

  spawn();
  Client client = connect();
  std::string error;
  Request request;
  request.type = MsgType::kBatchProbe;
  request.keys = {full_key, partial_key, {0x1234, 0x5678}};
  Response response;
  ASSERT_TRUE(client.call(request, response, &error)) << error;
  ASSERT_EQ(response.type, MsgType::kVerdictRows);
  ASSERT_EQ(response.rows.size(), 3u);
  EXPECT_EQ(response.rows[0].source, VerdictSource::kStore);
  EXPECT_EQ(response.rows[0].valid, want_valid);
  EXPECT_EQ(response.rows[0].bits, want_bits);
  for (std::size_t i = 1; i < 3; ++i) {
    EXPECT_EQ(response.rows[i].source, VerdictSource::kUnknown) << i;
    for (std::uint64_t word : response.rows[i].valid) EXPECT_EQ(word, 0u) << i;
    for (std::uint64_t word : response.rows[i].bits) EXPECT_EQ(word, 0u) << i;
  }

  std::vector<std::uint64_t> stats;
  ASSERT_TRUE(client.stats(stats, &error)) << error;
  EXPECT_EQ(stats[kStatProbes], 3u);
  EXPECT_EQ(stats[kStatProbeStoreHits], 1u);
  EXPECT_EQ(stats[kStatProbeUnknown], 2u);
  EXPECT_EQ(stats[kStatBatchesCoalesced], 0u);
  terminate_cleanly();
}

TEST_F(ServeE2E, ConcurrentClientsGetIdenticalVerdicts) {
  spawn();
  const std::string corpus = litmus::write_corpus(slice_tests(24));

  constexpr int kClients = 4;
  std::vector<std::vector<VerdictRowWire>> results(kClients);
  std::vector<std::string> errors(kClients);
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      Client client;
      if (!client.connect_unix(socket_path_, &errors[i])) return;
      (void)client.batch_check(corpus, results[i], &errors[i]);
    });
  }
  for (auto& thread : threads) thread.join();

  ASSERT_FALSE(results[0].empty()) << errors[0];
  for (int i = 1; i < kClients; ++i) {
    ASSERT_EQ(results[i].size(), results[0].size()) << errors[i];
    for (std::size_t t = 0; t < results[0].size(); ++t) {
      // Sources may differ (one client computed, another hit what it
      // stored) but the verdict bits must be bit-for-bit identical.
      EXPECT_EQ(results[i][t].valid, results[0][t].valid);
      EXPECT_EQ(results[i][t].bits, results[0][t].bits);
    }
  }

  // And a warm follow-up serves the whole slice from the store.
  Client client = connect();
  std::string error;
  std::vector<VerdictRowWire> warm;
  ASSERT_TRUE(client.batch_check(corpus, warm, &error)) << error;
  for (std::size_t t = 0; t < warm.size(); ++t) {
    EXPECT_EQ(warm[t].source, VerdictSource::kStore);
    EXPECT_EQ(warm[t].bits, results[0][t].bits);
  }
  terminate_cleanly();
}

TEST_F(ServeE2E, CoalescedDistinctCorporaKeepTheirKeys) {
  // Each client sends a corpus of its own, so a batch that coalesces
  // several requests must keep every test's fingerprint beside the test
  // across the requests it joins: a misaligned key would answer one
  // client with another's row, or store a row under the wrong class.
  constexpr int kClients = 4;
  constexpr int kPerClient = 24;
  const std::vector<litmus::LitmusTest> all =
      slice_tests(kClients * kPerClient);
  std::vector<std::string> corpora;
  for (int i = 0; i < kClients; ++i) {
    const auto begin =
        all.begin() + static_cast<std::ptrdiff_t>(i) * kPerClient;
    corpora.push_back(litmus::write_corpus(
        std::vector<litmus::LitmusTest>(begin, begin + kPerClient)));
  }
  spawn();

  std::vector<std::vector<VerdictRowWire>> results(kClients);
  std::vector<std::string> errors(kClients);
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      Client client;
      if (!client.connect_unix(socket_path_, &errors[i])) return;
      (void)client.batch_check(corpora[static_cast<std::size_t>(i)],
                               results[static_cast<std::size_t>(i)],
                               &errors[i]);
    });
  }
  for (auto& thread : threads) thread.join();

  std::vector<core::MemoryModel> models;
  for (const auto& choices : explore::model_space(true)) {
    models.push_back(choices.to_model());
  }
  // The oracle decides every cell on its own (the cache off), so it
  // shares no row code with the daemon's run_rows.
  engine::EngineOptions oracle_options;
  oracle_options.cache_enabled = false;
  engine::VerdictEngine eng(oracle_options);
  Client client = connect();
  std::string error;
  litmus::KeyScratch scratch;
  for (int i = 0; i < kClients; ++i) {
    const auto& rows = results[static_cast<std::size_t>(i)];
    const auto tests =
        litmus::parse_corpus(corpora[static_cast<std::size_t>(i)]);
    ASSERT_EQ(rows.size(), tests.size()) << errors[static_cast<std::size_t>(i)];
    const engine::BitMatrix want = eng.run_matrix(models, tests);
    for (std::size_t t = 0; t < tests.size(); ++t) {
      std::vector<std::uint64_t> bits((models.size() + 63) / 64, 0);
      for (std::size_t m = 0; m < models.size(); ++m) {
        if (want.get(static_cast<int>(m), static_cast<int>(t))) {
          bits[m / 64] |= 1ULL << (m % 64);
        }
      }
      EXPECT_EQ(rows[t].bits, bits) << "client " << i << ", test " << t;
      // The row landed under the test's own class.
      VerdictRowWire probed;
      ASSERT_TRUE(client.probe(
          litmus::canonical_fingerprint(tests[t], scratch), probed, &error))
          << error;
      EXPECT_EQ(probed.source, VerdictSource::kStore)
          << "client " << i << ", test " << t;
      EXPECT_EQ(probed.bits, bits) << "client " << i << ", test " << t;
    }
  }
  terminate_cleanly();
}

TEST_F(ServeE2E, RestartServesPersistedVerdictsWithoutEngine) {
  const std::string corpus = litmus::write_corpus(slice_tests(16));
  spawn();
  std::vector<VerdictRowWire> first;
  {
    Client client = connect();
    std::string error;
    ASSERT_TRUE(client.batch_check(corpus, first, &error)) << error;
  }
  terminate_cleanly();

  // Second daemon lifetime, same store file: everything is a store
  // hit and the engine never runs.
  spawn();
  Client client = connect();
  std::string error;
  std::vector<VerdictRowWire> second;
  ASSERT_TRUE(client.batch_check(corpus, second, &error)) << error;
  ASSERT_EQ(second.size(), first.size());
  for (std::size_t t = 0; t < first.size(); ++t) {
    EXPECT_EQ(second[t].source, VerdictSource::kStore);
    EXPECT_EQ(second[t].valid, first[t].valid);
    EXPECT_EQ(second[t].bits, first[t].bits);
  }
  std::vector<std::uint64_t> stats;
  ASSERT_TRUE(client.stats(stats, &error)) << error;
  EXPECT_EQ(stats[kStatCheckComputed], 0u);
  EXPECT_EQ(stats[kStatBatchesCoalesced], 0u);
  terminate_cleanly();
}

TEST_F(ServeE2E, CorruptedStoreRecoversWithIdenticalVerdicts) {
  const std::string corpus = litmus::write_corpus(slice_tests(12));
  spawn();
  std::vector<VerdictRowWire> reference;
  {
    Client client = connect();
    std::string error;
    ASSERT_TRUE(client.batch_check(corpus, reference, &error)) << error;
  }
  terminate_cleanly();

  // Tear the committed file the way an interrupted write would:
  // overwrite a span in the middle with garbage.
  {
    std::fstream file(store_path_,
                      std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(file.good());
    file.seekp(64);
    const char garbage[32] = "THIS IS NOT A VERDICT STORE....";
    file.write(garbage, sizeof(garbage));
  }

  // The next lifetime quarantines the file, starts empty, recomputes,
  // and the verdicts are still bit-for-bit right.
  spawn();
  Client client = connect();
  std::string error;
  std::vector<VerdictRowWire> recovered;
  ASSERT_TRUE(client.batch_check(corpus, recovered, &error)) << error;
  ASSERT_EQ(recovered.size(), reference.size());
  for (std::size_t t = 0; t < reference.size(); ++t) {
    EXPECT_EQ(recovered[t].source, VerdictSource::kComputed);
    EXPECT_EQ(recovered[t].valid, reference[t].valid);
    EXPECT_EQ(recovered[t].bits, reference[t].bits);
  }
  terminate_cleanly();
}

TEST_F(ServeE2E, GarbageBytesDoNotKillTheServer) {
  spawn();

  // Raw connection feeding bytes that are not a frame: the server
  // answers with a malformed-frame error (best effort) and drops the
  // link — and keeps serving everyone else.
  {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, socket_path_.c_str(),
                 sizeof(addr.sun_path) - 1);
    ASSERT_EQ(
        ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
        0);
    const char garbage[] = "GET / HTTP/1.1\r\n\r\n";
    ASSERT_GT(::send(fd, garbage, sizeof(garbage) - 1, MSG_NOSIGNAL), 0);
    char reply[256];
    while (::read(fd, reply, sizeof(reply)) > 0) {
    }
    ::close(fd);
  }

  // A well-framed but undecodable payload keeps the connection alive:
  // the same socket answers a real request right after the error.
  {
    Client client = connect();
    std::string error;
    std::vector<std::uint64_t> stats;
    ASSERT_TRUE(client.stats(stats, &error)) << error;
    VerdictRowWire row;
    ASSERT_TRUE(client.check(kSbTest, row, &error)) << error;
    EXPECT_EQ(row.source, VerdictSource::kComputed);
  }

  // Malformed litmus source is a per-request error, not a connection
  // (or server) failure.
  {
    Client client = connect();
    std::string error;
    VerdictRowWire row;
    EXPECT_FALSE(client.check("name: broken\nthread:\n  Explode\n", row,
                              &error));
    EXPECT_NE(error.find("server error"), std::string::npos) << error;
    std::vector<std::uint64_t> stats;
    ASSERT_TRUE(client.stats(stats, &error)) << error;
  }

  terminate_cleanly();
}

TEST_F(ServeE2E, OversizedTestIsRefusedWithoutTheEngine) {
  spawn();
  // SB with 31 fences in front of each thread: 66 events, past the 64
  // the daemon accepts.
  std::string padded_sb = "name: SB+fences\n";
  for (const char* accesses : {"  Write X <- 1\n  Read Y -> r0\n",
                               "  Write Y <- 1\n  Read X -> r1\n"}) {
    padded_sb += "thread:\n";
    for (int i = 0; i < 31; ++i) padded_sb += "  Fence\n";
    padded_sb += accesses;
  }
  padded_sb += "outcome: r0=0 r1=0\n";
  ASSERT_EQ(litmus::parse_test(padded_sb).program().size(), 66);

  Client client = connect();
  std::string error;
  std::vector<std::uint64_t> before;
  ASSERT_TRUE(client.stats(before, &error)) << error;
  VerdictRowWire row;
  EXPECT_FALSE(client.check(padded_sb, row, &error));
  const std::string bad_request =
      "server error " +
      std::to_string(static_cast<std::uint32_t>(ErrorCode::kBadRequest));
  EXPECT_NE(error.find(bad_request), std::string::npos) << error;
  EXPECT_NE(error.find("more than 64 events"), std::string::npos) << error;
  std::vector<std::uint64_t> after;
  ASSERT_TRUE(client.stats(after, &error)) << error;
  EXPECT_EQ(after[kStatCheckComputed], before[kStatCheckComputed]);
  EXPECT_EQ(after[kStatChecks], before[kStatChecks]);

  // The same connection keeps serving.
  ASSERT_TRUE(client.check(kSbTest, row, &error)) << error;
  EXPECT_EQ(row.source, VerdictSource::kComputed);

  terminate_cleanly();
}

}  // namespace
}  // namespace mcmc::serve
