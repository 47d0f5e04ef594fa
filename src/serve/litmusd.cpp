// litmusd: long-lived verdict-serving daemon.
//
//   litmusd --socket /tmp/litmusd.sock --store verdicts.bin
//
// Serves the serve/protocol.h request types over a Unix-domain socket
// (and optionally loopback TCP) until SIGTERM/SIGINT, then drains:
// in-flight requests are answered, the store is committed, and the
// exit status reports a clean shutdown.  See serve/server.h for the
// serving semantics and README "Serving verdicts" for usage.
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include <unistd.h>

#include "serve/server.h"

namespace {

// Signals land on a self-pipe so all shutdown work runs on the main
// thread, not in a handler.
int g_signal_pipe[2] = {-1, -1};

extern "C" void on_signal(int) {
  const char byte = 1;
  (void)!write(g_signal_pipe[1], &byte, 1);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mcmc;

  serve::ServerOptions options;
  options.socket_path = "/tmp/litmusd.sock";

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
    if (arg == "--socket" && i + 1 < argc) {
      options.socket_path = argv[++i];
    } else if (arg == "--no-socket") {
      options.socket_path.clear();
    } else if (arg == "--tcp" && int_arg(0, 65535, v)) {
      options.tcp_port = static_cast<int>(v);
    } else if (arg == "--store" && i + 1 < argc) {
      options.store_path = argv[++i];
    } else if (arg == "--no-deps") {
      options.with_deps = false;
    } else if (arg == "--threads" && int_arg(0, 4096, v)) {
      options.engine.num_threads = static_cast<int>(v);
    } else if (arg == "--queue" && int_arg(1, 1 << 20, v)) {
      options.max_queue_tests = static_cast<std::size_t>(v);
    } else if (arg == "--batch" && int_arg(1, 1 << 20, v)) {
      options.max_batch_tests = static_cast<std::size_t>(v);
    } else if (arg == "--save-every" && int_arg(0, 1 << 20, v)) {
      options.save_every = static_cast<std::size_t>(v);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--socket PATH | --no-socket] [--tcp PORT]\n"
                   "          [--store PATH] [--no-deps] [--threads N]\n"
                   "          [--queue TESTS] [--batch TESTS] "
                   "[--save-every ROWS]\n",
                   argv[0]);
      return 2;
    }
  }

  if (pipe(g_signal_pipe) != 0) {
    std::perror("pipe");
    return 1;
  }
  struct sigaction sa{};
  sa.sa_handler = on_signal;
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);
  signal(SIGPIPE, SIG_IGN);

  serve::Server server(options);
  std::string error;
  if (!server.start(&error)) {
    std::fprintf(stderr, "litmusd: %s\n", error.c_str());
    return 1;
  }
  std::printf("litmusd: serving %zu models", server.model_names().size());
  if (!options.socket_path.empty()) {
    std::printf(" on %s", options.socket_path.c_str());
  }
  if (server.tcp_port() >= 0) std::printf(" (tcp %d)", server.tcp_port());
  if (!options.store_path.empty()) {
    std::printf(", store %s", options.store_path.c_str());
  }
  std::printf("\n");
  std::fflush(stdout);

  char byte = 0;
  while (read(g_signal_pipe[0], &byte, 1) < 0 && errno == EINTR) {
  }
  std::printf("litmusd: draining\n");
  std::fflush(stdout);
  server.request_stop();
  server.wait();
  std::printf("litmusd: clean shutdown\n");
  return 0;
}
