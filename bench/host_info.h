// The host block of the bench JSON summaries: core count, compiler,
// build type and source revision — what decides whether two committed
// snapshots are comparable.  Build type and source directory come from
// the build (CMake compile definitions); the revision is read at run
// time with `git describe`, and reads "unknown" where that fails.
#pragma once

#include <cstdio>
#include <string>
#include <thread>

#ifndef MCMC_BUILD_TYPE
#define MCMC_BUILD_TYPE "unknown"
#endif

namespace mcmc::bench {

struct HostInfo {
  unsigned nproc = 0;      ///< std::thread::hardware_concurrency()
  std::string compiler;    ///< e.g. "gcc 12.2.0"
  std::string build_type;  ///< CMAKE_BUILD_TYPE
  std::string git_rev;     ///< `git describe --always --dirty`
};

namespace detail {

/// Keeps `text` a valid JSON string body: drops quotes, backslashes and
/// control characters.
inline std::string json_safe(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c != '"' && c != '\\' && static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
  return out;
}

inline std::string git_revision() {
#if defined(MCMC_SOURCE_DIR) && (defined(__unix__) || defined(__APPLE__))
  const std::string command = std::string("git -C '") + MCMC_SOURCE_DIR +
                              "' describe --always --dirty --abbrev=40 "
                              "2>/dev/null";
  std::FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return "unknown";
  std::string out;
  char buf[128];
  while (std::fgets(buf, sizeof buf, pipe) != nullptr) out += buf;
  const int status = pclose(pipe);
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
    out.pop_back();
  }
  return status == 0 && !out.empty() ? json_safe(out) : "unknown";
#else
  return "unknown";
#endif
}

}  // namespace detail

inline HostInfo host_info() {
  HostInfo host;
  host.nproc = std::thread::hardware_concurrency();
#if defined(__clang__)
  host.compiler = detail::json_safe(std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
  host.compiler = detail::json_safe(std::string("gcc ") + __VERSION__);
#else
  host.compiler = "unknown";
#endif
  host.build_type = detail::json_safe(MCMC_BUILD_TYPE);
  host.git_rev = detail::git_revision();
  return host;
}

}  // namespace mcmc::bench
