// A child process started with posix_spawn, and its memory high-water
// mark read from outside while it runs.
#pragma once

#include <sys/types.h>

#include <string>
#include <vector>

namespace perfbench {

/// Runs `argv` (argv[0] is looked up in PATH when it has no slash) with
/// stdout and stderr appended to `log_path`.  posix_spawn returns once
/// the child has exec'd, without copying this process's page tables.
/// Killed and reaped if still running when destroyed.
class Child {
 public:
  Child(const std::vector<std::string>& argv, const std::string& log_path);
  ~Child();

  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  /// False if the spawn failed (see error()) or the child was reaped.
  [[nodiscard]] bool running() const { return pid_ > 0; }
  [[nodiscard]] const std::string& error() const { return error_; }

  /// Reaps the child if it has exited; true if it is no longer running.
  bool exited();

  /// The child's resident-set high-water mark in MB (VmHWM in
  /// /proc/<pid>/status), or a negative value when unreadable.  It
  /// covers only the memory the child has had since its exec.  wait4's
  /// ru_maxrss would not do: at exec, Linux folds the high-water mark
  /// of the memory the child leaves behind — the spawning process's —
  /// into the child's, so it never reads below this process's RSS.
  [[nodiscard]] double peak_rss_mb() const;

  /// SIGTERM, then reap; true iff the child exited with status 0.
  bool terminate();

 private:
  pid_t pid_ = -1;
  std::string error_;
};

}  // namespace perfbench
