#include "child.h"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <limits>

extern char** environ;

namespace perfbench {

namespace {

/// waitpid, retried when a signal interrupts it.
pid_t wait_for(pid_t pid, int& status, int options) {
  pid_t reaped = -1;
  do {
    reaped = ::waitpid(pid, &status, options);
  } while (reaped < 0 && errno == EINTR);
  return reaped;
}

}  // namespace

Child::Child(const std::vector<std::string>& argv,
             const std::string& log_path) {
  std::vector<char*> args;
  for (const auto& arg : argv) args.push_back(const_cast<char*>(arg.c_str()));
  args.push_back(nullptr);
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, log_path.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);
  pid_t pid = -1;
  const int rc =
      ::posix_spawnp(&pid, args[0], &actions, nullptr, args.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    error_ = "cannot start " + argv[0] + ": " + std::strerror(rc);
    return;
  }
  pid_ = pid;
}

Child::~Child() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    wait_for(pid_, status, 0);
  }
}

bool Child::exited() {
  if (pid_ <= 0) return true;
  int status = 0;
  if (wait_for(pid_, status, WNOHANG) != pid_) return false;
  pid_ = -1;
  return true;
}

double Child::peak_rss_mb() const {
  if (pid_ <= 0) return -1.0;
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kib = 0.0;
      return status >> kib ? kib / 1024.0 : -1.0;
    }
    status.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  return -1.0;
}

bool Child::terminate() {
  if (pid_ <= 0) return false;
  ::kill(pid_, SIGTERM);
  int status = 0;
  const pid_t reaped = wait_for(pid_, status, 0);
  pid_ = -1;
  return reaped > 0 && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

}  // namespace perfbench
