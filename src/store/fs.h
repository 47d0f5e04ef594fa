// Injectable filesystem layer for the persistent verdict store.
//
// Every byte the store reads or writes goes through this interface, so
// the failure modes that matter for crash safety — short writes, a
// full disk, a failing fsync, a rename that never lands, a process
// killed between any two syscalls — can be injected deterministically
// by tests instead of hoped-for in production.  RealFs is the thin
// POSIX implementation; FaultFs wraps any Fs and fails operation N of
// a class on demand, leaving exactly the partial state a real fault
// would (a torn write really does leave the prefix on disk).
//
// The contract is error-code-shaped, not exception-shaped: filesystem
// failure is an expected input to the recovery logic, and callers
// (store::VerdictStore) must degrade gracefully on every `false`.
#pragma once

#include <cstddef>
#include <memory>
#include <string>

namespace mcmc::store {

/// A write handle: append bytes, optionally fsync, then close.  Any
/// method returning false means the data's durability is unknown —
/// callers must treat the file as garbage (and the store's atomic
/// commit protocol guarantees such garbage never carries the final
/// name).
class FileWriter {
 public:
  virtual ~FileWriter() = default;
  [[nodiscard]] virtual bool write(const char* data, std::size_t len) = 0;
  [[nodiscard]] virtual bool sync() = 0;
  /// Flushes and closes; returns false if either fails.  Idempotent.
  virtual bool close() = 0;
};

/// Minimal filesystem surface the store needs.  All operations return
/// success flags; none throw.
class Fs {
 public:
  virtual ~Fs() = default;

  /// Reads the whole file into `out`; false if absent or unreadable.
  [[nodiscard]] virtual bool read_file(const std::string& path,
                                       std::string& out) = 0;
  /// Creates (truncates) `path` for writing; null on failure.
  [[nodiscard]] virtual std::unique_ptr<FileWriter> create(
      const std::string& path) = 0;
  /// Atomically replaces `to` with `from` (POSIX rename semantics).
  [[nodiscard]] virtual bool rename(const std::string& from,
                                    const std::string& to) = 0;
  [[nodiscard]] virtual bool remove(const std::string& path) = 0;
  [[nodiscard]] virtual bool exists(const std::string& path) = 0;
};

/// The real POSIX filesystem.
class RealFs final : public Fs {
 public:
  [[nodiscard]] bool read_file(const std::string& path,
                               std::string& out) override;
  [[nodiscard]] std::unique_ptr<FileWriter> create(
      const std::string& path) override;
  [[nodiscard]] bool rename(const std::string& from,
                            const std::string& to) override;
  [[nodiscard]] bool remove(const std::string& path) override;
  [[nodiscard]] bool exists(const std::string& path) override;

  /// Process-wide instance (the default when callers pass no Fs).
  static RealFs& instance();
};

/// Deterministic fault injection over a wrapped Fs.
///
/// Each operation class has a countdown: `fail_write_after_bytes`
/// accepts that many bytes and then fails (the accepted prefix IS
/// written through — a torn write), `fail_sync_at` / `fail_rename_at` /
/// `fail_create_at` / `fail_read_at` / `fail_remove_at` fail the Nth
/// call (0-based) of that class (a failed remove leaves the file, as a
/// crash before it would).  Countdowns at -1 never fire.  Counters keep
/// advancing after a fault, so "every sync fails from now on" is
/// sync_at=0 with `sticky` set.
class FaultFs final : public Fs {
 public:
  explicit FaultFs(Fs& inner) : inner_(inner) {}

  // ---- Fault plan (set before exercising the store). ----
  long fail_write_after_bytes = -1;  ///< short/torn write, ENOSPC-style
  long fail_sync_at = -1;            ///< Nth sync() call fails
  long fail_create_at = -1;          ///< Nth create() returns null
  long fail_rename_at = -1;          ///< Nth rename() fails (no replace)
  long fail_read_at = -1;            ///< Nth read_file() fails
  long fail_remove_at = -1;          ///< Nth remove() fails (file stays)
  bool sticky = false;               ///< once fired, keep failing

  // ---- Accounting (reads for assertions). ----
  [[nodiscard]] long writes_accepted_bytes() const { return bytes_written_; }
  [[nodiscard]] long syncs() const { return sync_calls_; }
  [[nodiscard]] long creates() const { return create_calls_; }
  [[nodiscard]] long renames() const { return rename_calls_; }

  [[nodiscard]] bool read_file(const std::string& path,
                               std::string& out) override;
  [[nodiscard]] std::unique_ptr<FileWriter> create(
      const std::string& path) override;
  [[nodiscard]] bool rename(const std::string& from,
                            const std::string& to) override;
  [[nodiscard]] bool remove(const std::string& path) override;
  [[nodiscard]] bool exists(const std::string& path) override;

 private:
  friend class FaultWriter;

  [[nodiscard]] bool fire(long& plan, long& counter);
  /// Byte-granular write budget: how many of `len` bytes to accept
  /// (the rest are dropped — torn); negative means accept all.
  [[nodiscard]] long write_budget(std::size_t len);

  Fs& inner_;
  long bytes_written_ = 0;
  long sync_calls_ = 0;
  long create_calls_ = 0;
  long rename_calls_ = 0;
  long read_calls_ = 0;
  long remove_calls_ = 0;
  bool fired_write_ = false;
};

}  // namespace mcmc::store
