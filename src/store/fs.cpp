#include "store/fs.h"

#include <cstdio>
#include <sys/stat.h>
#include <unistd.h>

namespace mcmc::store {

namespace {

/// stdio-backed writer with explicit fsync.
class RealWriter final : public FileWriter {
 public:
  explicit RealWriter(std::FILE* f) : f_(f) {}
  ~RealWriter() override { close(); }

  bool write(const char* data, std::size_t len) override {
    if (f_ == nullptr) return false;
    return std::fwrite(data, 1, len, f_) == len;
  }

  bool sync() override {
    if (f_ == nullptr) return false;
    if (std::fflush(f_) != 0) return false;
    return ::fsync(fileno(f_)) == 0;
  }

  bool close() override {
    if (f_ == nullptr) return true;
    std::FILE* f = f_;
    f_ = nullptr;
    return std::fclose(f) == 0;
  }

 private:
  std::FILE* f_;
};

}  // namespace

bool RealFs::read_file(const std::string& path, std::string& out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  out.clear();
  // One allocation of the file's size instead of doubling through it
  // (a full store is tens of MB); the read loop still decides the size.
  struct stat st {};
  if (::fstat(fileno(f), &st) == 0 && st.st_size > 0) {
    out.reserve(static_cast<std::size_t>(st.st_size));
  }
  char buf[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  return ok;
}

std::unique_ptr<FileWriter> RealFs::create(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return nullptr;
  return std::make_unique<RealWriter>(f);
}

bool RealFs::rename(const std::string& from, const std::string& to) {
  return std::rename(from.c_str(), to.c_str()) == 0;
}

bool RealFs::remove(const std::string& path) {
  return std::remove(path.c_str()) == 0;
}

bool RealFs::exists(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0;
}

RealFs& RealFs::instance() {
  static RealFs fs;
  return fs;
}

// ---------------------------------------------------------------------------
// FaultFs
// ---------------------------------------------------------------------------

/// Writer wrapper enforcing FaultFs's byte budget and sync plan.  A
/// torn write passes the accepted prefix through to the inner writer —
/// the partial bytes really land, exactly like a crashed process or a
/// full disk.  (Namespace-scoped: it is FaultFs's friend.)
class FaultWriter final : public FileWriter {
 public:
  FaultWriter(std::unique_ptr<FileWriter> inner, FaultFs& fs)
      : inner_(std::move(inner)), fs_(fs) {}

  bool write(const char* data, std::size_t len) override {
    const long budget = fs_.write_budget(len);
    if (budget < 0) return inner_->write(data, len);
    if (budget > 0) {
      (void)inner_->write(data, static_cast<std::size_t>(budget));
    }
    return false;  // short write: only `budget` of `len` bytes landed
  }

  bool sync() override {
    long counter = fs_.sync_calls_;
    const bool fault = fs_.fire(fs_.fail_sync_at, counter);
    fs_.sync_calls_ = counter;
    if (fault) return false;
    return inner_->sync();
  }

  bool close() override { return inner_->close(); }

 private:
  std::unique_ptr<FileWriter> inner_;
  FaultFs& fs_;
};

bool FaultFs::fire(long& plan, long& counter) {
  const long call = counter++;
  if (plan < 0) return false;
  if (call == plan) return true;
  return sticky && call > plan;
}

long FaultFs::write_budget(std::size_t len) {
  if (fail_write_after_bytes < 0) {
    bytes_written_ += static_cast<long>(len);
    return -1;
  }
  if (fired_write_ && sticky) return 0;
  const long before = bytes_written_;
  bytes_written_ += static_cast<long>(len);
  if (bytes_written_ <= fail_write_after_bytes) return fired_write_ ? 0 : -1;
  fired_write_ = true;
  const long budget = fail_write_after_bytes - before;
  return budget > 0 ? budget : 0;
}

bool FaultFs::read_file(const std::string& path, std::string& out) {
  long counter = read_calls_;
  const bool fault = fire(fail_read_at, counter);
  read_calls_ = counter;
  if (fault) return false;
  return inner_.read_file(path, out);
}

std::unique_ptr<FileWriter> FaultFs::create(const std::string& path) {
  long counter = create_calls_;
  const bool fault = fire(fail_create_at, counter);
  create_calls_ = counter;
  if (fault) return nullptr;
  auto inner = inner_.create(path);
  if (inner == nullptr) return nullptr;
  return std::make_unique<FaultWriter>(std::move(inner), *this);
}

bool FaultFs::rename(const std::string& from, const std::string& to) {
  long counter = rename_calls_;
  const bool fault = fire(fail_rename_at, counter);
  rename_calls_ = counter;
  if (fault) return false;
  return inner_.rename(from, to);
}

bool FaultFs::remove(const std::string& path) {
  long counter = remove_calls_;
  const bool fault = fire(fail_remove_at, counter);
  remove_calls_ = counter;
  if (fault) return false;
  return inner_.remove(path);
}

bool FaultFs::exists(const std::string& path) { return inner_.exists(path); }

}  // namespace mcmc::store
