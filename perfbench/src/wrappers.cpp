#include "wrappers.h"

namespace perfbench {

bool TimedSource::next_chunk(std::vector<mcmc::litmus::LitmusTest>& out) {
  ScopedSpan span(&tracer_, "next_chunk", "enumeration");
  const std::size_t before = out.size();
  const bool more = inner_.next_chunk(out);
  tests_ += out.size() - before;
  return more;
}

/// The writer half of CountingFs: forwards to the wrapped filesystem's
/// writer, which it owns.
class CountingWriter final : public mcmc::store::FileWriter {
 public:
  CountingWriter(std::unique_ptr<mcmc::store::FileWriter> inner,
                 CountingFs& fs)
      : inner_(std::move(inner)), fs_(fs) {}

  bool write(const char* data, std::size_t len) override {
    ScopedSpan span(&fs_.tracer_, "fs.write", "store");
    const bool ok = inner_->write(data, len);
    ++fs_.counts_.writes;
    if (ok) {
      fs_.counts_.bytes_written += len;
    } else {
      ++fs_.counts_.failures;
    }
    return ok;
  }
  bool sync() override {
    ScopedSpan span(&fs_.tracer_, "fs.sync", "store");
    const bool ok = inner_->sync();
    ++fs_.counts_.syncs;
    if (!ok) ++fs_.counts_.failures;
    return ok;
  }
  bool close() override {
    ScopedSpan span(&fs_.tracer_, "fs.close", "store");
    const bool ok = inner_->close();
    if (!ok) ++fs_.counts_.failures;
    return ok;
  }

 private:
  std::unique_ptr<mcmc::store::FileWriter> inner_;
  CountingFs& fs_;
};

bool CountingFs::read_file(const std::string& path, std::string& out) {
  ScopedSpan span(&tracer_, "fs.read_file", "store");
  const bool ok = inner_.read_file(path, out);
  ++counts_.reads;
  if (ok) {
    counts_.read_bytes += out.size();
  } else {
    ++counts_.failures;
  }
  return ok;
}

std::unique_ptr<mcmc::store::FileWriter> CountingFs::create(
    const std::string& path) {
  ScopedSpan span(&tracer_, "fs.create", "store");
  auto inner = inner_.create(path);
  ++counts_.creates;
  if (inner == nullptr) {
    ++counts_.failures;
    return nullptr;
  }
  return std::make_unique<CountingWriter>(std::move(inner), *this);
}

bool CountingFs::rename(const std::string& from, const std::string& to) {
  ScopedSpan span(&tracer_, "fs.rename", "store");
  const bool ok = inner_.rename(from, to);
  ++counts_.renames;
  if (!ok) ++counts_.failures;
  return ok;
}

bool CountingFs::remove(const std::string& path) {
  ScopedSpan span(&tracer_, "fs.remove", "store");
  const bool ok = inner_.remove(path);
  ++counts_.removes;
  return ok;
}

bool CountingFs::exists(const std::string& path) {
  ScopedSpan span(&tracer_, "fs.exists", "store");
  return inner_.exists(path);
}

}  // namespace perfbench
