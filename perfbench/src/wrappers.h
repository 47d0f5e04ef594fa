// Outside-in wrappers that the traced runs put around the repository's
// public interfaces: a timing engine::TestSource and a counting, timing
// store::Fs.  Both forward every call unchanged — cursor snapshots and
// restores for the source, sync() for the filesystem — so a traced run
// does the same work as an untraced one and the store's durability
// protocol is untouched.  perfbench_selftest checks that claim on the
// 2-access slice: same matrix, byte-identical committed store file.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/test_stream.h"
#include "store/fs.h"
#include "trace.h"

namespace perfbench {

/// Records a "next_chunk" span (layer enumeration) around every
/// next_chunk of the wrapped source and counts the tests it delivered.
/// next_chunk runs on whichever thread pulls (the engine's prefetcher);
/// read the count only after the stream has finished.
class TimedSource final : public mcmc::engine::TestSource {
 public:
  TimedSource(mcmc::engine::TestSource& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  bool next_chunk(std::vector<mcmc::litmus::LitmusTest>& out) override;
  [[nodiscard]] bool snapshot_cursor(
      std::vector<std::uint64_t>& out) const override {
    return inner_.snapshot_cursor(out);
  }
  [[nodiscard]] bool restore_cursor(
      const std::vector<std::uint64_t>& cursor) override {
    return inner_.restore_cursor(cursor);
  }

  [[nodiscard]] std::uint64_t tests() const { return tests_; }

 private:
  mcmc::engine::TestSource& inner_;
  Tracer& tracer_;
  std::uint64_t tests_ = 0;
};

/// What a CountingFs saw.  Fs calls come from one thread at a time
/// (whichever thread drives the store), so plain counters suffice.
struct FsCounts {
  std::uint64_t reads = 0;
  std::uint64_t read_bytes = 0;
  std::uint64_t creates = 0;
  std::uint64_t writes = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t syncs = 0;
  std::uint64_t renames = 0;
  std::uint64_t removes = 0;
  std::uint64_t failures = 0;  ///< calls that returned false / null
};

/// Records an "fs.<call>" span (layer store) around every call into
/// the wrapped filesystem (and into the writers it creates) and counts
/// calls and bytes.  Results are passed through as returned.
class CountingFs final : public mcmc::store::Fs {
 public:
  CountingFs(mcmc::store::Fs& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  [[nodiscard]] bool read_file(const std::string& path,
                               std::string& out) override;
  [[nodiscard]] std::unique_ptr<mcmc::store::FileWriter> create(
      const std::string& path) override;
  [[nodiscard]] bool rename(const std::string& from,
                            const std::string& to) override;
  [[nodiscard]] bool remove(const std::string& path) override;
  [[nodiscard]] bool exists(const std::string& path) override;

  [[nodiscard]] const FsCounts& counts() const { return counts_; }

 private:
  friend class CountingWriter;

  mcmc::store::Fs& inner_;
  Tracer& tracer_;
  FsCounts counts_;
};

}  // namespace perfbench
