// The seals of a checkpointed stream are written in the background: the
// consumer captures each seal and streams on while a seal writer
// checksums, writes, fsyncs and renames it.  A gate filesystem holds
// the first segment's fsync until the chunk sink has seen the chunk
// after that seal, so a consumer that wrote its own seals would sit in
// the fsync and the gate would time out.  The gate also checks that a
// stream unwinding from a throwing sink lets the writer finish first,
// and that a writer's exception reaches the consumer.
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "engine/verdict_engine.h"
#include "enumeration/exhaustive.h"
#include "explore/distinguish.h"
#include "explore/space.h"
#include "mem_fs.h"
#include "store/fs.h"
#include "store/verdict_store.h"

namespace mcmc {
namespace {

constexpr int kSealEvery = 4;
/// A fresh store's first seal writes a base, its second the first
/// segment; the second seal follows chunk 2 * kSealEvery - 1.
constexpr std::size_t kChunkAfterSecondSeal = 2 * kSealEvery;
const char* const kStore = "store";
const char* const kFirstSegmentTmp = "store.1.tmp";

/// How long the gate holds a fsync at most, and how long the released
/// write lingers after it, so a stream that did not wait for it would
/// be seen.
constexpr auto kGateTimeout = std::chrono::seconds(5);
constexpr auto kLinger = std::chrono::milliseconds(50);

enumeration::ExhaustiveOptions slice() {
  enumeration::ExhaustiveOptions options;
  options.bounds.max_accesses_per_thread = 2;
  options.chunk_size = 256;
  return options;
}

const std::vector<core::MemoryModel>& stream_models() {
  static const std::vector<core::MemoryModel> models = {
      explore::ModelChoices{4, 4, 4, 4}.to_model(),
      explore::ModelChoices{1, 0, 1, 0}.to_model()};
  return models;
}

/// Forwards to a MemFs, but the fsync of the first segment waits until
/// the chunk sink has reported chunk `release_at` (kGateTimeout at
/// most; past that it records a timeout and goes on), then lingers; or,
/// with `fail`, throws instead.
class GateFs final : public store::Fs {
 public:
  GateFs(std::size_t release_at, bool fail)
      : release_at_(release_at), fail_(fail) {}

  [[nodiscard]] bool read_file(const std::string& path,
                               std::string& out) override {
    return mem_.read_file(path, out);
  }
  [[nodiscard]] std::unique_ptr<store::FileWriter> create(
      const std::string& path) override {
    return std::make_unique<Writer>(mem_.create(path),
                                    path == kFirstSegmentTmp ? this : nullptr);
  }
  [[nodiscard]] bool rename(const std::string& from,
                            const std::string& to) override {
    return mem_.rename(from, to);
  }
  [[nodiscard]] bool remove(const std::string& path) override {
    return mem_.remove(path);
  }
  [[nodiscard]] bool exists(const std::string& path) override {
    return mem_.exists(path);
  }

  /// The chunk sink reports each chunk it sees.
  void saw_chunk(std::size_t index) {
    std::lock_guard<std::mutex> lock(mu_);
    chunks_seen_ = index + 1;
    seen_.notify_all();
  }

  struct Report {
    bool gated = false;      ///< the first segment's fsync was held
    bool timed_out = false;  ///< ... and nothing released it
    bool synced = false;     ///< ... and it returned
  };
  [[nodiscard]] Report report() {
    std::lock_guard<std::mutex> lock(mu_);
    return report_;
  }

  /// The files; read only once the stream has returned.
  [[nodiscard]] const MemFs& mem() const { return mem_; }

 private:
  class Writer final : public store::FileWriter {
   public:
    Writer(std::unique_ptr<store::FileWriter> inner, GateFs* gate)
        : inner_(std::move(inner)), gate_(gate) {}
    [[nodiscard]] bool write(const char* data, std::size_t len) override {
      return inner_->write(data, len);
    }
    [[nodiscard]] bool sync() override {
      if (gate_ != nullptr) gate_->hold();
      return inner_->sync();
    }
    bool close() override { return inner_->close(); }

   private:
    std::unique_ptr<store::FileWriter> inner_;
    GateFs* gate_;
  };

  void hold() {
    std::unique_lock<std::mutex> lock(mu_);
    if (report_.gated) return;
    report_.gated = true;
    if (fail_) throw std::runtime_error("gate: fsync failed");
    report_.timed_out = !seen_.wait_for(
        lock, kGateTimeout, [&] { return chunks_seen_ > release_at_; });
    lock.unlock();
    std::this_thread::sleep_for(kLinger);
    lock.lock();
    report_.synced = true;
  }

  const std::size_t release_at_;
  const bool fail_;
  MemFs mem_;
  std::mutex mu_;
  std::condition_variable seen_;
  std::size_t chunks_seen_ = 0;
  Report report_;
};

/// One checkpointed stream over the slice into a fresh store on `fs`,
/// sealed every kSealEvery chunks; `on_chunk` sees each chunk's index.
engine::StreamStats sealed_run(store::Fs& fs,
                               const std::function<void(std::size_t)>& on_chunk,
                               int kill_after_seals = -1) {
  auto opened = store::VerdictStore::open(
      kStore, explore::harness_store_meta(stream_models()), &fs);
  store::StreamPersistence persistence;
  persistence.path = kStore;
  persistence.fs = &fs;
  persistence.checkpoint_every_chunks = kSealEvery;
  persistence.kill_after_seals = kill_after_seals;
  engine::StreamOptions options;
  options.verdict_store = opened.store.get();
  options.persistence = &persistence;
  engine::EngineOptions engine_options;
  engine_options.num_threads = 2;
  engine::VerdictEngine eng(engine_options);
  enumeration::ExhaustiveStream stream(slice());
  return eng.run_stream(
      stream_models(), stream,
      [&](const std::vector<litmus::LitmusTest>&,
          const std::vector<util::Key128>&, const engine::BitMatrix&,
          const engine::StreamChunkStats& cs) { on_chunk(cs.index); },
      options);
}

TEST(StreamSeal, ConsumerStreamsOnWhileASealWrites) {
  GateFs fs(kChunkAfterSecondSeal, /*fail=*/false);
  const engine::StreamStats stats =
      sealed_run(fs, [&](std::size_t index) { fs.saw_chunk(index); });
  const GateFs::Report report = fs.report();
  EXPECT_TRUE(report.gated);
  EXPECT_FALSE(report.timed_out)
      << "the sink saw no chunk while the second seal's fsync was held";
  EXPECT_TRUE(report.synced);
  EXPECT_GT(stats.stages.write, 0.0);
  // The run still ends in one checkpoint-free file.
  ASSERT_EQ(fs.mem().files().size(), 1u);
  EXPECT_EQ(fs.mem().files().begin()->first, kStore);
}

TEST(StreamSeal, ThrowingSinkLetsTheSealWriteFinish) {
  // The stream the throw interrupts leaves the files of its second
  // seal, exactly as a kill right after that seal's rename does.
  MemFs killed_fs;
  EXPECT_THROW(sealed_run(killed_fs, [](std::size_t) {}, 2),
               store::StreamInterrupted);

  GateFs fs(kChunkAfterSecondSeal, /*fail=*/false);
  const auto sink = [&](std::size_t index) {
    fs.saw_chunk(index);
    if (index == kChunkAfterSecondSeal) throw std::runtime_error("sink failed");
  };
  EXPECT_THROW(sealed_run(fs, sink), std::runtime_error);
  const GateFs::Report report = fs.report();
  EXPECT_TRUE(report.gated);
  EXPECT_FALSE(report.timed_out);
  EXPECT_TRUE(report.synced) << "run_stream threw before the write ended";
  ASSERT_EQ(fs.mem().published().size(), 2u);
  EXPECT_EQ(fs.mem().published().back().first, "store.1");
  EXPECT_TRUE(fs.mem().files() == killed_fs.files());
}

TEST(StreamSeal, WriterExceptionSurfacesOnTheConsumer) {
  GateFs fs(kChunkAfterSecondSeal, /*fail=*/true);
  EXPECT_THROW(sealed_run(fs, [](std::size_t) {}), std::runtime_error);
  EXPECT_TRUE(fs.report().gated);
  // The first seal's base is the last commit that landed.
  ASSERT_EQ(fs.mem().published().size(), 1u);
  auto opened = store::VerdictStore::open(
      kStore, explore::harness_store_meta(stream_models()), &fs);
  ASSERT_EQ(opened.outcome, store::OpenOutcome::Loaded) << opened.detail;
  const auto ck = opened.store->checkpoint();
  ASSERT_TRUE(ck.has_value());
  EXPECT_EQ(ck->chunks, static_cast<std::uint64_t>(kSealEvery));
}

}  // namespace
}  // namespace mcmc
