// Pull-based litmus-test streams for the VerdictEngine.
//
// Corpora that are too large to materialize (the naive bounded
// enumeration is ~5 million tests) are consumed in fixed-size chunks:
// the producer implements TestSource, and VerdictEngine::run_stream
// pulls chunk after chunk through a ChunkPrefetcher (one producer
// thread, one chunk ahead), deduplicates by canonical key, and hands
// each chunk's verdicts to a sink while keeping peak memory at
// O(chunk size + one program run's keys) for a source that certifies
// its program runs (elide_repeats), O(chunk size + unique keys)
// otherwise, never O(corpus).
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "litmus/test.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"
#include "util/timer.h"

namespace mcmc::engine {

/// A chunked producer of litmus tests.
class TestSource {
 public:
  virtual ~TestSource() = default;

  /// Appends the next chunk (up to the source's chunk size) to `out`,
  /// which the caller has cleared.  Returns true while more chunks may
  /// follow; the final call may both append a partial chunk and return
  /// false.
  virtual bool next_chunk(std::vector<litmus::LitmusTest>& out) = 0;

  /// Serializes the position after the chunks delivered so far, as
  /// opaque words: restoring this cursor into a freshly constructed
  /// equivalent source re-delivers exactly the remaining suffix with
  /// identical chunk boundaries (what stream checkpointing needs).
  /// Sources that cannot checkpoint return false (the default).
  [[nodiscard]] virtual bool snapshot_cursor(
      std::vector<std::uint64_t>& out) const {
    (void)out;
    return false;
  }

  /// Restores a snapshot_cursor() position; must be called before the
  /// first next_chunk.  False if the words are not a valid cursor for
  /// this source (the caller then restarts from scratch).
  [[nodiscard]] virtual bool restore_cursor(
      const std::vector<std::uint64_t>& cursor) {
    (void)cursor;
    return false;
  }

  /// Opts the consumer in to eliding repeats: the source may leave out
  /// tests whose canonical class (litmus::canonical_fingerprint)
  /// occurred earlier in the stream, and count each left-out position
  /// in elided() instead; chunks span the same positions, so names,
  /// chunk boundaries and cursors do not change.  Accepting also
  /// certifies that no canonical class spans two of the source's
  /// program runs (maximal runs of consecutive tests sharing one
  /// program object), every program before a restored cursor counting
  /// as streamed: a test is novel iff its class is new to its run.
  /// Only a consumer that dedups by canonical fingerprints and sees
  /// every test from the first pull (or the restored cursor) on may opt
  /// in, before that pull, settling each elided position as a
  /// duplicate.  True iff the source elides and certifies; the default,
  /// and a wrapper that does not forward the call, return false.  A
  /// wrapper that forwards it forwards restored_run_head too.
  virtual bool elide_repeats() { return false; }

  /// Appends the live program's tests that precede a restored cursor,
  /// in order, sharing the program object the rest of that program's
  /// tests hold: the consumer settles the run's remaining tests against
  /// their classes.  Appends nothing at a program boundary, inside an
  /// elided program, and by default.  Called after the restore and the
  /// opt-in, before the first pull.
  virtual void restored_run_head(std::vector<litmus::LitmusTest>& out) const {
    (void)out;
  }

  /// Stream positions the most recent next_chunk call elided (0 unless
  /// the consumer opted in, elide_repeats): the chunk spans the tests it
  /// appended plus these, in stream order, and may elide all of its
  /// positions and append no test.  Valid until the next next_chunk
  /// call.
  [[nodiscard]] virtual std::size_t elided() const { return 0; }
};

/// Drains `source` to exhaustion, invoking `fn(test)` for every
/// streamed test.  Encodes the next_chunk contract once: the final
/// call may both append a partial chunk and return false, so the chunk
/// must be consumed before the return value ends the loop.
template <typename Fn>
void for_each_test(TestSource& source, Fn&& fn) {
  std::vector<litmus::LitmusTest> chunk;
  bool more = true;
  while (more) {
    chunk.clear();
    more = source.next_chunk(chunk);
    for (auto& test : chunk) fn(test);
  }
}

/// Overlaps chunk production with consumption: a dedicated producer
/// thread materializes the wrapped source's next chunk into a one-chunk
/// slot while the consumer processes the current one.  One chunk of
/// lookahead hides production whenever produce is cheaper than consume,
/// and every chunk held ahead is resident memory.  Chunk boundaries and
/// order are exactly the wrapped source's, so prefetching never changes
/// streamed results.  Each prefetched chunk carries the wrapped
/// source's elided count and cursor for it; opt the wrapped source in
/// to eliding (elide_repeats) before constructing the prefetcher, which
/// does not forward the call.  A producer-side exception
/// is rethrown from next_chunk after the chunks produced before it have
/// been delivered.  Restore the wrapped source before constructing the
/// prefetcher: its producer thread starts pulling at once.
///
/// A consumer that hands each spent chunk back (recycle) has its tests
/// destroyed on the producer thread, which built them, and that
/// thread refills the same vector storage: freeing a test on another
/// thread than the one that allocated it is what costs (glibc's
/// foreign-arena frees slow both threads).
class ChunkPrefetcher final : public TestSource {
 public:
  explicit ChunkPrefetcher(TestSource& source) : source_(source) {
    producer_ = std::thread([this] { produce(); });
  }

  ~ChunkPrefetcher() override {
    {
      util::MutexLock lock(mu_);
      stop_ = true;
    }
    slot_free_.notify_all();
    producer_.join();
  }

  ChunkPrefetcher(const ChunkPrefetcher&) = delete;
  ChunkPrefetcher& operator=(const ChunkPrefetcher&) = delete;

  /// Takes back a delivered chunk and leaves `chunk` empty.  The
  /// producer destroys its tests and refills its storage before it
  /// produces its next chunk.  A consumer that holds one chunk at a
  /// time and hands each back keeps at most 3 chunk buffers in
  /// circulation: the consumer's, the prefetched one and the one being
  /// filled.  Chunks handed back after the producer finished are freed
  /// with the prefetcher.
  void recycle(std::vector<litmus::LitmusTest>& chunk) {
    std::vector<litmus::LitmusTest> spent = std::move(chunk);
    chunk.clear();  // a moved-from vector is only "valid"
    util::MutexLock lock(mu_);
    spent_.push_back(std::move(spent));
  }

  bool next_chunk(std::vector<litmus::LitmusTest>& out) override {
    Item item;
    {
      util::Timer wait_timer;
      util::MutexLock lock(mu_);
      while (!slot_ && !done_) chunk_ready_.wait(mu_);
      last_wait_seconds_ = wait_timer.seconds();
      if (!slot_) {
        if (error_) std::rethrow_exception(error_);
        return false;
      }
      item = std::move(*slot_);
      slot_.reset();
    }
    slot_free_.notify_one();
    if (out.empty()) {
      out = std::move(item.tests);
    } else {
      for (auto& test : item.tests) out.push_back(std::move(test));
    }
    last_produce_seconds_ = item.produce_seconds;
    last_cursor_ = std::move(item.cursor);
    last_cursor_valid_ = item.cursor_valid;
    last_elided_ = item.elided;
    return item.more;
  }

  /// The wrapped source's cursor as of the most recently *delivered*
  /// chunk — captured by the producer right after materializing it, so
  /// prefetched-ahead chunks never leak into the snapshot.
  [[nodiscard]] bool snapshot_cursor(
      std::vector<std::uint64_t>& out) const override {
    if (!last_cursor_valid_) return false;
    out = last_cursor_;
    return true;
  }

  /// The wrapped source's elided count of the most recently delivered
  /// chunk, captured by the producer with it.
  [[nodiscard]] std::size_t elided() const override { return last_elided_; }

  /// Time the producer spent inside the wrapped source's next_chunk for
  /// the most recently delivered chunk (runs concurrently with the
  /// consumer, so it is overlap, not critical-path wall time).
  [[nodiscard]] double last_produce_seconds() const {
    return last_produce_seconds_;
  }

  /// Time the most recent next_chunk call blocked waiting for the
  /// producer (the part of production the consumer did not overlap).
  [[nodiscard]] double last_wait_seconds() const { return last_wait_seconds_; }

 private:
  struct Item {
    std::vector<litmus::LitmusTest> tests;
    bool more = false;
    double produce_seconds = 0.0;
    std::vector<std::uint64_t> cursor;  // source position after this chunk
    bool cursor_valid = false;
    std::size_t elided = 0;  // the source's elided positions
  };

  void produce() {
    for (;;) {
      Item item;
      {
        util::MutexLock lock(mu_);
        if (!spent_.empty()) {
          item.tests = std::move(spent_.back());
          spent_.pop_back();
        }
      }
      util::Timer timer;
      try {
        item.tests.clear();  // a handed-back chunk's tests die here
        item.more = source_.next_chunk(item.tests);
        item.cursor_valid = source_.snapshot_cursor(item.cursor);
        item.elided = source_.elided();
      } catch (...) {
        util::MutexLock lock(mu_);
        error_ = std::current_exception();
        done_ = true;
        chunk_ready_.notify_all();
        return;
      }
      item.produce_seconds = timer.seconds();
      const bool more = item.more;
      {
        util::MutexLock lock(mu_);
        while (slot_ && !stop_) slot_free_.wait(mu_);
        if (stop_) return;
        slot_ = std::move(item);
        if (!more) done_ = true;
      }
      chunk_ready_.notify_one();
      if (!more) return;
    }
  }

  TestSource& source_;
  std::thread producer_;

  util::Mutex mu_;
  util::CondVar chunk_ready_;  // consumer waits for a chunk
  util::CondVar slot_free_;    // producer waits for the slot to empty
  std::optional<Item> slot_ GUARDED_BY(mu_);  // the prefetched chunk
  bool done_ GUARDED_BY(mu_) = false;  // source exhausted (or errored)
  bool stop_ GUARDED_BY(mu_) = false;  // destructor: abandon production
  std::exception_ptr error_ GUARDED_BY(mu_);
  // Chunks handed back by recycle, not yet refilled.
  std::vector<std::vector<litmus::LitmusTest>> spent_ GUARDED_BY(mu_);
  // Below: consumer-thread-only state (written in next_chunk, read by
  // the consumer's snapshot/stat accessors) — no guard needed.
  double last_produce_seconds_ = 0.0;
  double last_wait_seconds_ = 0.0;
  std::vector<std::uint64_t> last_cursor_;
  bool last_cursor_valid_ = false;
  std::size_t last_elided_ = 0;
};

/// Adapter presenting an in-memory corpus as a chunked stream (tests
/// are moved out chunk by chunk).
class VectorSource final : public TestSource {
 public:
  VectorSource(std::vector<litmus::LitmusTest> tests, std::size_t chunk_size)
      : tests_(std::move(tests)),
        chunk_size_(chunk_size == 0 ? 1 : chunk_size) {}

  bool next_chunk(std::vector<litmus::LitmusTest>& out) override {
    const std::size_t end =
        next_ + chunk_size_ < tests_.size() ? next_ + chunk_size_
                                            : tests_.size();
    for (; next_ < end; ++next_) out.push_back(std::move(tests_[next_]));
    return next_ < tests_.size();
  }

  [[nodiscard]] bool snapshot_cursor(
      std::vector<std::uint64_t>& out) const override {
    out = {next_};
    return true;
  }

  [[nodiscard]] bool restore_cursor(
      const std::vector<std::uint64_t>& cursor) override {
    if (cursor.size() != 1 || cursor[0] > tests_.size()) return false;
    next_ = static_cast<std::size_t>(cursor[0]);
    return true;
  }

 private:
  std::vector<litmus::LitmusTest> tests_;
  std::size_t next_ = 0;
  std::size_t chunk_size_;
};

}  // namespace mcmc::engine
