// In-memory span recording for the benchmark's traced runs.
//
// Spans are recorded from the benchmark's own files, around calls into
// the repository's public functions (see wrappers.h), never from inside
// the program.  They stay in memory until the run ends, when they are
// nested per thread (a span's parent is the innermost span on the same
// thread that encloses it), given their self time — duration minus the
// part of it that child spans cover — and written out as Chrome
// trace-event JSON, which chrome://tracing and Perfetto open directly.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace perfbench {

/// One timed interval on one thread.  `name`, `layer` and `kind` point
/// at string literals, so recording a span never allocates a string.
struct Span {
  const char* name = "";
  const char* layer = "";        ///< repository module the call entered
  std::int64_t start_ns = 0;     ///< since the tracer's epoch
  std::int64_t end_ns = 0;
  int tid = 0;                   ///< see thread_index()
  std::uint64_t id = 0;          ///< request id, 0 for none
  const char* kind = nullptr;    ///< request kind, if any
  std::int64_t self_ns = 0;      ///< filled in by nest_spans()

  [[nodiscard]] std::int64_t duration_ns() const { return end_ns - start_ns; }
};

/// Small dense id of the calling thread (0 for the first thread that
/// asks), stable for the thread's lifetime.
[[nodiscard]] int thread_index();

class Tracer {
 public:
  Tracer() : epoch_(std::chrono::steady_clock::now()) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  /// Thread-safe.
  void record(const Span& span) EXCLUDES(mu_);

  /// A copy of every span recorded so far, in recording order.
  [[nodiscard]] std::vector<Span> spans() const EXCLUDES(mu_);

 private:
  std::chrono::steady_clock::time_point epoch_;
  mutable mcmc::util::Mutex mu_;
  std::vector<Span> spans_ GUARDED_BY(mu_);
};

/// Records one span over its scope; a null tracer records nothing, so
/// untraced runs pay one branch.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, const char* layer,
             std::uint64_t id = 0, const char* kind = nullptr)
      : tracer_(tracer) {
    if (tracer_ == nullptr) return;
    span_.name = name;
    span_.layer = layer;
    span_.id = id;
    span_.kind = kind;
    span_.tid = thread_index();
    span_.start_ns = tracer_->now_ns();
  }
  ~ScopedSpan() {
    if (tracer_ == nullptr) return;
    span_.end_ns = tracer_->now_ns();
    tracer_->record(span_);
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  Span span_;
};

/// Orders `spans` by (thread, start, longest first) and fills in each
/// span's self_ns: its duration minus that of its direct children.
void nest_spans(std::vector<Span>& spans);

/// Writes nested `spans` as Chrome trace-event JSON.  False with
/// `error` set if the file cannot be written.
[[nodiscard]] bool write_chrome_trace(const std::vector<Span>& spans,
                                      const std::string& path,
                                      std::string* error);

/// Sum of durations and of self times of the spans named `name`.
struct SpanTotals {
  std::size_t count = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
};
[[nodiscard]] SpanTotals totals(const std::vector<Span>& spans,
                                const std::string& name);

}  // namespace perfbench
