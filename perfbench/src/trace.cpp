#include "trace.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>

namespace perfbench {

int thread_index() {
  static std::atomic<int> next{0};
  thread_local const int index = next.fetch_add(1);
  return index;
}

void Tracer::record(const Span& span) {
  mcmc::util::MutexLock lock(mu_);
  spans_.push_back(span);
}

std::vector<Span> Tracer::spans() const {
  mcmc::util::MutexLock lock(mu_);
  return spans_;
}

void nest_spans(std::vector<Span>& spans) {
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
    return a.end_ns > b.end_ns;
  });
  // Spans of one thread nest (each is a scope on that thread's stack),
  // so in this order a span's parent is the innermost open span that
  // ends at or after it.  Direct children of one parent are disjoint,
  // so subtracting their durations subtracts the time they cover.
  std::vector<std::size_t> open;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    Span& span = spans[i];
    span.self_ns = span.duration_ns();
    while (!open.empty() && (spans[open.back()].tid != span.tid ||
                             spans[open.back()].end_ns < span.end_ns)) {
      open.pop_back();
    }
    if (!open.empty()) spans[open.back()].self_ns -= span.duration_ns();
    open.push_back(i);
  }
}

namespace {

void write_json_string(std::FILE* out, const char* text) {
  std::fputc('"', out);
  for (const char* c = text; *c != '\0'; ++c) {
    if (*c == '"' || *c == '\\') std::fputc('\\', out);
    std::fputc(*c, out);
  }
  std::fputc('"', out);
}

}  // namespace

bool write_chrome_trace(const std::vector<Span>& spans, const std::string& path,
                        std::string* error) {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> out(
      std::fopen(path.c_str(), "w"), &std::fclose);
  if (out == nullptr) {
    if (error != nullptr) *error = "cannot write " + path;
    return false;
  }
  std::FILE* f = out.get();
  std::fputs("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n", f);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fputs("{\"ph\": \"X\", \"pid\": 1, \"name\": ", f);
    write_json_string(f, s.name);
    std::fputs(", \"cat\": ", f);
    write_json_string(f, s.layer);
    std::fprintf(f,
                 ", \"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                 "{\"self_us\": %.3f",
                 s.tid, static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.duration_ns()) / 1e3,
                 static_cast<double>(s.self_ns) / 1e3);
    if (s.id != 0) {
      std::fprintf(f, ", \"id\": %llu", static_cast<unsigned long long>(s.id));
    }
    if (s.kind != nullptr) {
      std::fputs(", \"kind\": ", f);
      write_json_string(f, s.kind);
    }
    std::fputs(i + 1 < spans.size() ? "}},\n" : "}}\n", f);
  }
  std::fputs("]}\n", f);
  // Closing flushes the buffer, so its result counts too.
  const bool written = std::ferror(f) == 0;
  const bool closed = std::fclose(out.release()) == 0;
  if (!written || !closed) {
    if (error != nullptr) *error = "write error on " + path;
    return false;
  }
  return true;
}

SpanTotals totals(const std::vector<Span>& spans, const std::string& name) {
  SpanTotals t;
  for (const Span& s : spans) {
    if (name != s.name) continue;
    ++t.count;
    t.total_ns += s.duration_ns();
    t.self_ns += s.self_ns;
  }
  return t;
}

}  // namespace perfbench
