// A test-side tally of a stream's repeat marks (TestSource::repeat_marks).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "engine/test_stream.h"
#include "litmus/test.h"

namespace mcmc {

/// Forwards a source, marks and cursors included, and tallies what it
/// delivers: tests, marked tests, programs with an unmarked test, and
/// programs whose tests are not marked alike.  Programs are told apart
/// by the "x<p>" prefix of their tests' "x<p>.<o>" names, not by object
/// address: a recycled chunk's storage makes addresses recur.  Under
/// run_stream it runs on the prefetcher's thread, so read it after the
/// stream returns.
class RepeatMarkTally final : public engine::TestSource {
 public:
  explicit RepeatMarkTally(engine::TestSource& inner) : inner_(inner) {}

  bool next_chunk(std::vector<litmus::LitmusTest>& out) override {
    const std::size_t first = out.size();
    const bool more = inner_.next_chunk(out);
    const std::vector<char>* marks = inner_.repeat_marks();
    for (std::size_t i = first; i < out.size(); ++i) {
      const bool marked = marks != nullptr && (*marks)[i - first] != 0;
      const std::string& name = out[i].name();
      const std::string program = name.substr(0, name.find('.'));
      if (program != program_) {
        program_ = program;
        program_marked_ = marked;
        if (!marked) ++unmarked_programs_;
      } else if (marked != program_marked_) {
        ++mixed_programs_;
      }
      ++tests_;
      if (marked) ++marked_tests_;
    }
    return more;
  }
  [[nodiscard]] bool snapshot_cursor(
      std::vector<std::uint64_t>& out) const override {
    return inner_.snapshot_cursor(out);
  }
  [[nodiscard]] bool restore_cursor(
      const std::vector<std::uint64_t>& cursor) override {
    return inner_.restore_cursor(cursor);
  }
  [[nodiscard]] const std::vector<char>* repeat_marks() const override {
    return inner_.repeat_marks();
  }

  [[nodiscard]] std::size_t tests() const { return tests_; }
  [[nodiscard]] std::size_t marked_tests() const { return marked_tests_; }
  [[nodiscard]] std::size_t unmarked_programs() const {
    return unmarked_programs_;
  }
  [[nodiscard]] std::size_t mixed_programs() const { return mixed_programs_; }

 private:
  engine::TestSource& inner_;
  std::string program_;  // prefix of the last test's name
  bool program_marked_ = false;
  std::size_t tests_ = 0;
  std::size_t marked_tests_ = 0;
  std::size_t unmarked_programs_ = 0;
  std::size_t mixed_programs_ = 0;
};

}  // namespace mcmc
