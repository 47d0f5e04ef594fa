// A test-side tally of what an eliding stream delivers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "engine/test_stream.h"
#include "litmus/test.h"

namespace mcmc {

/// Forwards a source, its cursors and, unless `forward_opt_in` is
/// false, the opt-in to elide repeats (with the restored run head), and
/// tallies what it delivers:
/// tests built, stream positions elided, programs built, chunks that
/// elided every position, and the cursor words after every chunk.
/// Without the opt-in it is the full-build path: its consumer sees
/// every test.  Programs are told apart by the "x<p>" prefix of their
/// tests' "x<p>.<o>" names, not by object address: a recycled chunk's
/// storage makes addresses recur.  Under run_stream it runs on the
/// prefetcher's thread, so read it after the stream returns.
class ElisionTally final : public engine::TestSource {
 public:
  explicit ElisionTally(engine::TestSource& inner, bool forward_opt_in = true)
      : inner_(inner), forward_opt_in_(forward_opt_in) {}

  bool next_chunk(std::vector<litmus::LitmusTest>& out) override {
    const std::size_t first = out.size();
    const bool more = inner_.next_chunk(out);
    for (std::size_t i = first; i < out.size(); ++i) {
      const std::string& name = out[i].name();
      const std::string program = name.substr(0, name.find('.'));
      if (program != program_) {
        program_ = program;
        ++built_programs_;
      }
    }
    built_tests_ += out.size() - first;
    elided_tests_ += inner_.elided();
    if (out.size() == first && inner_.elided() > 0) ++all_elided_chunks_;
    std::vector<std::uint64_t> cursor;
    if (inner_.snapshot_cursor(cursor)) cursors_.push_back(std::move(cursor));
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
  bool elide_repeats() override {
    return forward_opt_in_ && inner_.elide_repeats();
  }
  [[nodiscard]] std::size_t elided() const override { return inner_.elided(); }
  void restored_run_head(std::vector<litmus::LitmusTest>& out) const override {
    inner_.restored_run_head(out);
  }

  [[nodiscard]] std::size_t built_tests() const { return built_tests_; }
  [[nodiscard]] std::size_t elided_tests() const { return elided_tests_; }
  [[nodiscard]] std::size_t built_programs() const { return built_programs_; }
  [[nodiscard]] std::size_t all_elided_chunks() const {
    return all_elided_chunks_;
  }
  /// The cursor words after every pull.
  [[nodiscard]] const std::vector<std::vector<std::uint64_t>>& cursors() const {
    return cursors_;
  }

 private:
  engine::TestSource& inner_;
  const bool forward_opt_in_;
  std::string program_;  // prefix of the last built test's name
  std::size_t built_tests_ = 0;
  std::size_t elided_tests_ = 0;
  std::size_t built_programs_ = 0;
  std::size_t all_elided_chunks_ = 0;
  std::vector<std::vector<std::uint64_t>> cursors_;
};

}  // namespace mcmc
