// Programs: a fixed number of threads, each a straight-line instruction
// sequence (Section 2.1 of the paper; loops are unrolled, and the bounded
// litmus tests the paper constructs are loop-free).
#pragma once

#include <string>
#include <vector>

#include "core/instruction.h"

namespace mcmc::core {

/// One thread's instruction sequence.
using Thread = std::vector<Instruction>;

/// A multithreaded straight-line program.
class Program {
 public:
  Program() = default;
  explicit Program(std::vector<Thread> threads);

  [[nodiscard]] int num_threads() const {
    return static_cast<int>(threads_.size());
  }
  [[nodiscard]] const Thread& thread(int t) const;
  [[nodiscard]] Thread& mutable_thread(int t);
  [[nodiscard]] const std::vector<Thread>& threads() const { return threads_; }

  /// Appends a thread and returns its index.
  int add_thread(Thread thread);

  /// Total instruction count across threads.
  [[nodiscard]] int size() const;

  /// Count of memory access instructions (reads + writes).
  [[nodiscard]] int num_memory_accesses() const;

  /// Largest location index used, plus one.
  [[nodiscard]] int num_locations() const;

  /// Validates the static-resolvability rules; throws std::invalid_argument
  /// with a diagnostic if violated:
  ///   * each register is defined exactly once, before any use, and used
  ///     only within its defining thread,
  ///   * address registers and write-value registers resolve to DepConst
  ///     definitions (statically known addresses and store values).
  void validate() const;

  /// validate(), then marks the program valid, so that core::Analysis
  /// does not validate it again.  A program is marked before it is
  /// shared (litmus::LitmusTest's constructor): the mark is written only
  /// through a non-const program, and add_thread and mutable_thread
  /// clear it.
  void validate_and_mark();
  [[nodiscard]] bool marked_valid() const { return marked_valid_; }

  /// Renders the program as a side-by-side table of threads.
  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const Program& a, const Program& b);

 private:
  std::vector<Thread> threads_;
  bool marked_valid_ = false;  ///< validate() passed since the last change
};

bool operator==(const Instruction& a, const Instruction& b);

}  // namespace mcmc::core
