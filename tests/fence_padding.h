// Tests beyond the 64 events a mask row holds, built from small ones.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "core/instruction.h"
#include "core/program.h"
#include "litmus/test.h"

namespace mcmc {

/// `test` with `count` fences in front of every thread.  A fence with
/// nothing before it orders nothing, so the padded test has the
/// unpadded test's verdict under every model.
inline litmus::LitmusTest pad_with_fences(const litmus::LitmusTest& test,
                                          int count) {
  std::vector<core::Thread> threads = test.program().threads();
  for (auto& thread : threads) {
    thread.insert(thread.begin(), static_cast<std::size_t>(count),
                  core::make_fence());
  }
  return litmus::LitmusTest(test.name() + "+fences",
                            core::Program(std::move(threads)), test.outcome());
}

}  // namespace mcmc
