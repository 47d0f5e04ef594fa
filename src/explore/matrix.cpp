#include "explore/matrix.h"

#include "util/check.h"

namespace mcmc::explore {

std::string to_string(Relation r) {
  switch (r) {
    case Relation::Equivalent:
      return "equivalent";
    case Relation::FirstWeaker:
      return "weaker";
    case Relation::FirstStronger:
      return "stronger";
    case Relation::Incomparable:
      return "incomparable";
  }
  MCMC_UNREACHABLE("bad relation");
}

AdmissibilityMatrix::AdmissibilityMatrix(
    const std::vector<core::MemoryModel>& models,
    const std::vector<litmus::LitmusTest>& tests) {
  engine::VerdictEngine eng;
  bits_ = eng.run_matrix(models, tests);
  stats_ = eng.last_stats();
}

AdmissibilityMatrix::AdmissibilityMatrix(
    engine::VerdictEngine& eng, const std::vector<core::MemoryModel>& models,
    const std::vector<litmus::LitmusTest>& tests) {
  bits_ = eng.run_matrix(models, tests);
  stats_ = eng.last_stats();
}

Relation AdmissibilityMatrix::compare(int a, int b) const {
  MCMC_REQUIRE(a >= 0 && a < num_models());
  MCMC_REQUIRE(b >= 0 && b < num_models());
  const std::uint64_t* ra = bits_.row(a);
  const std::uint64_t* rb = bits_.row(b);
  bool first_extra = false;
  bool second_extra = false;
  for (std::size_t w = 0; w < bits_.words_per_row(); ++w) {
    first_extra |= (ra[w] & ~rb[w]) != 0;
    second_extra |= (rb[w] & ~ra[w]) != 0;
  }
  if (first_extra && second_extra) return Relation::Incomparable;
  if (first_extra) return Relation::FirstWeaker;
  if (second_extra) return Relation::FirstStronger;
  return Relation::Equivalent;
}

std::vector<int> AdmissibilityMatrix::distinguishing_tests(int a,
                                                           int b) const {
  MCMC_REQUIRE(a >= 0 && a < num_models());
  MCMC_REQUIRE(b >= 0 && b < num_models());
  const std::uint64_t* ra = bits_.row(a);
  const std::uint64_t* rb = bits_.row(b);
  std::vector<int> out;
  for (std::size_t w = 0; w < bits_.words_per_row(); ++w) {
    std::uint64_t diff = ra[w] ^ rb[w];
    while (diff != 0) {
      out.push_back(static_cast<int>(w * 64) + __builtin_ctzll(diff));
      diff &= diff - 1;
    }
  }
  return out;
}

std::vector<int> AdmissibilityMatrix::allowed_by_first_only(int a,
                                                            int b) const {
  MCMC_REQUIRE(a >= 0 && a < num_models());
  MCMC_REQUIRE(b >= 0 && b < num_models());
  const std::uint64_t* ra = bits_.row(a);
  const std::uint64_t* rb = bits_.row(b);
  std::vector<int> out;
  for (std::size_t w = 0; w < bits_.words_per_row(); ++w) {
    std::uint64_t extra = ra[w] & ~rb[w];
    while (extra != 0) {
      out.push_back(static_cast<int>(w * 64) + __builtin_ctzll(extra));
      extra &= extra - 1;
    }
  }
  return out;
}

}  // namespace mcmc::explore
