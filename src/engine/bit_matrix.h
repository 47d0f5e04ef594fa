// Packed verdict matrix: rows of 64-bit words, one bit per (row, col)
// cell.  This is the engine's batch-result representation — tests x
// models from VerdictEngine::run_rows and the stream (row t holds test
// t's model words), models x tests from run_matrix — and the storage
// behind explore::AdmissibilityMatrix, whose row comparisons become
// word-wise AND/XOR sweeps instead of per-cell loops.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/check.h"

namespace mcmc::engine {

class BitMatrix {
 public:
  BitMatrix() = default;
  BitMatrix(int rows, int cols)
      : rows_(checked_dim(rows)),
        cols_(checked_dim(cols)),
        words_per_row_((static_cast<std::size_t>(cols_) + 63) / 64),
        words_(static_cast<std::size_t>(rows_) * words_per_row_, 0) {}

  /// Adopts `words`: rows x words_per_row() words, row-major, with no
  /// bit set beyond `cols` (the layout row() exposes).
  BitMatrix(int rows, int cols, std::vector<std::uint64_t> words)
      : rows_(checked_dim(rows)),
        cols_(checked_dim(cols)),
        words_per_row_((static_cast<std::size_t>(cols_) + 63) / 64),
        words_(std::move(words)) {
    MCMC_REQUIRE(words_.size() ==
                 static_cast<std::size_t>(rows_) * words_per_row_);
    const std::size_t tail = static_cast<std::size_t>(cols_) % 64;
    for (std::size_t w = words_per_row_; tail != 0 && w <= words_.size();
         w += words_per_row_) {
      MCMC_REQUIRE(words_[w - 1] >> tail == 0);
    }
  }

  [[nodiscard]] int rows() const { return rows_; }
  [[nodiscard]] int cols() const { return cols_; }
  [[nodiscard]] std::size_t words_per_row() const { return words_per_row_; }

  [[nodiscard]] bool get(int r, int c) const {
    check_cell(r, c);
    return (row(r)[static_cast<std::size_t>(c) / 64] >>
            (static_cast<std::size_t>(c) % 64)) &
           1ULL;
  }

  void set(int r, int c, bool value) {
    check_cell(r, c);
    std::uint64_t& word =
        words_[static_cast<std::size_t>(r) * words_per_row_ +
               static_cast<std::size_t>(c) / 64];
    const std::uint64_t mask = 1ULL << (static_cast<std::size_t>(c) % 64);
    if (value) {
      word |= mask;
    } else {
      word &= ~mask;
    }
  }

  /// Word pointer for row `r`; bits beyond `cols()` are zero.
  [[nodiscard]] const std::uint64_t* row(int r) const {
    MCMC_REQUIRE(r >= 0 && r < rows_);
    return words_.data() + static_cast<std::size_t>(r) * words_per_row_;
  }

  /// The cols() x rows() matrix: bit (c, r) is this one's (r, c).
  [[nodiscard]] BitMatrix transposed() const {
    BitMatrix out(cols_, rows_);
    for (int r = 0; r < rows_; ++r) {
      const std::uint64_t* bits = row(r);
      const std::size_t word = static_cast<std::size_t>(r) / 64;
      const std::uint64_t mask = 1ULL << (static_cast<std::size_t>(r) % 64);
      for (std::size_t w = 0; w < words_per_row_; ++w) {
        for (std::uint64_t set = bits[w]; set != 0; set &= set - 1) {
          const std::size_t c =
              w * 64 + static_cast<std::size_t>(__builtin_ctzll(set));
          out.words_[c * out.words_per_row_ + word] |= mask;
        }
      }
    }
    return out;
  }

  /// True iff rows `a` and `b` hold identical bits.
  [[nodiscard]] bool rows_equal(int a, int b) const {
    const std::uint64_t* ra = row(a);
    const std::uint64_t* rb = row(b);
    for (std::size_t w = 0; w < words_per_row_; ++w) {
      if (ra[w] != rb[w]) return false;
    }
    return true;
  }

  friend bool operator==(const BitMatrix& a, const BitMatrix& b) {
    return a.rows_ == b.rows_ && a.cols_ == b.cols_ && a.words_ == b.words_;
  }
  friend bool operator!=(const BitMatrix& a, const BitMatrix& b) {
    return !(a == b);
  }

 private:
  static int checked_dim(int dim) {
    MCMC_REQUIRE(dim >= 0);
    return dim;
  }

  void check_cell(int r, int c) const {
    MCMC_REQUIRE(r >= 0 && r < rows_ && c >= 0 && c < cols_);
  }

  int rows_ = 0;
  int cols_ = 0;
  std::size_t words_per_row_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace mcmc::engine
