// SHA-256 (FIPS 180-4), for tests that pin a byte log by its digest:
// hex() is what `sha256sum` prints for the same bytes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>

namespace mcmc {

class Sha256 {
 public:
  Sha256& update(const char* data, std::size_t len) {
    bits_ += 8 * static_cast<std::uint64_t>(len);
    for (std::size_t i = 0; i < len; ++i) {
      buf_[used_++] = static_cast<unsigned char>(data[i]);
      if (used_ == 64) block();
    }
    return *this;
  }
  Sha256& update(const std::string& bytes) {
    return update(bytes.data(), bytes.size());
  }

  /// The digest in lowercase hex; pads the message, so call it once.
  [[nodiscard]] std::string hex() {
    const std::uint64_t bits = bits_;
    const char one = static_cast<char>(0x80);
    const char zero = 0;
    update(&one, 1);
    while (used_ != 56) update(&zero, 1);
    for (int i = 7; i >= 0; --i) {
      const char byte = static_cast<char>(bits >> (8 * i));
      update(&byte, 1);
    }
    std::string out;
    char digits[9];
    for (const std::uint32_t word : h_) {
      std::snprintf(digits, sizeof digits, "%08x", word);
      out += digits;
    }
    return out;
  }

 private:
  static std::uint32_t rotr(std::uint32_t x, int n) {
    return (x >> n) | (x << (32 - n));
  }

  void block() {
    static constexpr std::uint32_t k[64] = {
        0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
        0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
        0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
        0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
        0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
        0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
        0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
        0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
        0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
        0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
        0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = 0;
      for (int b = 0; b < 4; ++b) w[i] = w[i] << 8 | buf_[4 * i + b];
    }
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 =
          rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 =
          rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    // v holds a..h; each round shifts them one place and mixes in t1/t2.
    std::uint32_t v[8];
    for (int i = 0; i < 8; ++i) v[i] = h_[i];
    for (int i = 0; i < 64; ++i) {
      const std::uint32_t a = v[0];
      const std::uint32_t e = v[4];
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & v[5]) ^ (~e & v[6]);
      const std::uint32_t t1 = v[7] + s1 + ch + k[i] + w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & v[1]) ^ (a & v[2]) ^ (v[1] & v[2]);
      for (int j = 7; j > 0; --j) v[j] = v[j - 1];
      v[4] += t1;
      v[0] = t1 + s0 + maj;
    }
    for (int i = 0; i < 8; ++i) h_[i] += v[i];
    used_ = 0;
  }

  std::uint32_t h_[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                         0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  unsigned char buf_[64] = {};
  std::size_t used_ = 0;
  std::uint64_t bits_ = 0;
};

}  // namespace mcmc
