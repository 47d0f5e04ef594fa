// 128-bit non-cryptographic content hashing for dedup keys.
//
// The streaming pipeline deduplicates millions of litmus tests by
// canonical key.  Retaining the key strings themselves costs ~200 bytes
// per class (the ~100 MB peak RSS of the full naive-space run); a
// 128-bit digest costs 16, and at the corpus sizes here (~half a
// million classes) the collision probability of a well-mixed 128-bit
// hash is ~1e-27 — far below any hardware error rate.  The stream
// audit (engine::AuditedSource) re-verifies the no-collision assumption
// against the full strings on demand.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>

namespace mcmc::util {

/// A 128-bit hash value.
struct Key128 {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  friend bool operator==(const Key128& a, const Key128& b) {
    return a.hi == b.hi && a.lo == b.lo;
  }
  friend bool operator!=(const Key128& a, const Key128& b) {
    return !(a == b);
  }
  /// Lexicographic (hi, lo) order, so "minimum over thread
  /// permutations" is well defined for fingerprints just as it is for
  /// key strings.
  friend bool operator<(const Key128& a, const Key128& b) {
    return a.hi != b.hi ? a.hi < b.hi : a.lo < b.lo;
  }
};

/// Hash functor for unordered containers keyed by Key128 (the value is
/// already mixed, so folding the halves is enough).
struct Key128Hash {
  std::size_t operator()(const Key128& k) const noexcept {
    return static_cast<std::size_t>(k.lo ^ (k.hi * 0x9e3779b97f4a7c15ULL));
  }
};

/// splitmix64 finalizer: full-avalanche 64-bit mix.
inline std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

/// Hashes `len` bytes into a Key128: two independently seeded 64-bit
/// lanes, each fed every 8-byte word through the splitmix64 finalizer,
/// cross-mixed at the end so the halves never collide in tandem.
inline Key128 hash128(const char* data, std::size_t len) {
  std::uint64_t h1 = 0x9e3779b97f4a7c15ULL ^ len;
  std::uint64_t h2 = 0xc2b2ae3d27d4eb4fULL ^ (len * 0xff51afd7ed558ccdULL);
  std::size_t i = 0;
  for (; i + 8 <= len; i += 8) {
    std::uint64_t w = 0;
    std::memcpy(&w, data + i, 8);
    h1 = mix64(h1 ^ w);
    h2 = mix64(h2 + w + 0x165667b19e3779f9ULL);
  }
  if (i < len) {
    std::uint64_t w = 0;
    std::memcpy(&w, data + i, len - i);
    h1 = mix64(h1 ^ w);
    h2 = mix64(h2 + w + 0x165667b19e3779f9ULL);
  }
  Key128 out;
  out.hi = mix64(h1 ^ h2);
  out.lo = mix64(h2 ^ out.hi);
  return out;
}

inline Key128 hash128(const std::string& s) {
  return hash128(s.data(), s.size());
}

/// Incremental word-at-a-time variant of hash128 for callers that
/// produce their content as a stream of 64-bit words instead of a
/// byte buffer (litmus::canonical_fingerprint): same two-lane
/// splitmix64 construction, no intermediate string.  Equal word
/// sequences (length included — it is folded into the finish) give
/// equal keys; this is a distinct domain from the byte-oriented
/// hash128 overloads, which is fine because fingerprints and string
/// hashes are never mixed in one dedup set.
class Hash128Stream {
 public:
  void absorb(std::uint64_t w) {
    h1_ = mix64(h1_ ^ w);
    h2_ = mix64(h2_ + w + 0x165667b19e3779f9ULL);
    ++words_;
  }

  [[nodiscard]] Key128 finish() const {
    const std::uint64_t a = mix64(h1_ ^ (words_ * 0xff51afd7ed558ccdULL));
    const std::uint64_t b = mix64(h2_ + words_);
    Key128 out;
    out.hi = mix64(a ^ b);
    out.lo = mix64(b ^ out.hi);
    return out;
  }

 private:
  std::uint64_t h1_ = 0x9e3779b97f4a7c15ULL;
  std::uint64_t h2_ = 0xc2b2ae3d27d4eb4fULL;
  std::uint64_t words_ = 0;
};

}  // namespace mcmc::util
