// Fixed-layout byte serialization for the on-disk store formats.
//
// Everything the persistence layer writes is a sequence of fixed-width
// little-endian integers: explicit width, explicit byte order, no
// padding, no in-memory struct images — so a file written on one
// machine parses identically on any other, and a parser can
// bounds-check every field before touching it.  The append_* helpers
// grow a string field by field; ByteWriter fills a buffer sized up
// front with direct stores, for the store's large files.  ByteReader is
// the load-side half: it never reads past the buffer, and instead of
// throwing it latches a failure flag the caller checks once at the end
// (corrupted input is an expected case for the store, not a logic
// error).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "util/hash128.h"

namespace mcmc::util {

inline void append_u32(std::string& out, std::uint32_t v) {
  char buf[4];
  for (int i = 0; i < 4; ++i) buf[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  out.append(buf, 4);
}

inline void append_u64(std::string& out, std::uint64_t v) {
  char buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  out.append(buf, 8);
}

inline void append_key128(std::string& out, const Key128& k) {
  append_u64(out, k.hi);
  append_u64(out, k.lo);
}

/// Sequential writer into a buffer its caller sized up front: each
/// field is stored little-endian at the cursor (the byte loop compiles
/// to one store), with no bounds check and no growth.  The caller
/// computes the exact size first and checks position() at the end.
class ByteWriter {
 public:
  explicit ByteWriter(char* data) : pos_(data) {}

  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) pos_[i] = static_cast<char>(v >> (8 * i));
    pos_ += 4;
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) pos_[i] = static_cast<char>(v >> (8 * i));
    pos_ += 8;
  }
  void key128(const Key128& k) {
    u64(k.hi);
    u64(k.lo);
  }
  void bytes(const char* data, std::size_t n) {
    std::memcpy(pos_, data, n);
    pos_ += n;
  }

  [[nodiscard]] char* position() const { return pos_; }

 private:
  char* pos_;
};

/// Bounds-checked sequential reader over an immutable byte buffer.
/// Every accessor returns a value (zero on failure) and any
/// out-of-bounds read marks the reader failed; callers validate with
/// ok() after parsing a section instead of checking every field.
class ByteReader {
 public:
  ByteReader(const char* data, std::size_t size) : data_(data), size_(size) {}
  explicit ByteReader(const std::string& buffer)
      : ByteReader(buffer.data(), buffer.size()) {}

  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] std::size_t position() const { return pos_; }
  [[nodiscard]] std::size_t remaining() const { return size_ - pos_; }

  std::uint32_t read_u32() {
    if (!take(4)) return 0;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(
               static_cast<unsigned char>(data_[pos_ - 4 + i]))
           << (8 * i);
    }
    return v;
  }

  std::uint64_t read_u64() {
    if (!take(8)) return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(
               static_cast<unsigned char>(data_[pos_ - 8 + i]))
           << (8 * i);
    }
    return v;
  }

  Key128 read_key128() {
    Key128 k;
    k.hi = read_u64();
    k.lo = read_u64();
    return k;
  }

  /// Pointer to `n` raw bytes at the cursor, or nullptr (and failure)
  /// when fewer remain.
  const char* read_bytes(std::size_t n) {
    if (!take(n)) return nullptr;
    return data_ + (pos_ - n);
  }

  /// Marks the reader failed (a caller-detected semantic error, e.g. a
  /// count field that implies more bytes than the section holds).
  void fail() { ok_ = false; }

 private:
  bool take(std::size_t n) {
    if (!ok_ || size_ - pos_ < n) {
      ok_ = false;
      return false;
    }
    pos_ += n;
    return true;
  }

  const char* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace mcmc::util
