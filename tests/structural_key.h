// The syntactic identity key of a test, as a string: the reference
// that litmus::structural_fingerprint (its 128-bit digest, which the
// stream's structural dedup uses) is checked against.
#pragma once

#include <charconv>
#include <string>

#include "litmus/test.h"

namespace mcmc {

/// Clears `key` and writes `test`'s structural key into it: equal keys
/// mean the programs match instruction for instruction (same thread
/// order, locations, registers) and the outcomes constrain the same
/// registers to the same values.
inline void structural_key(const litmus::LitmusTest& test, std::string& key) {
  const auto append_int = [&key](long long v) {
    char buf[24];
    key.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
  };
  key.clear();
  for (const auto& thread : test.program().threads()) {
    key += '|';
    for (const auto& instr : thread) {
      key += ';';
      append_int(static_cast<int>(instr.op));
      key += ',';
      append_int(instr.loc);
      key += ',';
      append_int(instr.addr_reg);
      key += ',';
      append_int(instr.dst);
      key += ',';
      append_int(instr.src);
      key += ',';
      append_int(instr.value);
      key += ',';
      append_int(static_cast<int>(instr.value_from_reg));
    }
  }
  key += '#';
  for (const auto& [reg, value] : test.outcome().constraints()) {
    append_int(reg);
    key += '=';
    append_int(value);
    key += ';';
  }
}

inline std::string structural_key(const litmus::LitmusTest& test) {
  std::string key;
  structural_key(test, key);
  return key;
}

}  // namespace mcmc
