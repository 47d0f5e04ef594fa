// Test-side CNF tools: DIMACS text in and out, and a brute-force SAT
// reference that the CDCL solver and the happens-before encoding are
// differential-tested against.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "sat/types.h"
#include "util/check.h"
#include "util/strings.h"

namespace mcmc::sat {

/// Parses DIMACS CNF text ("p cnf V C" header, clauses terminated by 0).
/// Throws std::invalid_argument on malformed input.
inline Cnf parse_dimacs(const std::string& text) {
  Cnf cnf;
  bool seen_header = false;
  int declared_clauses = 0;
  Clause current;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    const std::string t = util::trim(line);
    if (t.empty() || t[0] == 'c') continue;
    if (t[0] == 'p') {
      const auto fields = util::split_ws(t);
      if (fields.size() != 4 || fields[1] != "cnf") {
        throw std::invalid_argument("dimacs: bad problem line: " + t);
      }
      cnf.num_vars = static_cast<int>(util::parse_int(fields[2]));
      declared_clauses = static_cast<int>(util::parse_int(fields[3]));
      seen_header = true;
      continue;
    }
    if (!seen_header) {
      throw std::invalid_argument("dimacs: clause before problem line");
    }
    for (const auto& tok : util::split_ws(t)) {
      const long long v = util::parse_int(tok);
      if (v == 0) {
        cnf.clauses.push_back(current);
        current.clear();
        continue;
      }
      const auto var = static_cast<Var>(std::llabs(v) - 1);
      if (var >= cnf.num_vars) {
        throw std::invalid_argument("dimacs: variable out of range: " + tok);
      }
      current.push_back(Lit(var, v < 0));
    }
  }
  if (!current.empty()) {
    throw std::invalid_argument("dimacs: unterminated clause");
  }
  if (declared_clauses != static_cast<int>(cnf.clauses.size())) {
    throw std::invalid_argument("dimacs: clause count mismatch");
  }
  return cnf;
}

/// Renders a formula as DIMACS CNF text.
inline std::string to_dimacs(const Cnf& cnf) {
  std::ostringstream out;
  out << "p cnf " << cnf.num_vars << ' ' << cnf.clauses.size() << '\n';
  for (const auto& clause : cnf.clauses) {
    for (const Lit l : clause) {
      MCMC_REQUIRE(l.var() < cnf.num_vars);
      out << (l.negated() ? -(l.var() + 1) : (l.var() + 1)) << ' ';
    }
    out << "0\n";
  }
  return out.str();
}

/// Decides satisfiability by exhaustive enumeration (feasible up to ~24
/// variables).  Returns a model if satisfiable, std::nullopt otherwise.
inline std::optional<std::vector<bool>> brute_force_solve(const Cnf& cnf) {
  MCMC_REQUIRE_MSG(cnf.num_vars <= 24, "brute force capped at 24 variables");
  const std::uint64_t limit = 1ULL << cnf.num_vars;
  for (std::uint64_t bits = 0; bits < limit; ++bits) {
    bool all_satisfied = true;
    for (const auto& clause : cnf.clauses) {
      bool satisfied = false;
      for (const Lit l : clause) {
        const bool v = ((bits >> l.var()) & 1) != 0;
        if (v != l.negated()) {
          satisfied = true;
          break;
        }
      }
      if (!satisfied) {
        all_satisfied = false;
        break;
      }
    }
    if (all_satisfied) {
      std::vector<bool> model(static_cast<std::size_t>(cnf.num_vars));
      for (int v = 0; v < cnf.num_vars; ++v) model[v] = ((bits >> v) & 1) != 0;
      return model;
    }
  }
  return std::nullopt;
}

}  // namespace mcmc::sat
