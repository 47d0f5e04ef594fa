#include "core/readfrom.h"

#include "util/check.h"

namespace mcmc::core {

namespace {

/// Candidate source writes for read `r`: same location, matching value if
/// the outcome constrains the read, and not a later write of r's thread.
std::vector<EventId> candidates_for(const Analysis& an, EventId r,
                                    const Outcome& outcome) {
  const Event& read = an.event(r);
  const std::optional<int> need = outcome.required(read.instr->dst);
  std::vector<EventId> out;
  if (!need.has_value() || *need == 0) {
    out.push_back(kReadsInitial);
  }
  for (const EventId w : an.writes_to(read.loc)) {
    const Event& write = an.event(w);
    if (write.thread == read.thread && write.index > read.index) {
      continue;  // cannot read from a future write in the same thread
    }
    if (need.has_value() && write.value != *need) continue;
    out.push_back(w);
  }
  return out;
}

/// Checks outcome constraints on registers that are not read destinations:
/// DepConst registers have static values; anything else constrained is a
/// contradiction (undefined registers hold no final value).
bool static_constraints_ok(const Analysis& an, const Outcome& outcome) {
  for (const auto& [reg, value] : outcome.constraints()) {
    bool defined_by_read = false;
    bool ok_static = false;
    bool defined = false;
    for (const auto& ev : an.events()) {
      if (ev.dst != reg) continue;
      defined = true;
      if (ev.op == Op::Read) {
        defined_by_read = true;
      } else if (ev.op == Op::DepConst) {
        ok_static = ev.value == value;
      }
      break;
    }
    if (!defined) return false;
    if (!defined_by_read && !ok_static) return false;
  }
  return true;
}

}  // namespace

std::vector<RfMap> enumerate_read_from(const Analysis& an,
                                       const Outcome& outcome) {
  std::vector<RfMap> result;
  if (!static_constraints_ok(an, outcome)) return result;

  const std::vector<EventId>& reads = an.reads();
  std::vector<std::vector<EventId>> candidates;
  candidates.reserve(reads.size());
  for (const EventId r : reads) {
    candidates.push_back(candidates_for(an, r, outcome));
    if (candidates.back().empty()) return result;  // outcome unreachable
  }

  RfMap rf(static_cast<std::size_t>(an.num_events()), kReadsInitial);
  // Depth-first product of per-read candidates.
  std::vector<std::size_t> cursor(reads.size(), 0);
  std::size_t level = 0;
  for (;;) {
    if (level == reads.size()) {
      result.push_back(rf);
      if (level == 0) break;  // no reads: single empty rf
      --level;
      ++cursor[level];
      continue;
    }
    if (cursor[level] >= candidates[level].size()) {
      if (level == 0) break;
      cursor[level] = 0;
      --level;
      ++cursor[level];
      continue;
    }
    rf[static_cast<std::size_t>(reads[level])] =
        candidates[level][cursor[level]];
    ++level;
  }
  return result;
}

std::vector<Outcome> outcome_space(const Analysis& an) {
  struct ReadValues {
    Reg reg;
    std::vector<int> values;
  };
  std::vector<ReadValues> reads;
  for (const EventId r : an.reads()) {
    ReadValues info;
    info.reg = an.event(r).instr->dst;
    info.values.push_back(0);
    for (const EventId w : an.writes_to(an.event(r).loc)) {
      info.values.push_back(an.event(w).value);
    }
    reads.push_back(std::move(info));
  }
  std::vector<Outcome> out;
  std::vector<std::size_t> idx(reads.size(), 0);
  for (;;) {
    Outcome o;
    for (std::size_t i = 0; i < reads.size(); ++i) {
      o.require(reads[i].reg, reads[i].values[idx[i]]);
    }
    out.push_back(std::move(o));
    std::size_t level = 0;
    while (level < reads.size() &&
           ++idx[level] == reads[level].values.size()) {
      idx[level] = 0;
      ++level;
    }
    if (level == reads.size()) break;
  }
  return out;
}

}  // namespace mcmc::core
