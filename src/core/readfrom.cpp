#include "core/readfrom.h"

#include <algorithm>
#include <optional>

#include "util/check.h"

namespace mcmc::core {

namespace {

/// No source: what next_source returns past read r's last candidate,
/// and the cursor a read starts from.
constexpr EventId kNoSource = kReadsInitial - 1;

/// The candidate source of read `r` that follows `after` in enumeration
/// order: the initial value first (if the outcome allows 0), then the
/// writes to r's location in event-id order that write the value the
/// outcome requires and are not later writes of r's thread.  kNoSource
/// when none follows.
EventId next_source(const Analysis& an, EventId r, const Outcome& outcome,
                    EventId after) {
  const Event& read = an.event(r);
  const std::optional<int> need = outcome.required(read.instr->dst);
  if (after < kReadsInitial && (!need.has_value() || *need == 0)) {
    return kReadsInitial;
  }
  for (const EventId w : an.writes_to(read.loc)) {
    if (w <= after) continue;
    const Event& write = an.event(w);
    if (write.thread == read.thread && write.index > read.index) {
      continue;  // cannot read from a future write in the same thread
    }
    if (need.has_value() && write.value != *need) continue;
    return w;
  }
  return kNoSource;
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

std::size_t enumerate_read_from(const Analysis& an, const Outcome& outcome,
                                std::vector<EventId>& maps) {
  if (!static_constraints_ok(an, outcome)) return 0;
  const auto n = static_cast<std::size_t>(an.num_events());
  const std::vector<EventId>& reads = an.reads();
  // Depth-first product of per-read candidates, the last read varying
  // fastest.  The map being built is the last n entries of `maps`, and a
  // read's entry is its cursor: candidates come in increasing event id,
  // so the next one is the first after the current entry.  Emitting a
  // map leaves it in place and copies it on as the next working map.
  std::size_t count = 0;
  maps.resize(maps.size() + n, kReadsInitial);
  std::size_t level = 0;
  EventId after = kNoSource;
  for (;;) {
    const std::size_t work = maps.size() - n;
    if (level == reads.size()) {
      ++count;
      maps.resize(maps.size() + n);
      std::copy_n(maps.begin() + static_cast<std::ptrdiff_t>(work), n,
                  maps.begin() + static_cast<std::ptrdiff_t>(work + n));
      if (level == 0) break;  // no reads: single empty rf
      --level;
      after = maps[work + n + static_cast<std::size_t>(reads[level])];
      continue;
    }
    EventId& entry = maps[work + static_cast<std::size_t>(reads[level])];
    entry = next_source(an, reads[level], outcome, after);
    if (entry == kNoSource) {
      if (level == 0) break;
      --level;
      after = maps[work + static_cast<std::size_t>(reads[level])];
      continue;
    }
    ++level;
    after = kNoSource;
  }
  maps.resize(maps.size() - n);  // the working map
  return count;
}

std::vector<RfMap> enumerate_read_from(const Analysis& an,
                                       const Outcome& outcome) {
  std::vector<EventId> flat;
  const std::size_t count = enumerate_read_from(an, outcome, flat);
  const auto n = static_cast<std::ptrdiff_t>(an.num_events());
  std::vector<RfMap> result;
  result.reserve(count);
  for (std::size_t m = 0; m < count; ++m) {
    const auto first = flat.begin() + static_cast<std::ptrdiff_t>(m) * n;
    result.emplace_back(first, first + n);
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
