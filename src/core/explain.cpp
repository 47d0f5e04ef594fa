#include "core/explain.h"

#include <algorithm>

#include "core/checker.h"
#include "core/hb.h"
#include "util/check.h"

namespace mcmc::core {

namespace {

std::string event_label(const Analysis& an, EventId e) {
  const auto& ev = an.event(e);
  return "T" + std::to_string(ev.thread + 1) + ": " +
         core::to_string(*ev.instr);
}

/// Finds a cycle in the forced-edge graph, returned as edge indices into
/// p.forced; empty if the forced edges are acyclic.
std::vector<std::size_t> forced_cycle_edges(const HbProblem& p) {
  // Adjacency by forced-edge index.
  std::vector<std::vector<std::size_t>> out(
      static_cast<std::size_t>(p.num_events));
  for (std::size_t i = 0; i < p.forced.size(); ++i) {
    out[static_cast<std::size_t>(p.forced[i].first)].push_back(i);
  }
  // Iterative DFS with colors; on back edge reconstruct the cycle.
  enum class Color { White, Gray, Black };
  std::vector<Color> color(static_cast<std::size_t>(p.num_events),
                           Color::White);
  std::vector<std::size_t> parent_edge(static_cast<std::size_t>(p.num_events),
                                       SIZE_MAX);
  for (EventId root = 0; root < p.num_events; ++root) {
    if (color[static_cast<std::size_t>(root)] != Color::White) continue;
    std::vector<std::pair<EventId, std::size_t>> stack;  // node, child index
    stack.emplace_back(root, 0);
    color[static_cast<std::size_t>(root)] = Color::Gray;
    while (!stack.empty()) {
      auto& [node, child] = stack.back();
      const auto& edges = out[static_cast<std::size_t>(node)];
      if (child >= edges.size()) {
        color[static_cast<std::size_t>(node)] = Color::Black;
        stack.pop_back();
        continue;
      }
      const std::size_t edge_index = edges[child++];
      const EventId next = p.forced[edge_index].second;
      if (color[static_cast<std::size_t>(next)] == Color::Gray) {
        // Back edge: walk parent_edge from `node` up to `next`.
        std::vector<std::size_t> cycle = {edge_index};
        EventId walk = node;
        while (walk != next) {
          const std::size_t pe = parent_edge[static_cast<std::size_t>(walk)];
          MCMC_CHECK(pe != SIZE_MAX);
          cycle.push_back(pe);
          walk = p.forced[pe].first;
        }
        std::reverse(cycle.begin(), cycle.end());
        return cycle;
      }
      if (color[static_cast<std::size_t>(next)] == Color::White) {
        color[static_cast<std::size_t>(next)] = Color::Gray;
        parent_edge[static_cast<std::size_t>(next)] = edge_index;
        stack.emplace_back(next, 0);
      }
    }
  }
  return {};
}

}  // namespace

ForbiddenExplanation explain_forbidden(const Analysis& an,
                                       const MemoryModel& model,
                                       const Outcome& outcome) {
  ForbiddenExplanation result;
  // The explicit search takes up to 64 events (PreparedTest's rule).
  const Engine engine = an.masks_valid() ? Engine::Explicit : Engine::Sat;
  for (const RfMap& rf : enumerate_read_from(an, outcome)) {
    HbTrace trace;
    const HbProblem p = build_hb_problem_traced(an, model, rf, trace);
    if (hb_satisfiable(p, engine)) {
      result.actually_allowed = true;
      result.candidates.clear();
      return result;
    }
    RfExplanation item;
    item.rf = rf;
    if (p.infeasible) {
      item.summary =
          "read-from map infeasible: a read of the initial value would "
          "skip its own thread's earlier write to the same address";
    } else {
      const auto cycle = forced_cycle_edges(p);
      if (!cycle.empty()) {
        for (const std::size_t i : cycle) {
          const auto [x, y] = p.forced[i];
          item.forced_cycle.push_back(
              event_label(an, x) + "  =>  " + event_label(an, y) + "   [" +
              to_string(trace.forced_origin[i]) + "]");
        }
        item.summary = "the forced happens-before edges close a cycle";
      } else {
        item.summary =
            "every orientation of the write-write / from-read choices "
            "closes a happens-before cycle (" +
            std::to_string(p.disjunctions.size()) + " choice points)";
      }
    }
    result.candidates.push_back(std::move(item));
  }
  if (result.candidates.empty() && !result.actually_allowed) {
    RfExplanation item;
    item.summary =
        "no read-from map matches the outcome (a constrained value is "
        "never written, or only by a program-order-later write of the "
        "same thread)";
    result.candidates.push_back(std::move(item));
  }
  return result;
}

}  // namespace mcmc::core
