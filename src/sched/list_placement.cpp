#include "sched/list_placement.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "support/interval.h"

namespace argo::sched::detail {

IncomingEdges::IncomingEdges(const SchedContext& ctx) {
  const std::size_t n = ctx.graph.tasks.size();
  first_.assign(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    first_[i + 1] = first_[i] + ctx.pred[i].size();
  }
  dep_.assign(first_[n], nullptr);
  // Walking deps in order and filling only empty slots makes the first
  // edge of a repeated (from, to) pair win, for every slot of that pair.
  for (const htg::Dep& d : ctx.graph.deps) {
    const std::vector<int>& preds = ctx.pred[static_cast<std::size_t>(d.to)];
    const std::size_t base = first(d.to);
    for (std::size_t k = 0; k < preds.size(); ++k) {
      if (preds[k] == d.from && dep_[base + k] == nullptr) {
        dep_[base + k] = &d;
      }
    }
  }
}

namespace {

/// The edge from -> to, or nullptr. Linear in the in-degree of `to`, so for
/// once-per-edge passes only.
const htg::Dep* findEdge(const SchedContext& ctx, const IncomingEdges& edges,
                         int from, int to) {
  const std::vector<int>& preds = ctx.pred[static_cast<std::size_t>(to)];
  for (std::size_t k = 0; k < preds.size(); ++k) {
    if (preds[k] == from) return edges.dep(edges.first(to) + k);
  }
  return nullptr;
}

}  // namespace

std::vector<double> upwardRanks(const SchedContext& ctx,
                                const IncomingEdges& edges) {
  const htg::TaskGraph& graph = ctx.graph;
  const std::size_t n = graph.tasks.size();
  std::vector<double> avgW(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& w = ctx.timings[i].wcetByTile;
    avgW[i] = static_cast<double>(std::accumulate(w.begin(), w.end(),
                                                  Cycles{0})) /
              static_cast<double>(w.size());
  }
  // Representative cross-tile pair for communication averaging.
  const int tileA = 0;
  const int tileB = ctx.platform.coreCount() - 1;
  std::vector<double> rank(n, -1.0);
  // Process in reverse topological order via DFS.
  std::vector<int> state(n, 0);
  std::vector<int> stack;
  for (int root = 0; root < static_cast<int>(n); ++root) {
    if (state[static_cast<std::size_t>(root)] != 0) continue;
    stack.push_back(root);
    while (!stack.empty()) {
      const int t = stack.back();
      if (state[static_cast<std::size_t>(t)] == 0) {
        state[static_cast<std::size_t>(t)] = 1;
        for (int s : ctx.succ[static_cast<std::size_t>(t)]) {
          if (state[static_cast<std::size_t>(s)] == 0) stack.push_back(s);
        }
        continue;
      }
      stack.pop_back();
      if (state[static_cast<std::size_t>(t)] == 2) continue;
      state[static_cast<std::size_t>(t)] = 2;
      double best = 0.0;
      for (int s : ctx.succ[static_cast<std::size_t>(t)]) {
        const htg::Dep* dep = findEdge(ctx, edges, t, s);
        const double comm =
            dep == nullptr
                ? 0.0
                : static_cast<double>(
                      commCost(ctx.platform, *dep, tileA, tileB)) /
                      2.0;
        best = std::max(best, comm + rank[static_cast<std::size_t>(s)]);
      }
      rank[static_cast<std::size_t>(t)] =
          avgW[static_cast<std::size_t>(t)] + best;
    }
  }
  return rank;
}

std::vector<int> priorityOrder(const std::vector<double>& rank) {
  std::vector<int> order(rank.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    if (rank[static_cast<std::size_t>(a)] != rank[static_cast<std::size_t>(b)]) {
      return rank[static_cast<std::size_t>(a)] >
             rank[static_cast<std::size_t>(b)];
    }
    return a < b;  // deterministic tie-break
  });
  return order;
}

ListPlacer::ListPlacer(const SchedContext& ctx, const IncomingEdges& edges,
                       bool interferenceAware)
    : ctx_(ctx), edges_(edges), interferenceAware_(interferenceAware) {
  placements_.resize(ctx.graph.tasks.size());
  tileAvail_.assign(static_cast<std::size_t>(ctx.cores), 0);
  tileOrder_.resize(static_cast<std::size_t>(ctx.cores));
}

void ListPlacer::reset() {
  std::fill(placements_.begin(), placements_.end(), Placement{});
  std::fill(tileAvail_.begin(), tileAvail_.end(), Cycles{0});
  for (std::vector<int>& order : tileOrder_) order.clear();
  makespan_ = 0;
}

Cycles ListPlacer::earliestStart(int task, int tile) const {
  Cycles est = tileAvail_[static_cast<std::size_t>(tile)];
  const std::vector<int>& preds = ctx_.pred[static_cast<std::size_t>(task)];
  const std::size_t base = edges_.first(task);
  for (std::size_t k = 0; k < preds.size(); ++k) {
    const htg::Dep* dep = edges_.dep(base + k);
    const Placement& pp = placements_[static_cast<std::size_t>(preds[k])];
    const Cycles comm =
        dep == nullptr ? 0 : commCost(ctx_.platform, *dep, pp.tile, tile);
    est = std::max(est, pp.finish + comm);
  }
  return est;
}

Cycles ListPlacer::placedCost(int task, int tile, Cycles start) const {
  const Cycles base = baseCost(task, tile);
  if (!interferenceAware_) return base;
  const std::int64_t accesses =
      ctx_.timings[static_cast<std::size_t>(task)].sharedAccesses;
  if (accesses == 0) return base;
  // Contenders: tiles whose currently-placed work overlaps the window
  // this task would occupy (including this task's tile itself).
  const support::Interval window{start, start + base};
  int contenders = 1;
  for (int t = 0; t < ctx_.cores; ++t) {
    if (t == tile) continue;
    for (int other : tileOrder_[static_cast<std::size_t>(t)]) {
      const Placement& op = placements_[static_cast<std::size_t>(other)];
      if (window.overlaps(support::Interval{op.start, op.finish})) {
        ++contenders;
        break;
      }
    }
  }
  const Cycles extra = ctx_.platform.sharedAccessWorstCase(tile, contenders) -
                       ctx_.platform.sharedAccessBase(tile);
  return base + accesses * extra;
}

void ListPlacer::place(int task, int tile, Cycles start, Cycles cost) {
  Placement p;
  p.task = task;
  p.tile = tile;
  p.start = start;
  p.finish = start + cost;
  placements_[static_cast<std::size_t>(task)] = p;
  tileAvail_[static_cast<std::size_t>(tile)] = p.finish;
  tileOrder_[static_cast<std::size_t>(tile)].push_back(task);
  makespan_ = std::max(makespan_, p.finish);
}

Schedule ListPlacer::finish(std::string policy) const {
  Schedule s;
  s.placements = placements_;
  s.tileOrder.assign(
      static_cast<std::size_t>(ctx_.platform.coreCount()), {});
  for (int t = 0; t < ctx_.cores; ++t) {
    s.tileOrder[static_cast<std::size_t>(t)] =
        tileOrder_[static_cast<std::size_t>(t)];
  }
  s.makespan = makespan_;
  for (const auto& order : s.tileOrder) {
    if (!order.empty()) ++s.tilesUsed;
  }
  s.policy = std::move(policy);
  return s;
}

Schedule listSchedule(const SchedContext& ctx, const IncomingEdges& edges,
                      const std::vector<int>& order, bool interferenceAware,
                      std::string policyLabel) {
  ListPlacer placer(ctx, edges, interferenceAware);
  for (int task : order) {
    int bestTile = 0;
    Cycles bestStart = 0;
    Cycles bestCost = 0;
    Cycles bestEft = std::numeric_limits<Cycles>::max();
    for (int t = 0; t < ctx.cores; ++t) {
      const Cycles est = placer.earliestStart(task, t);
      const Cycles cost = placer.placedCost(task, t, est);
      const Cycles eft = est + cost;
      if (eft < bestEft) {
        bestEft = eft;
        bestTile = t;
        bestStart = est;
        bestCost = cost;
      }
    }
    placer.place(task, bestTile, bestStart, bestCost);
  }
  return placer.finish(std::move(policyLabel));
}

Schedule listSchedule(const SchedContext& ctx, bool interferenceAware,
                      std::string policyLabel) {
  const IncomingEdges edges(ctx);
  return listSchedule(ctx, edges, priorityOrder(upwardRanks(ctx, edges)),
                      interferenceAware, std::move(policyLabel));
}

Cycles placeAssignment(ListPlacer& placer, const std::vector<int>& order,
                       const std::vector<int>& tileOf) {
  placer.reset();
  for (int task : order) {
    const int tile = tileOf[static_cast<std::size_t>(task)];
    const Cycles est = placer.earliestStart(task, tile);
    placer.place(task, tile, est, placer.placedCost(task, tile, est));
  }
  return placer.makespan();
}

}  // namespace argo::sched::detail
