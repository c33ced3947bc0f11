#include "sched/bnb.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <utility>

#include "sched/list_placement.h"
#include "sched/policy.h"
#include "support/metrics.h"

namespace argo::sched {

namespace {

// ---------------------------------------------------------------------------
// Why the split search is bit-identical to the classic monolithic DFS
// ---------------------------------------------------------------------------
//
// The classic search is a depth-first traversal: at each node the children
// are generated in (task ascending, tile ascending) order — keeping only
// those whose makespan is below the best bound *at generation time* — and
// then visited in reverse generation order (newest-first), each child's
// whole subtree before the next. A node is pruned when its admissible
// lower bound `lb` reaches the best complete makespan seen so far (strict
// improvements only), which starts at the HEFT seed. Its result is the
// *first complete schedule, in that traversal order, attaining the
// search-space optimum* (or the seed incumbent when nothing beats it).
//
// The traversal runs in place: one Frame per subtree, each child applied
// before its subtree is searched and reverted after, with the child list
// of every level kept until its last child returns. That is the same
// traversal as the frame-copying explicit stack it replaced, node for
// node: pushing the children in generation order and popping newest-first
// visits them in reverse generation order, and LIFO finishes a child's
// subtree before popping its older sibling. Every other decision is taken
// at the same moment with the same inputs:
//  - the push filter compares against `localBest` when the children are
//    generated, i.e. when their parent is entered;
//  - a node is counted, and checked against the budget, when it is
//    entered — where the stack counted a pop — so a truncated search stops
//    at the same node;
//  - a complete node is recorded on a strict improvement; otherwise
//    `lb >= localBest` and then `lb > incumbent` are checked before
//    expanding, exactly as at a pop.
// Child generation reads precomputed tables (predecessor masks, the
// [edge slot][from tile][to tile] communication table, tasks ordered by
// critical path) that hold the values the per-node lookups returned, so
// every child's start and finish — and every lower bound — is unchanged.
// tests/bnb_test.cpp compares this search with a copy of the stack search,
// schedule and node count, budget-truncated runs included.
//
// The split search partitions the same tree at a frontier depth d: every
// surviving node with d placed tasks becomes the root of a subtree search,
// and the subtrees are searched one after another in ladder order. Three
// choices make the combined result identical to the classic traversal, for
// every depth:
//
//  1. *Ladder order equals classic visit order.* The frontier is generated
//     level by level, children appended in (task, tile) ascending order,
//     which lists the depth-d nodes in ascending lexicographic order of
//     their construction paths; the classic stack visits them in exactly
//     the reverse order (descending, newest-first). Reversing the list and
//     reducing the per-subtree results in ladder order (strict `<`, first
//     optimum wins) therefore selects the same subtree whose first-in-DFS
//     attainer the classic search would have kept. Frontier generation
//     prunes only against the fixed seed bound; nodes the classic search
//     would additionally prune with its evolving bound have subtree minima
//     no smaller than some earlier-in-ladder subtree's result, so the
//     ladder never selects them either.
//
//  2. *Subtree results depend only on local, deterministic state.* Each
//     subtree records a schedule only when it strictly improves on its own
//     `localBest`, which starts at the seed makespan. An induction over
//     the DFS shows the subtree's final record is the first (in DFS order)
//     complete schedule attaining the subtree minimum m_i, *independent of
//     the initial bound* as long as that bound exceeds m_i: on the path to
//     that first attainer every lower bound is <= m_i < localBest (no
//     earlier attainer exists to lower localBest to m_i), so no
//     deterministic prune can cut it.
//
//  3. *The running incumbent prunes strictly.* Subtrees additionally skip
//     a node when `lb > incumbent`, where the incumbent is the best
//     makespan any subtree has recorded so far (the seed's to start). Every
//     value it holds is the makespan of some complete schedule, hence >=
//     the global optimum. A node skipped this way has every completion
//     >= lb > incumbent >= optimum — strictly worse than the optimum, so it
//     can contain neither the optimum nor anything tying it. In particular
//     the path to the first attainer of any subtree with m_i == optimum has
//     lb <= optimum <= incumbent and is never skipped, so every such
//     subtree still reports its deterministic record and the ladder picks
//     the same one.
//
// Budget is the one caveat: per-subtree budgets are fixed up front (they
// sum to bnbNodeBudget minus the frontier nodes, see bnbSplitNodeBudget),
// so total work is bounded identically, but *which* nodes fit inside an
// exhausted budget depends on the frontier depth. A search that exhausts
// any budget reports policy "branch_and_bound(budget)"; it is still a
// function of (graph, options) alone, but not the same for every depth.
// The determinism suite (tests/bnb_test.cpp) pins both behaviours.
// ---------------------------------------------------------------------------

/// Immutable per-search facts shared by frontier generation and every
/// subtree. Everything an expansion needs is a table lookup: no map, no
/// call into the platform's cost model.
struct SearchContext {
  const SchedContext& ctx;
  const detail::IncomingEdges& edges;
  std::size_t n = 0;
  int cores = 0;
  std::uint32_t allDone = 0;
  std::vector<std::uint32_t> predMask;  ///< bitmask of predecessors per task
  /// commCost of every incoming-edge slot for every (from, to) tile pair,
  /// flat [slot][fromTile][toTile]; 0 where the slot has no edge.
  std::vector<Cycles> comm;
  std::vector<Cycles> minW;  ///< min WCET over tiles per task
  std::vector<Cycles> cp;    ///< remaining critical path per task
  std::vector<int> byCp;     ///< task ids by decreasing cp

  SearchContext(const SchedContext& c, const detail::IncomingEdges& e);

  [[nodiscard]] const Cycles* commRow(std::size_t slot,
                                      int fromTile) const noexcept {
    const std::size_t tiles = static_cast<std::size_t>(cores);
    return &comm[(slot * tiles + static_cast<std::size_t>(fromTile)) * tiles];
  }
};

/// Remaining critical path per task (min-WCET weights, no communication):
/// an admissible lower bound for pruning.
std::vector<Cycles> remainingCriticalPath(const SchedContext& ctx,
                                          const std::vector<Cycles>& minW) {
  const std::size_t n = ctx.graph.tasks.size();
  std::vector<Cycles> cp(n, -1);
  // Reverse topological accumulation (iterate until stable; graphs are
  // small when BnB is enabled).
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i < n; ++i) {
      Cycles tail = 0;
      bool ready = true;
      for (int s : ctx.succ[i]) {
        if (cp[static_cast<std::size_t>(s)] < 0) {
          ready = false;
          break;
        }
        tail = std::max(tail, cp[static_cast<std::size_t>(s)]);
      }
      if (!ready) continue;
      const Cycles value = minW[i] + tail;
      if (value != cp[i]) {
        cp[i] = value;
        changed = true;
      }
    }
  }
  return cp;
}

SearchContext::SearchContext(const SchedContext& c,
                             const detail::IncomingEdges& e)
    : ctx(c),
      edges(e),
      n(c.graph.tasks.size()),
      cores(c.cores),
      allDone(n >= 32 ? ~0u : (1u << n) - 1u) {
  predMask.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    for (int p : ctx.pred[i]) predMask[i] |= 1u << p;
  }
  // Filled in layout order, [slot][from][to].
  comm.reserve(edges.slots() * static_cast<std::size_t>(cores * cores));
  for (std::size_t slot = 0; slot < edges.slots(); ++slot) {
    const htg::Dep* dep = edges.dep(slot);
    for (int from = 0; from < cores; ++from) {
      for (int to = 0; to < cores; ++to) {
        comm.push_back(dep == nullptr
                           ? 0
                           : commCost(ctx.platform, *dep, from, to));
      }
    }
  }
  minW.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    minW[i] = *std::min_element(ctx.timings[i].wcetByTile.begin(),
                                ctx.timings[i].wcetByTile.end());
  }
  cp = remainingCriticalPath(ctx, minW);
  byCp.resize(n);
  std::iota(byCp.begin(), byCp.end(), 0);
  std::stable_sort(byCp.begin(), byCp.end(), [&](int a, int b) {
    return cp[static_cast<std::size_t>(a)] > cp[static_cast<std::size_t>(b)];
  });
}

/// A partial append-only schedule: a frontier root, and the one mutable
/// state each subtree search places into and undoes from.
struct Frame {
  std::vector<Placement> placements;
  std::vector<Cycles> tileAvail;
  std::uint32_t done = 0;  ///< bitmask of scheduled tasks
  Cycles makespan = 0;
  Cycles workLeft = 0;
};

/// One child of a frame: placing `task` on `tile` over [start, finish).
struct Child {
  int task = 0;
  int tile = 0;
  Cycles start = 0;
  Cycles finish = 0;
};

/// What apply() overwrote, for revert().
struct Undo {
  Cycles tileAvail = 0;
  Cycles makespan = 0;
};

Undo apply(const SearchContext& sc, Frame& frame, const Child& c) {
  const std::size_t tile = static_cast<std::size_t>(c.tile);
  const Undo undo{frame.tileAvail[tile], frame.makespan};
  frame.placements[static_cast<std::size_t>(c.task)] =
      Placement{c.task, c.tile, c.start, c.finish};
  frame.tileAvail[tile] = c.finish;
  frame.done |= 1u << c.task;
  frame.makespan = std::max(frame.makespan, c.finish);
  frame.workLeft -= sc.minW[static_cast<std::size_t>(c.task)];
  return undo;
}

/// Inverse of apply(). The placement slot keeps its stale value: nothing
/// reads the placement of a task outside `done`.
void revert(const SearchContext& sc, Frame& frame, const Child& c,
            const Undo& undo) {
  frame.tileAvail[static_cast<std::size_t>(c.tile)] = undo.tileAvail;
  frame.done &= ~(1u << c.task);
  frame.makespan = undo.makespan;
  frame.workLeft += sc.minW[static_cast<std::size_t>(c.task)];
}

/// Admissible lower bound on any completion of `frame`: critical path of
/// any unscheduled task, and total remaining work spread over all cores.
Cycles lowerBound(const SearchContext& sc, const Frame& frame) {
  Cycles lb = frame.makespan;
  for (int task : sc.byCp) {
    if ((frame.done & (1u << task)) == 0) {
      lb = std::max(lb, sc.cp[static_cast<std::size_t>(task)]);
      break;  // byCp is descending: the first unscheduled task is the max
    }
  }
  const Cycles minAvail =
      *std::min_element(frame.tileAvail.begin(), frame.tileAvail.end());
  lb = std::max(lb, minAvail + frame.workLeft / sc.ctx.cores);
  return lb;
}

/// Writes the children of `frame` to `out` in (task ascending, tile
/// ascending) order — the one order every part of the search shares —
/// keeping each child whose makespan stays strictly below `pushBound`.
/// `ready` is scratch of one entry per tile.
void generateChildren(const SearchContext& sc, const Frame& frame,
                      Cycles pushBound, std::vector<Cycles>& ready,
                      std::vector<Child>& out) {
  out.clear();
  for (std::size_t task = 0; task < sc.n; ++task) {
    if ((frame.done & (1u << task)) != 0) continue;
    if ((sc.predMask[task] & ~frame.done) != 0) continue;

    // Data-ready time per tile: the latest predecessor finish plus its
    // communication to that tile.
    std::fill(ready.begin(), ready.end(), Cycles{0});
    const std::vector<int>& preds = sc.ctx.pred[task];
    const std::size_t base = sc.edges.first(static_cast<int>(task));
    for (std::size_t k = 0; k < preds.size(); ++k) {
      const Placement& pp =
          frame.placements[static_cast<std::size_t>(preds[k])];
      const Cycles* row = sc.commRow(base + k, pp.tile);
      for (std::size_t tile = 0; tile < ready.size(); ++tile) {
        ready[tile] = std::max(ready[tile], pp.finish + row[tile]);
      }
    }

    Cycles prevAvail = -1;
    Cycles prevEst = -1;
    Cycles prevCost = -1;
    for (int tile = 0; tile < sc.cores; ++tile) {
      const std::size_t t = static_cast<std::size_t>(tile);
      const Cycles avail = frame.tileAvail[t];
      const Cycles est = std::max(avail, ready[t]);
      const Cycles cost = sc.ctx.timings[task].wcetByTile[t];
      // Symmetry breaking: a tile this frame cannot tell apart from the
      // previous one — same availability, same earliest start (which folds
      // in cross-tile communication from every placed predecessor), same
      // WCET — yields an identical placement, so skip the repeat. The one
      // asymmetry this cannot see is *future* communication (a NoC mesh
      // position matters to tasks not yet placed), so on
      // topology-asymmetric platforms the search is exact only up to this
      // tile symmetry; on bus platforms (uniform transfer costs) it is
      // exact outright.
      if (avail == prevAvail && est == prevEst && cost == prevCost) {
        continue;
      }
      prevAvail = avail;
      prevEst = est;
      prevCost = cost;

      const Cycles finish = est + cost;
      if (std::max(frame.makespan, finish) < pushBound) {
        out.push_back(Child{static_cast<int>(task), tile, est, finish});
      }
    }
  }
}

/// What one subtree reports back for the ladder-order reduction. Only
/// strict improvements over the seed are recorded, so `placements` is
/// empty when the subtree found nothing better.
struct SubtreeResult {
  Cycles makespan = std::numeric_limits<Cycles>::max();
  std::vector<Placement> placements;
  std::int64_t expanded = 0;  ///< nodes entered, the refused one included
  bool exhausted = false;
  [[nodiscard]] bool improved() const noexcept { return !placements.empty(); }
  /// Nodes actually searched: the budget-refused entry is not one.
  [[nodiscard]] std::int64_t visited() const noexcept {
    return exhausted ? expanded - 1 : expanded;
  }
};

/// Depth-first search over one subtree, placing and undoing in place on a
/// single Frame. With `root` = the whole tree and `budget` = the full node
/// budget this *is* the classic search; the running incumbent then only
/// ever holds this searcher's own bound, so the `lb > incumbent` check is
/// subsumed by `lb >= localBest`.
class SubtreeSearch {
 public:
  SubtreeSearch(const SearchContext& sc, Cycles seedBound,
                std::int64_t budget, Cycles& incumbent)
      : sc_(sc),
        budget_(budget),
        incumbent_(incumbent),
        localBest_(seedBound),
        ready_(static_cast<std::size_t>(sc.cores)),
        children_(sc.n + 1) {}

  SubtreeResult run(Frame root) {
    frame_ = std::move(root);
    visit(0);
    return std::move(out_);
  }

 private:
  /// Searches the subtree below the current frame; false once the budget
  /// is exhausted, which unwinds the whole search.
  bool visit(std::size_t level) {
    if (++out_.expanded > budget_) {
      out_.exhausted = true;
      return false;
    }
    if (frame_.done == sc_.allDone) {
      if (frame_.makespan < localBest_) {
        localBest_ = frame_.makespan;
        out_.makespan = frame_.makespan;
        out_.placements = frame_.placements;
        incumbent_ = std::min(incumbent_, out_.makespan);
      }
      return true;
    }

    const Cycles lb = lowerBound(sc_, frame_);
    if (lb >= localBest_) return true;  // this subtree's own knowledge
    // Earlier subtrees' bound; STRICT comparison (see proof above).
    if (lb > incumbent_) return true;

    std::vector<Child>& children = children_[level];
    generateChildren(sc_, frame_, localBest_, ready_, children);
    // Newest-first, exactly the order the classic stack pops them.
    for (auto it = children.rbegin(); it != children.rend(); ++it) {
      const Undo undo = apply(sc_, frame_, *it);
      const bool more = visit(level + 1);
      revert(sc_, frame_, *it, undo);
      if (!more) return false;
    }
    return true;
  }

  const SearchContext& sc_;
  std::int64_t budget_;
  Cycles& incumbent_;
  Cycles localBest_;
  Frame frame_;
  std::vector<Cycles> ready_;
  /// Child list per search level; a level's list is live while its
  /// children's subtrees are searched.
  std::vector<std::vector<Child>> children_;
  SubtreeResult out_;
};

/// Depth-`depth` frontier in ascending lexicographic (generation) order,
/// plus the number of nodes expanded to build it (counted against the
/// node budget). Generation prunes only against the fixed seed bound,
/// which keeps the frontier a function of (graph, options) alone.
struct FrontierResult {
  std::vector<Frame> nodes;
  std::int64_t expanded = 0;
};

/// Deepening stops early once a level reaches this many nodes: deeper
/// frontiers stop paying off long before this, and the cap bounds the
/// transient memory of the next expansion. Depends only on sizes, so the
/// frontier stays deterministic.
constexpr std::size_t kMaxFrontierNodes = 1024;

FrontierResult generateFrontier(const SearchContext& sc, Frame root,
                                Cycles seedBound, int depth) {
  FrontierResult out;
  out.nodes.push_back(std::move(root));
  std::vector<Cycles> ready(static_cast<std::size_t>(sc.cores));
  std::vector<Child> children;
  for (int level = 0; level < depth && !out.nodes.empty(); ++level) {
    if (out.nodes.size() >= kMaxFrontierNodes) break;
    std::vector<Frame> next;
    for (const Frame& frame : out.nodes) {
      ++out.expanded;
      const Cycles lb = lowerBound(sc, frame);
      if (lb >= seedBound) continue;
      generateChildren(sc, frame, seedBound, ready, children);
      for (const Child& c : children) {
        Frame child = frame;
        apply(sc, child, c);
        next.push_back(std::move(child));
      }
    }
    out.nodes = std::move(next);
  }
  return out;
}

support::MetricCounter& nodesCounter() {
  static support::MetricCounter& counter =
      support::MetricsRegistry::global().counter("sched.bnb.nodes");
  return counter;
}

support::MetricCounter& budgetExhaustedCounter() {
  static support::MetricCounter& counter =
      support::MetricsRegistry::global().counter("sched.bnb.budget_exhausted");
  return counter;
}

support::MetricCounter& fallbackHeftCounter() {
  static support::MetricCounter& counter =
      support::MetricsRegistry::global().counter("sched.bnb.fallback_heft");
  return counter;
}

class BnbPolicy final : public SchedulingPolicy {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "branch_and_bound";
  }

  [[nodiscard]] Schedule run(const SchedContext& ctx,
                             const SchedOptions& options) const override {
    const std::size_t n = ctx.graph.tasks.size();
    if (!bnbExactSearchFeasible(n, options)) {
      // Exact search is hopeless (bnbTaskLimit) or unrepresentable
      // (kBnbMaxTasks) at this size; fall back to the heuristic — the ARGO
      // "exact + heuristics" combination. One consistent rule for both
      // caps: oversized graphs are scheduled, never rejected.
      fallbackHeftCounter().add();
      return detail::listSchedule(ctx, options.interferenceAware,
                                  "branch_and_bound(fallback=heft)");
    }

    const detail::IncomingEdges edges(ctx);
    const SearchContext sc(ctx, edges);

    // Seed incumbent with HEFT: the search only has to *improve* on it.
    const Schedule seed = detail::listSchedule(
        ctx, edges, detail::priorityOrder(detail::upwardRanks(ctx, edges)),
        options.interferenceAware, "heft");

    Frame root;
    root.placements.resize(n);
    root.tileAvail.assign(static_cast<std::size_t>(ctx.cores), 0);
    root.workLeft = std::accumulate(sc.minW.begin(), sc.minW.end(),
                                    Cycles{0});

    const int depth =
        std::clamp(options.bnbFrontierDepth, 0, static_cast<int>(n));
    FrontierResult frontier =
        generateFrontier(sc, std::move(root), seed.makespan, depth);
    // Ladder order = classic visit order: the stack explores newest-first,
    // i.e. descending generation order (see proof, point 1).
    std::reverse(frontier.nodes.begin(), frontier.nodes.end());

    const std::vector<std::int64_t> budgets = bnbSplitNodeBudget(
        options.bnbNodeBudget - frontier.expanded, frontier.nodes.size());

    // Subtrees run in ladder order, each lowering `incumbent` for the ones
    // after it. The reduction keeps strict improvements only, so the first
    // optimum wins, starting from the seed incumbent.
    Cycles incumbent = seed.makespan;
    Cycles bestMakespan = seed.makespan;
    std::vector<Placement> bestPlacements = seed.placements;
    bool budgetExhausted = false;
    std::int64_t nodes = frontier.expanded;
    for (std::size_t i = 0; i < frontier.nodes.size(); ++i) {
      SubtreeResult r = SubtreeSearch(sc, seed.makespan, budgets[i], incumbent)
                            .run(std::move(frontier.nodes[i]));
      budgetExhausted = budgetExhausted || r.exhausted;
      nodes += r.visited();
      if (r.improved() && r.makespan < bestMakespan) {
        bestMakespan = r.makespan;
        bestPlacements = std::move(r.placements);
      }
    }

    // Search-effort telemetry, tallied above and added once per search.
    nodesCounter().add(static_cast<std::uint64_t>(nodes));
    if (budgetExhausted) budgetExhaustedCounter().add();

    // Rebuild tile order / usage from the winning placements.
    Schedule result;
    result.placements = std::move(bestPlacements);
    result.makespan = bestMakespan;
    result.tileOrder.assign(
        static_cast<std::size_t>(ctx.platform.coreCount()), {});
    std::vector<int> byStart(n);
    std::iota(byStart.begin(), byStart.end(), 0);
    std::sort(byStart.begin(), byStart.end(), [&](int a, int b) {
      return result.placements[static_cast<std::size_t>(a)].start <
             result.placements[static_cast<std::size_t>(b)].start;
    });
    for (int t : byStart) {
      result
          .tileOrder[static_cast<std::size_t>(
              result.placements[static_cast<std::size_t>(t)].tile)]
          .push_back(t);
    }
    for (const auto& order : result.tileOrder) {
      if (!order.empty()) ++result.tilesUsed;
    }
    result.policy = budgetExhausted ? "branch_and_bound(budget)"
                                    : "branch_and_bound";
    return result;
  }
};

}  // namespace

std::vector<std::int64_t> bnbSplitNodeBudget(std::int64_t remaining,
                                             std::size_t subtrees) {
  if (subtrees == 0) return {};
  if (remaining < 0) remaining = 0;
  const std::int64_t count = static_cast<std::int64_t>(subtrees);
  const std::int64_t share = remaining / count;
  const std::int64_t extra = remaining % count;
  std::vector<std::int64_t> budgets(subtrees, share);
  for (std::int64_t i = 0; i < extra; ++i) {
    ++budgets[static_cast<std::size_t>(i)];
  }
  return budgets;
}

namespace detail {

std::unique_ptr<SchedulingPolicy> makeBnbPolicy() {
  return std::make_unique<BnbPolicy>();
}

}  // namespace detail

}  // namespace argo::sched
