// Determinism, exactness and budget-accounting suite for the
// branch-and-bound policy (sched/bnb.h). The contract under test: for any
// frontier depth the split search returns a schedule bit-identical to the
// classic monolithic DFS (bnbFrontierDepth = 0) as long as the node budget
// is not exhausted; a completed search is never longer than any heuristic
// policy's schedule (bnb_exact); per-subtree budgets always sum to the
// configured bnbNodeBudget; and oversized graphs fall back to HEFT instead
// of throwing. The bnb_oracle suite checks the in-place search against a
// test-local copy of the frame-copying stack search it replaced: same
// schedule and same explored-node count, budget-truncated searches
// included. (Lower-case suite names keep `ctest -R bnb` selecting exactly
// this file.)
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <numeric>

#include "diamond_fixture.h"
#include "htg/htg.h"
#include "sched/bnb.h"
#include "sched/scheduler.h"
#include "scenarios/generator.h"
#include "sched_oracle.h"
#include "support/metrics.h"

namespace argo::sched {
namespace {

/// chunks = 2 on 4 cores (8 tasks) searches in milliseconds; chunks = 3 on
/// 3 cores (12 tasks) is a real search tree that still completes well
/// inside the default node budget.
struct Fixture {
  std::unique_ptr<ir::Function> fn;
  htg::TaskGraph graph;
  adl::Platform platform;

  explicit Fixture(int chunks = 2, int cores = 4)
      : fn(test::makeDiamondFn(/*width=*/24)),
        graph(htg::expand(htg::buildHtg(*fn), htg::ExpandOptions{chunks})),
        platform(adl::makeRecoreXentiumBus(cores)) {}
};

void expectSameSchedule(const Schedule& a, const Schedule& b,
                        const std::string& what) {
  // Per-field checks give readable diagnostics on failure ...
  EXPECT_EQ(a.makespan, b.makespan) << what;
  EXPECT_EQ(a.tilesUsed, b.tilesUsed) << what;
  EXPECT_EQ(a.policy, b.policy) << what;
  ASSERT_EQ(a.placements.size(), b.placements.size()) << what;
  for (std::size_t i = 0; i < a.placements.size(); ++i) {
    EXPECT_EQ(a.placements[i].tile, b.placements[i].tile)
        << what << " task " << i;
    EXPECT_EQ(a.placements[i].start, b.placements[i].start)
        << what << " task " << i;
    EXPECT_EQ(a.placements[i].finish, b.placements[i].finish)
        << what << " task " << i;
  }
  EXPECT_EQ(a.tileOrder, b.tileOrder) << what;
  // ... and the defaulted operator== guarantees full field coverage even
  // when Schedule grows new members.
  EXPECT_TRUE(a == b) << what;
}

SchedOptions bnbOptions() {
  SchedOptions options;
  options.policy = "branch_and_bound";
  options.interferenceAware = false;  // pure-makespan search space
  return options;
}

// ---------------------------------------------------------------------------
// Reference: the frame-copying stack search, kept verbatim in behaviour as
// the differential oracle for the in-place search. Like the policy it runs
// the subtrees one after another in ladder order, so the policy's result
// and node count match it even under budget truncation.
// ---------------------------------------------------------------------------
namespace reference {

struct EdgeIndex {
  explicit EdgeIndex(const htg::TaskGraph& graph) {
    for (const htg::Dep& d : graph.deps) edges.emplace(key(d.from, d.to), &d);
  }
  [[nodiscard]] const htg::Dep* find(int from, int to) const {
    auto it = edges.find(key(from, to));
    return it == edges.end() ? nullptr : it->second;
  }
  static std::uint64_t key(int from, int to) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(from))
            << 32) |
           static_cast<std::uint32_t>(to);
  }
  std::map<std::uint64_t, const htg::Dep*> edges;
};

struct Search {
  const htg::TaskGraph& graph;
  const adl::Platform& platform;
  const std::vector<TaskTiming>& timings;
  std::vector<std::vector<int>> succ;
  std::vector<std::vector<int>> pred;
  int cores = 0;
  EdgeIndex edges;
  std::vector<Cycles> cp;
  std::vector<Cycles> minW;
  std::size_t n = 0;
  std::uint32_t allDone = 0;
};

struct Frame {
  std::vector<Placement> placements;
  std::vector<Cycles> tileAvail;
  std::uint32_t done = 0;
  Cycles makespan = 0;
  Cycles workLeft = 0;
};

std::vector<Cycles> remainingCriticalPath(const Search& s) {
  std::vector<Cycles> cp(s.n, -1);
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i < s.n; ++i) {
      Cycles tail = 0;
      bool ready = true;
      for (int succ : s.succ[i]) {
        if (cp[static_cast<std::size_t>(succ)] < 0) {
          ready = false;
          break;
        }
        tail = std::max(tail, cp[static_cast<std::size_t>(succ)]);
      }
      if (!ready) continue;
      const Cycles value = s.minW[i] + tail;
      if (value != cp[i]) {
        cp[i] = value;
        changed = true;
      }
    }
  }
  return cp;
}

Cycles lowerBound(const Search& s, const Frame& frame) {
  Cycles lb = frame.makespan;
  for (std::size_t i = 0; i < s.n; ++i) {
    if ((frame.done & (1u << i)) == 0) lb = std::max(lb, s.cp[i]);
  }
  const Cycles minAvail =
      *std::min_element(frame.tileAvail.begin(), frame.tileAvail.end());
  return std::max(lb, minAvail + frame.workLeft / s.cores);
}

template <typename Push>
void expandChildren(const Search& s, const Frame& frame, Cycles pushBound,
                    Push&& push) {
  for (std::size_t task = 0; task < s.n; ++task) {
    if ((frame.done & (1u << task)) != 0) continue;
    bool ready = true;
    for (int p : s.pred[task]) {
      if ((frame.done & (1u << p)) == 0) {
        ready = false;
        break;
      }
    }
    if (!ready) continue;
    Cycles prevAvail = -1;
    Cycles prevEst = -1;
    Cycles prevCost = -1;
    for (int tile = 0; tile < s.cores; ++tile) {
      const Cycles avail = frame.tileAvail[static_cast<std::size_t>(tile)];
      Cycles est = avail;
      for (int p : s.pred[task]) {
        const htg::Dep* dep = s.edges.find(p, static_cast<int>(task));
        const Placement& pp = frame.placements[static_cast<std::size_t>(p)];
        const Cycles comm =
            dep == nullptr ? 0 : commCost(s.platform, *dep, pp.tile, tile);
        est = std::max(est, pp.finish + comm);
      }
      const Cycles cost =
          s.timings[task].wcetByTile[static_cast<std::size_t>(tile)];
      if (avail == prevAvail && est == prevEst && cost == prevCost) continue;
      prevAvail = avail;
      prevEst = est;
      prevCost = cost;
      Frame child = frame;
      Placement p;
      p.task = static_cast<int>(task);
      p.tile = tile;
      p.start = est;
      p.finish = est + cost;
      child.placements[task] = p;
      child.tileAvail[static_cast<std::size_t>(tile)] = p.finish;
      child.done |= (1u << task);
      child.makespan = std::max(child.makespan, p.finish);
      child.workLeft -= s.minW[task];
      if (child.makespan < pushBound) push(std::move(child));
    }
  }
}

struct SubtreeResult {
  Cycles makespan = std::numeric_limits<Cycles>::max();
  std::vector<Placement> placements;
  std::int64_t expanded = 0;
  bool exhausted = false;
};

SubtreeResult searchSubtree(const Search& s, Frame root, Cycles seedBound,
                            std::int64_t budget, Cycles& incumbent) {
  SubtreeResult out;
  Cycles localBest = seedBound;
  std::vector<Frame> stack;
  stack.push_back(std::move(root));
  while (!stack.empty()) {
    if (++out.expanded > budget) {
      out.exhausted = true;
      break;
    }
    Frame frame = std::move(stack.back());
    stack.pop_back();
    if (frame.done == s.allDone) {
      if (frame.makespan < localBest) {
        localBest = frame.makespan;
        out.makespan = frame.makespan;
        out.placements = std::move(frame.placements);
        incumbent = std::min(incumbent, out.makespan);
      }
      continue;
    }
    const Cycles lb = lowerBound(s, frame);
    if (lb >= localBest) continue;
    if (lb > incumbent) continue;
    expandChildren(s, frame, localBest,
                   [&](Frame child) { stack.push_back(std::move(child)); });
  }
  return out;
}

/// The policy's result and the number of nodes searched (frontier
/// expansions plus subtree nodes, the budget-refused entries excluded).
struct Result {
  Schedule schedule;
  std::int64_t nodes = 0;
};

Result branchAndBound(const Scheduler& scheduler, const htg::TaskGraph& graph,
                      const adl::Platform& platform,
                      const SchedOptions& options) {
  SchedOptions heftOpt = options;
  heftOpt.policy = "heft";
  Schedule seed = scheduler.run(heftOpt);
  const std::size_t n = graph.tasks.size();
  if (!bnbExactSearchFeasible(n, options)) {
    seed.policy = "branch_and_bound(fallback=heft)";
    return {seed, 0};
  }
  const int cores = options.coreLimit <= 0
                        ? platform.coreCount()
                        : std::min(options.coreLimit, platform.coreCount());
  Search s{graph, platform, scheduler.timings(), graph.successors(),
           graph.predecessors(), cores, EdgeIndex(graph), {}, {}, n,
           (1u << n) - 1u};
  Cycles totalMinWork = 0;
  s.minW.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    s.minW[i] = *std::min_element(s.timings[i].wcetByTile.begin(),
                                  s.timings[i].wcetByTile.end());
    totalMinWork += s.minW[i];
  }
  s.cp = remainingCriticalPath(s);

  Frame root;
  root.placements.resize(n);
  root.tileAvail.assign(static_cast<std::size_t>(cores), 0);
  root.workLeft = totalMinWork;

  // Frontier, level by level, pruned against the fixed seed bound only.
  const int depth = std::clamp(options.bnbFrontierDepth, 0,
                               static_cast<int>(n));
  std::vector<Frame> frontier{root};
  std::int64_t frontierExpanded = 0;
  for (int level = 0; level < depth && !frontier.empty(); ++level) {
    if (frontier.size() >= 1024) break;
    std::vector<Frame> next;
    for (Frame& frame : frontier) {
      ++frontierExpanded;
      if (lowerBound(s, frame) >= seed.makespan) continue;
      expandChildren(s, frame, seed.makespan,
                     [&](Frame child) { next.push_back(std::move(child)); });
    }
    frontier = std::move(next);
  }
  std::reverse(frontier.begin(), frontier.end());

  const std::vector<std::int64_t> budgets = bnbSplitNodeBudget(
      options.bnbNodeBudget - frontierExpanded, frontier.size());
  Cycles incumbent = seed.makespan;
  Result out;
  out.nodes = frontierExpanded;
  Cycles bestMakespan = seed.makespan;
  std::vector<Placement> best = seed.placements;
  bool exhausted = false;
  for (std::size_t i = 0; i < frontier.size(); ++i) {
    SubtreeResult r = searchSubtree(s, std::move(frontier[i]),
                                    seed.makespan, budgets[i], incumbent);
    exhausted = exhausted || r.exhausted;
    out.nodes += r.exhausted ? r.expanded - 1 : r.expanded;
    if (!r.placements.empty() && r.makespan < bestMakespan) {
      bestMakespan = r.makespan;
      best = std::move(r.placements);
    }
  }

  Schedule& result = out.schedule;
  result.placements = best;
  result.makespan = bestMakespan;
  result.tileOrder.assign(static_cast<std::size_t>(platform.coreCount()), {});
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
  result.policy = exhausted ? "branch_and_bound(budget)" : "branch_and_bound";
  return out;
}

}  // namespace reference

std::uint64_t bnbNodesCounted() {
  return support::MetricsRegistry::global().counter("sched.bnb.nodes").value();
}

/// Runs the policy and the reference on one configuration and requires the
/// same schedule and the same number of searched nodes.
void expectMatchesReference(const Scheduler& scheduler,
                            const htg::TaskGraph& graph,
                            const adl::Platform& platform,
                            const SchedOptions& options,
                            const std::string& what) {
  const reference::Result expected =
      reference::branchAndBound(scheduler, graph, platform, options);
  const std::uint64_t before = bnbNodesCounted();
  const Schedule actual = scheduler.run(options);
  const std::uint64_t nodes = bnbNodesCounted() - before;
  expectSameSchedule(actual, expected.schedule, what);
  EXPECT_EQ(nodes, static_cast<std::uint64_t>(expected.nodes)) << what;
}

/// Fixture graphs: the diamond at chunks 2 and 3, the wide loop, and the
/// 8-task diamond with every edge repeated at eight times the payload.
struct OracleGraph {
  std::unique_ptr<ir::Function> fn;
  htg::TaskGraph graph;
};

OracleGraph oracleFixture(int which) {
  OracleGraph g;
  if (which < 2) {
    g.fn = test::makeDiamondFn(/*width=*/24);
    g.graph = htg::expand(htg::buildHtg(*g.fn),
                          htg::ExpandOptions{which == 0 ? 2 : 3});
  } else if (which == 2) {
    g.fn = test::makeWideLoopFn(24);
    g.graph = htg::expand(htg::buildHtg(*g.fn), htg::ExpandOptions{6});
  } else {
    g.fn = test::makeDiamondFn(/*width=*/24);
    g.graph = htg::expand(htg::buildHtg(*g.fn), htg::ExpandOptions{2});
    test::repeatEdgesHeavier(g.graph);
  }
  return g;
}

/// One configuration of the oracle grid, rendered for failure messages.
std::string describe(const std::string& graph, const std::string& platform,
                     const SchedOptions& o) {
  return graph + " " + platform + " ia=" + std::to_string(o.interferenceAware) +
         " cores=" + std::to_string(o.coreLimit) +
         " budget=" + std::to_string(o.bnbNodeBudget) +
         " depth=" + std::to_string(o.bnbFrontierDepth);
}

/// Fixture graph x platform. Full grid: interference awareness on and
/// off, 1/2/all cores, five budgets, three frontier depths. The 12-task
/// diamond's tree outgrows the default budget at 2+ cores, where that
/// entry is only a 2M-node truncation of the reference's slow stack
/// search; its grid tops out at 20'000 nodes instead, a truncation deep
/// inside the tree at a hundredth of the cost.
class bnb_oracle : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(bnb_oracle, InPlaceSearchMatchesTheStackSearch) {
  const auto [which, platformIndex] = GetParam();
  const OracleGraph g = oracleFixture(which);
  const auto platforms = test::oraclePlatforms();
  const auto& [platformName, platform] =
      platforms[static_cast<std::size_t>(platformIndex)];
  const Scheduler scheduler(g.graph, platform);
  const std::int64_t deepest =
      which == 1 ? std::int64_t{20'000} : SchedOptions{}.bnbNodeBudget;
  for (const bool interferenceAware : {false, true}) {
    for (const int coreLimit : {1, 2, 0}) {
      for (const std::int64_t budget :
           {std::int64_t{1}, std::int64_t{37}, std::int64_t{500},
            std::int64_t{5000}, deepest}) {
        for (const int depth : {0, 1, 2}) {
          SchedOptions options = bnbOptions();
          options.interferenceAware = interferenceAware;
          options.coreLimit = coreLimit;
          options.bnbNodeBudget = budget;
          options.bnbFrontierDepth = depth;
          expectMatchesReference(
              scheduler, g.graph, platform, options,
              describe("fixture" + std::to_string(which), platformName,
                       options));
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Fixtures, bnb_oracle,
                         ::testing::Combine(::testing::Range(0, 4),
                                            ::testing::Range(0, 3)));

/// Generated graphs at the evaluation seed (layered DAGs with fan-in,
/// shortcuts and accumulators), expanded at two chunks per loop when that
/// stays within the task limit. Most of their trees outgrow the default
/// budget, so the grid pairs a shallow truncation with a 10'000-node one;
/// the trees that fit inside it are searched to completion.
class bnb_oracle_scenarios : public ::testing::TestWithParam<int> {};

TEST_P(bnb_oracle_scenarios, InPlaceSearchMatchesTheStackSearch) {
  scenarios::GeneratorOptions gen;
  gen.seed = 7;
  const scenarios::Scenario scenario =
      scenarios::generateScenario(gen, GetParam());
  const htg::Htg htg = htg::buildHtg(*scenario.model.fn);
  htg::TaskGraph graph = htg::expand(htg, htg::ExpandOptions{2});
  if (!bnbExactSearchFeasible(graph.tasks.size(), bnbOptions())) {
    graph = htg::expand(htg, htg::ExpandOptions{1});
  }
  for (const auto& [platformName, platform] : test::oraclePlatforms()) {
    const Scheduler scheduler(graph, platform);
    for (const bool interferenceAware : {false, true}) {
      for (const int coreLimit : {2, 0}) {
        for (const std::int64_t budget :
             {std::int64_t{37}, std::int64_t{10'000}}) {
          for (const int depth : {0, 2}) {
            SchedOptions options = bnbOptions();
            options.interferenceAware = interferenceAware;
            options.coreLimit = coreLimit;
            options.bnbNodeBudget = budget;
            options.bnbFrontierDepth = depth;
            expectMatchesReference(
                scheduler, graph, platform, options,
                describe(scenario.name, platformName, options));
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seed7, bnb_oracle_scenarios, ::testing::Range(0, 20));

TEST(bnb_determinism, SplitSearchMatchesClassicForAllDepths) {
  Fixture fx;
  ASSERT_LE(fx.graph.tasks.size(),
            static_cast<std::size_t>(kBnbMaxTasks));
  const Scheduler scheduler(fx.graph, fx.platform);

  SchedOptions classicOpt = bnbOptions();
  classicOpt.bnbFrontierDepth = 0;  // classic monolithic DFS
  const Schedule classic = scheduler.run(classicOpt);
  // The whole search must fit the budget: exhaustion voids the
  // bit-identity guarantee, so the contract check requires a clean run.
  ASSERT_EQ(classic.policy, "branch_and_bound");
  EXPECT_TRUE(validateSchedule(classic, fx.graph, fx.platform,
                               scheduler.timings())
                  .empty());

  for (const int depth : {0, 1, 2, 3}) {
    SchedOptions options = bnbOptions();
    options.bnbFrontierDepth = depth;
    expectSameSchedule(scheduler.run(options), classic,
                       "depth " + std::to_string(depth));
  }
}

TEST(bnb_determinism, HoldsOnADeepTwelveTaskSearchTree) {
  // A search with hundreds of thousands of expanded nodes (the
  // 12-task diamond): the split subtrees prune against each other's
  // incumbents here far more than in the 8-task sweep.
  Fixture fx(/*chunks=*/3, /*cores=*/3);
  ASSERT_EQ(fx.graph.tasks.size(), 12u);
  const Scheduler scheduler(fx.graph, fx.platform);

  SchedOptions classicOpt = bnbOptions();
  classicOpt.bnbFrontierDepth = 0;
  const Schedule classic = scheduler.run(classicOpt);
  ASSERT_EQ(classic.policy, "branch_and_bound");

  SchedOptions options = bnbOptions();
  options.bnbFrontierDepth = 2;
  expectSameSchedule(scheduler.run(options), classic, "depth 2");
}

TEST(bnb_determinism, HoldsWithInterferenceAwareSeedToo) {
  // The HEFT seed (and therefore the incumbent the search must beat)
  // changes with interference awareness; the determinism argument may not
  // depend on which seed is in play.
  Fixture fx;
  const Scheduler scheduler(fx.graph, fx.platform);

  SchedOptions classicOpt = bnbOptions();
  classicOpt.interferenceAware = true;
  classicOpt.bnbFrontierDepth = 0;
  const Schedule classic = scheduler.run(classicOpt);

  SchedOptions options = classicOpt;
  options.bnbFrontierDepth = 2;
  expectSameSchedule(scheduler.run(options), classic, "depth 2");
}

TEST(bnb_determinism, NeverWorseThanHeftAtAnyDepth) {
  Fixture fx;
  const Scheduler scheduler(fx.graph, fx.platform);
  SchedOptions heftOpt;
  heftOpt.interferenceAware = false;
  const Cycles heft = scheduler.run(heftOpt).makespan;
  for (const int depth : {0, 2}) {
    SchedOptions options = bnbOptions();
    options.bnbFrontierDepth = depth;
    EXPECT_LE(scheduler.run(options).makespan, heft) << "depth " << depth;
  }
}

/// Checks the exactness claim of sched/bnb.h on one graph: wherever the
/// search completes (label exactly "branch_and_bound"), its makespan is no
/// longer than any heuristic policy's, all with interference off. The
/// budget is a tenth of the default to keep the suite fast; a search that
/// completes within it completes identically under the default.
/// Returns the number of completed searches.
int expectExactWhereComplete(const htg::TaskGraph& graph,
                             const std::string& name) {
  int completed = 0;
  for (const auto& [platformName, platform] : test::oraclePlatforms()) {
    const Scheduler scheduler(graph, platform);
    for (const int coreLimit : {2, 0}) {
      SchedOptions options = bnbOptions();
      options.coreLimit = coreLimit;
      options.bnbNodeBudget = 200'000;  // 238 searches complete within it
      const Schedule bnb = scheduler.run(options);
      if (bnb.policy != "branch_and_bound") continue;  // budget or fallback
      ++completed;
      for (const char* heuristic : {"heft", "contention_oblivious",
                                    "annealed"}) {
        SchedOptions other = options;
        other.policy = heuristic;
        EXPECT_LE(bnb.makespan, scheduler.run(other).makespan)
            << name << " " << platformName << " cores=" << coreLimit << " vs "
            << heuristic;
      }
    }
  }
  return completed;
}

TEST(bnb_exact, NeverLongerThanAnyHeuristicWhenComplete) {
  int completed = 0;
  for (const int chunks : {1, 2, 3}) {
    const Fixture fx(chunks);
    completed += expectExactWhereComplete(
        fx.graph, "diamond chunks=" + std::to_string(chunks));
  }
  // The seed-7 scenarios of the argo_eval matrix.
  scenarios::GeneratorOptions gen;
  gen.seed = 7;
  for (int index = 0; index < 50; ++index) {
    const scenarios::Scenario scenario =
        scenarios::generateScenario(gen, index);
    const htg::Htg htg = htg::buildHtg(*scenario.model.fn);
    for (const int chunks : {1, 2}) {
      completed += expectExactWhereComplete(
          htg::expand(htg, htg::ExpandOptions{chunks}),
          scenario.name + " chunks=" + std::to_string(chunks));
    }
  }
  // The claim is only checked where a search completes; an empty check
  // would prove nothing.
  EXPECT_GE(completed, 200);
}

TEST(bnb_budget, PerSubtreeSharesSumExactlyToTheBudget) {
  const auto shares = bnbSplitNodeBudget(100, 7);
  ASSERT_EQ(shares.size(), 7u);
  EXPECT_EQ(std::accumulate(shares.begin(), shares.end(), std::int64_t{0}),
            100);
  // Even split, remainder front-loaded onto the lowest subtree indices
  // (the subtrees the classic traversal would have reached first).
  EXPECT_EQ(shares.front(), 15);
  EXPECT_EQ(shares.back(), 14);
  EXPECT_TRUE(std::is_sorted(shares.rbegin(), shares.rend()));
}

TEST(bnb_budget, DegenerateSplitsStayAccountable) {
  EXPECT_TRUE(bnbSplitNodeBudget(10, 0).empty());
  const auto scarce = bnbSplitNodeBudget(3, 5);
  EXPECT_EQ(std::accumulate(scarce.begin(), scarce.end(), std::int64_t{0}),
            3);
  EXPECT_EQ(scarce.front(), 1);
  EXPECT_EQ(scarce.back(), 0);
  // Frontier generation overspending the whole budget leaves zero shares,
  // never negative ones.
  const auto overdrawn = bnbSplitNodeBudget(-4, 3);
  EXPECT_EQ(std::accumulate(overdrawn.begin(), overdrawn.end(),
                            std::int64_t{0}),
            0);
}

TEST(bnb_budget, ExhaustionIsAnnotatedAndFallsBackToTheSeed) {
  // A budget too small to expand anything: the search must hand back the
  // HEFT seed incumbent and flag the truncation in the policy label.
  Fixture fx;
  const Scheduler scheduler(fx.graph, fx.platform);

  SchedOptions heftOpt;
  heftOpt.interferenceAware = false;
  const Schedule seed = scheduler.run(heftOpt);

  SchedOptions options = bnbOptions();
  options.bnbNodeBudget = 1;
  options.bnbFrontierDepth = 2;
  const Schedule truncated = scheduler.run(options);
  EXPECT_EQ(truncated.policy, "branch_and_bound(budget)");
  EXPECT_EQ(truncated.makespan, seed.makespan);
  EXPECT_TRUE(validateSchedule(truncated, fx.graph, fx.platform,
                               scheduler.timings())
                  .empty());
}

TEST(bnb_fallback, OversizedGraphsScheduleViaHeftInsteadOfThrowing) {
  // More tasks than the 32-bit done-mask can represent: even a permissive
  // bnbTaskLimit must fall back to HEFT (kBnbMaxTasks caps it), exactly
  // like a graph beyond bnbTaskLimit does — one rule for both caps.
  auto fn = test::makeWideLoopFn();
  const htg::TaskGraph graph =
      htg::expand(htg::buildHtg(*fn), htg::ExpandOptions{40});
  ASSERT_GT(graph.tasks.size(), static_cast<std::size_t>(kBnbMaxTasks));
  const adl::Platform platform = adl::makeRecoreXentiumBus(4);
  const Scheduler scheduler(graph, platform);

  SchedOptions options = bnbOptions();
  options.bnbTaskLimit = 1000;  // permissive: the mask width must still cap
  const Schedule schedule = scheduler.run(options);
  EXPECT_EQ(schedule.policy, "branch_and_bound(fallback=heft)");
  EXPECT_TRUE(validateSchedule(schedule, graph, platform,
                               scheduler.timings())
                  .empty());
}

}  // namespace
}  // namespace argo::sched
