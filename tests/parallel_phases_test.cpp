// Simulated-annealing restarts (SchedOptions::saRestarts) and the annealed
// policy's differential oracle: the AnnealOracle suites check the annealer
// against a test-local copy of the chain it replaced, which list-scheduled
// a full Schedule per move. Chains run one after another on the calling
// thread, so results are compared across restart counts, not thread counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <numeric>

#include "diamond_fixture.h"
#include "htg/htg.h"
#include "ir/builder.h"
#include "sched/scheduler.h"
#include "scenarios/generator.h"
#include "sched_oracle.h"
#include "support/interval.h"
#include "support/metrics.h"
#include "support/rng.h"

namespace argo {
namespace {

using test::makeDiamondFn;

struct Fixture {
  std::unique_ptr<ir::Function> fn;
  htg::TaskGraph graph;
  adl::Platform platform;

  explicit Fixture(int chunks = 4, int cores = 4)
      : fn(makeDiamondFn()),
        graph(htg::expand(htg::buildHtg(*fn), htg::ExpandOptions{chunks})),
        platform(adl::makeRecoreXentiumBus(cores)) {}
};

void expectSameSchedule(const sched::Schedule& a, const sched::Schedule& b) {
  // Per-field checks give readable diagnostics on failure ...
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.tilesUsed, b.tilesUsed);
  EXPECT_EQ(a.policy, b.policy);
  ASSERT_EQ(a.placements.size(), b.placements.size());
  for (std::size_t i = 0; i < a.placements.size(); ++i) {
    EXPECT_EQ(a.placements[i].task, b.placements[i].task) << "task " << i;
    EXPECT_EQ(a.placements[i].tile, b.placements[i].tile) << "task " << i;
    EXPECT_EQ(a.placements[i].start, b.placements[i].start) << "task " << i;
    EXPECT_EQ(a.placements[i].finish, b.placements[i].finish) << "task " << i;
  }
  EXPECT_EQ(a.tileOrder, b.tileOrder);
  // ... and the defaulted operator== guarantees full field coverage even
  // when Schedule grows new members.
  EXPECT_TRUE(a == b);
}

TEST(ParallelAnneal, SingleRestartReproducesTheClassicChain) {
  // saRestarts <= 1 runs the one classic chain, seeded with exactly the
  // configured seed (chain 0 draws from `seed + 0`); AnnealOracle below
  // checks that chain move by move.
  Fixture fx;
  const sched::Scheduler scheduler(fx.graph, fx.platform);
  sched::SchedOptions options;
  options.policy = "annealed";
  options.saIterations = 400;

  options.saRestarts = 1;
  const sched::Schedule classic = scheduler.run(options);
  options.saRestarts = 0;  // clamped to one chain
  expectSameSchedule(scheduler.run(options), classic);
}

TEST(ParallelAnneal, MoreRestartsNeverWorsenTheSchedule) {
  Fixture fx;
  const sched::Scheduler scheduler(fx.graph, fx.platform);
  sched::SchedOptions options;
  options.policy = "annealed";
  options.saIterations = 400;

  options.saRestarts = 1;
  const adl::Cycles one = scheduler.run(options).makespan;
  options.saRestarts = 6;
  EXPECT_LE(scheduler.run(options).makespan, one);
}

// ---------------------------------------------------------------------------
// Reference: the annealer as it was before the placement hot path was made
// cheap — upward ranks, priority order and an edge map rebuilt, and a whole
// Schedule list-scheduled, for every move. The differential oracle for the
// "annealed" policy.
// ---------------------------------------------------------------------------
namespace reference {

using sched::Cycles;
using sched::Placement;
using sched::Schedule;

struct Context {
  const htg::TaskGraph& graph;
  const adl::Platform& platform;
  const std::vector<sched::TaskTiming>& timings;
  std::vector<std::vector<int>> succ;
  std::vector<std::vector<int>> pred;
  int cores = 0;
};

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

std::vector<double> upwardRanks(const Context& ctx) {
  const std::size_t n = ctx.graph.tasks.size();
  std::vector<double> avgW(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& w = ctx.timings[i].wcetByTile;
    avgW[i] = static_cast<double>(
                  std::accumulate(w.begin(), w.end(), Cycles{0})) /
              static_cast<double>(w.size());
  }
  const EdgeIndex edges(ctx.graph);
  const int tileA = 0;
  const int tileB = ctx.platform.coreCount() - 1;
  std::vector<double> rank(n, -1.0);
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
        const htg::Dep* dep = edges.find(t, s);
        const double comm =
            dep == nullptr ? 0.0
                           : static_cast<double>(sched::commCost(
                                 ctx.platform, *dep, tileA, tileB)) /
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
    if (rank[static_cast<std::size_t>(a)] !=
        rank[static_cast<std::size_t>(b)]) {
      return rank[static_cast<std::size_t>(a)] >
             rank[static_cast<std::size_t>(b)];
    }
    return a < b;
  });
  return order;
}

class ListPlacer {
 public:
  ListPlacer(const Context& ctx, bool interferenceAware)
      : ctx_(ctx), edges_(ctx.graph), interferenceAware_(interferenceAware) {
    placements_.resize(ctx.graph.tasks.size());
    tileAvail_.assign(static_cast<std::size_t>(ctx.cores), 0);
    tileOrder_.resize(static_cast<std::size_t>(ctx.cores));
  }

  Cycles earliestStart(int task, int tile) const {
    Cycles est = tileAvail_[static_cast<std::size_t>(tile)];
    for (int p : ctx_.pred[static_cast<std::size_t>(task)]) {
      const htg::Dep* dep = edges_.find(p, task);
      const Placement& pp = placements_[static_cast<std::size_t>(p)];
      const Cycles comm =
          dep == nullptr ? 0
                         : sched::commCost(ctx_.platform, *dep, pp.tile, tile);
      est = std::max(est, pp.finish + comm);
    }
    return est;
  }

  Cycles placedCost(int task, int tile, Cycles start) const {
    const Cycles base = ctx_.timings[static_cast<std::size_t>(task)]
                            .wcetByTile[static_cast<std::size_t>(tile)];
    if (!interferenceAware_) return base;
    const std::int64_t accesses =
        ctx_.timings[static_cast<std::size_t>(task)].sharedAccesses;
    if (accesses == 0) return base;
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
    const Cycles extra =
        ctx_.platform.sharedAccessWorstCase(tile, contenders) -
        ctx_.platform.sharedAccessBase(tile);
    return base + accesses * extra;
  }

  void place(int task, int tile, Cycles start, Cycles cost) {
    placements_[static_cast<std::size_t>(task)] =
        Placement{task, tile, start, start + cost};
    tileAvail_[static_cast<std::size_t>(tile)] = start + cost;
    tileOrder_[static_cast<std::size_t>(tile)].push_back(task);
  }

  Schedule finish(std::string policy) const {
    Schedule s;
    s.placements = placements_;
    s.tileOrder.assign(static_cast<std::size_t>(ctx_.platform.coreCount()),
                       {});
    for (int t = 0; t < ctx_.cores; ++t) {
      s.tileOrder[static_cast<std::size_t>(t)] =
          tileOrder_[static_cast<std::size_t>(t)];
    }
    for (const Placement& p : placements_) {
      s.makespan = std::max(s.makespan, p.finish);
    }
    for (const auto& order : s.tileOrder) {
      if (!order.empty()) ++s.tilesUsed;
    }
    s.policy = std::move(policy);
    return s;
  }

 private:
  const Context& ctx_;
  EdgeIndex edges_;
  bool interferenceAware_;
  std::vector<Placement> placements_;
  std::vector<Cycles> tileAvail_;
  std::vector<std::vector<int>> tileOrder_;
};

Schedule listSchedule(const Context& ctx, bool interferenceAware,
                      std::string label) {
  ListPlacer placer(ctx, interferenceAware);
  for (int task : priorityOrder(upwardRanks(ctx))) {
    int bestTile = 0;
    Cycles bestStart = 0;
    Cycles bestCost = 0;
    Cycles bestEft = std::numeric_limits<Cycles>::max();
    for (int t = 0; t < ctx.cores; ++t) {
      const Cycles est = placer.earliestStart(task, t);
      const Cycles cost = placer.placedCost(task, t, est);
      if (est + cost < bestEft) {
        bestEft = est + cost;
        bestTile = t;
        bestStart = est;
        bestCost = cost;
      }
    }
    placer.place(task, bestTile, bestStart, bestCost);
  }
  return placer.finish(std::move(label));
}

Schedule scheduleWithAssignment(const Context& ctx,
                                const std::vector<int>& tileOf,
                                bool interferenceAware, std::string label) {
  ListPlacer placer(ctx, interferenceAware);
  for (int task : priorityOrder(upwardRanks(ctx))) {
    const int tile = tileOf[static_cast<std::size_t>(task)];
    const Cycles est = placer.earliestStart(task, tile);
    placer.place(task, tile, est, placer.placedCost(task, tile, est));
  }
  return placer.finish(std::move(label));
}

/// The policy's result plus the moves it evaluated and accepted.
struct Result {
  Schedule schedule;
  std::uint64_t moves = 0;
  std::uint64_t accepted = 0;
};

Result anneal(const sched::Scheduler& scheduler, const htg::TaskGraph& graph,
              const adl::Platform& platform,
              const sched::SchedOptions& options) {
  const int cores = options.coreLimit <= 0
                        ? platform.coreCount()
                        : std::min(options.coreLimit, platform.coreCount());
  const Context ctx{graph, platform, scheduler.timings(), graph.successors(),
                    graph.predecessors(), cores};
  const bool aware = options.interferenceAware;
  const Schedule seed = listSchedule(ctx, aware, "annealed");
  const std::size_t n = graph.tasks.size();
  std::vector<int> seedAssignment(n);
  for (std::size_t i = 0; i < n; ++i) {
    seedAssignment[i] = seed.placements[i].tile;
  }

  Result out;
  Cycles bestMakespan = seed.makespan;
  std::vector<int> best = seedAssignment;
  for (int r = 0; r < std::max(1, options.saRestarts); ++r) {
    Cycles chainBest = seed.makespan;
    std::vector<int> chainBestAssignment = seedAssignment;
    std::vector<int> assignment = seedAssignment;
    Cycles current = seed.makespan;
    support::Rng rng(options.seed + static_cast<std::uint64_t>(r));
    double temperature =
        options.saInitialTemp * static_cast<double>(seed.makespan);
    const double cooling =
        std::pow(0.01, 1.0 / std::max(1, options.saIterations));
    for (int iter = 0; iter < options.saIterations; ++iter) {
      const std::size_t task = static_cast<std::size_t>(
          rng.uniformInt(0, static_cast<int>(n) - 1));
      const int oldTile = assignment[task];
      const int newTile = static_cast<int>(rng.uniformInt(0, cores - 1));
      if (newTile == oldTile) continue;
      assignment[task] = newTile;
      ++out.moves;
      const Schedule candidate =
          scheduleWithAssignment(ctx, assignment, aware, "annealed");
      const double delta = static_cast<double>(candidate.makespan) -
                           static_cast<double>(current);
      const bool accept =
          delta <= 0.0 || rng.uniformDouble() <
                              std::exp(-delta / std::max(1.0, temperature));
      if (accept) {
        ++out.accepted;
        current = candidate.makespan;
        if (candidate.makespan < chainBest) {
          chainBest = candidate.makespan;
          chainBestAssignment = assignment;
        }
      } else {
        assignment[task] = oldTile;
      }
      temperature *= cooling;
    }
    if (chainBest < bestMakespan) {
      bestMakespan = chainBest;
      best = chainBestAssignment;
    }
  }
  Schedule result = scheduleWithAssignment(ctx, best, aware, "annealed");
  out.schedule = result.makespan > seed.makespan ? seed : result;
  return out;
}

}  // namespace reference

std::uint64_t counted(const char* name) {
  return support::MetricsRegistry::global().counter(name).value();
}

/// Runs the policy and the reference and requires the same schedule and
/// the same numbers of evaluated and accepted moves.
void expectMatchesReference(const sched::Scheduler& scheduler,
                            const htg::TaskGraph& graph,
                            const adl::Platform& platform,
                            const sched::SchedOptions& options,
                            const std::string& what) {
  SCOPED_TRACE(what);
  const reference::Result expected =
      reference::anneal(scheduler, graph, platform, options);
  const std::uint64_t moves = counted("sched.anneal.moves");
  const std::uint64_t accepted = counted("sched.anneal.accepted");
  expectSameSchedule(scheduler.run(options), expected.schedule);
  EXPECT_EQ(counted("sched.anneal.moves") - moves, expected.moves);
  EXPECT_EQ(counted("sched.anneal.accepted") - accepted, expected.accepted);
}

/// Runs the oracle over interference awareness, 1/2/all cores and one or
/// three restarts.
void runAnnealGrid(const htg::TaskGraph& graph, const std::string& name) {
  for (const auto& [platformName, platform] : test::oraclePlatforms()) {
    const sched::Scheduler scheduler(graph, platform);
    for (const bool interferenceAware : {false, true}) {
      for (const int coreLimit : {1, 2, 0}) {
        for (const int restarts : {1, 3}) {
          sched::SchedOptions options;
          options.policy = "annealed";
          options.saIterations = 300;
          options.interferenceAware = interferenceAware;
          options.coreLimit = coreLimit;
          options.saRestarts = restarts;
          expectMatchesReference(
              scheduler, graph, platform, options,
              name + " " + platformName +
                  " ia=" + std::to_string(interferenceAware) +
                  " cores=" + std::to_string(coreLimit) +
                  " restarts=" + std::to_string(restarts));
        }
      }
    }
  }
}

TEST(AnnealOracle, MatchesThePerMoveScheduleChainOnFixtures) {
  for (const int chunks : {2, 3, 4}) {
    const Fixture fx(chunks);
    runAnnealGrid(fx.graph, "diamond chunks=" + std::to_string(chunks));
  }
  Fixture doubled(2);
  test::repeatEdgesHeavier(doubled.graph);
  runAnnealGrid(doubled.graph, "diamond with repeated edges");
  const auto wide = test::makeWideLoopFn(48);
  runAnnealGrid(htg::expand(htg::buildHtg(*wide), htg::ExpandOptions{8}),
                "wide");
}

class AnnealOracleScenarios : public ::testing::TestWithParam<int> {};

TEST_P(AnnealOracleScenarios, MatchesThePerMoveScheduleChain) {
  // Generated layered DAGs at the evaluation seed, expanded the way the
  // evaluator's feedback candidates are (two chunks per loop).
  scenarios::GeneratorOptions gen;
  gen.seed = 7;
  const scenarios::Scenario scenario =
      scenarios::generateScenario(gen, GetParam());
  runAnnealGrid(
      htg::expand(htg::buildHtg(*scenario.model.fn), htg::ExpandOptions{2}),
      scenario.name);
}

INSTANTIATE_TEST_SUITE_P(Seed7, AnnealOracleScenarios, ::testing::Range(0, 20));

}  // namespace
}  // namespace argo
