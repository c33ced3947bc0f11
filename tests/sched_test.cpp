// Unit tests for the scheduling/mapping policies.
#include <gtest/gtest.h>

#include <algorithm>

#include "diamond_fixture.h"
#include "numbered.h"
#include "sched_oracle.h"
#include "htg/htg.h"
#include "ir/builder.h"
#include "par/parallel_program.h"
#include "scenarios/generator.h"
#include "sched/scheduler.h"
#include "support/diagnostics.h"
#include "syswcet/system_wcet.h"

namespace argo::sched {
namespace {

using ir::ScalarKind;
using ir::Type;
using ir::VarRole;
using test::makeDiamondFn;

struct Fixture {
  std::unique_ptr<ir::Function> fn;
  htg::TaskGraph graph;
  adl::Platform platform;

  explicit Fixture(int chunks = 1, int cores = 4)
      : fn(makeDiamondFn()),
        graph(htg::expand(htg::buildHtg(*fn), htg::ExpandOptions{chunks})),
        platform(adl::makeRecoreXentiumBus(cores)) {}
};

TEST(Timings, PositiveAndTileIndexed) {
  Fixture fx;
  const auto timings = computeTaskTimings(fx.graph, fx.platform);
  ASSERT_EQ(timings.size(), fx.graph.tasks.size());
  for (const TaskTiming& t : timings) {
    ASSERT_EQ(t.wcetByTile.size(), 4u);
    for (Cycles c : t.wcetByTile) EXPECT_GT(c, 0);
    EXPECT_GT(t.sharedAccesses, 0);  // everything lives in shared memory
  }
}

TEST(Timings, HeterogeneousTilesDiffer) {
  Fixture fx;
  const adl::Platform hetero = adl::makeKitLeon3Inoc(2, 2, /*accel=*/true);
  // Build a math-heavy graph to see the difference.
  auto fn = std::make_unique<ir::Function>("mathy");
  fn->declare("y", Type::float64(), VarRole::Output, ir::Storage::Local);
  auto body = ir::block();
  body->append(ir::assign(ir::ref("y"), ir::un(ir::UnOpKind::Sin,
                                               ir::var("y"))));
  fn->body().append(ir::forLoop("i", 0, 32, std::move(body)));
  const htg::TaskGraph graph =
      htg::expand(htg::buildHtg(*fn), htg::ExpandOptions{1});
  const auto timings = computeTaskTimings(graph, hetero);
  EXPECT_LT(timings[0].wcetByTile[3], timings[0].wcetByTile[0]);
}

TEST(Heft, ProducesValidSchedule) {
  for (int chunks : {1, 2, 4}) {
    Fixture fx(chunks);
    Scheduler scheduler(fx.graph, fx.platform);
    SchedOptions options;
    const Schedule schedule = scheduler.run(options);
    const auto problems = validateSchedule(schedule, fx.graph, fx.platform,
                                           scheduler.timings());
    EXPECT_TRUE(problems.empty())
        << "chunks " << chunks << ": " << problems.front();
    EXPECT_GT(schedule.makespan, 0);
  }
}

TEST(Heft, UsesMultipleTilesWhenParallelismExists) {
  Fixture fx(/*chunks=*/4);
  Scheduler scheduler(fx.graph, fx.platform);
  const Schedule schedule = scheduler.run(SchedOptions{});
  EXPECT_GT(schedule.tilesUsed, 1);
}

TEST(Heft, CoreLimitRestrictsTiles) {
  Fixture fx(/*chunks=*/4, /*cores=*/8);
  Scheduler scheduler(fx.graph, fx.platform);
  SchedOptions options;
  options.coreLimit = 2;
  const Schedule schedule = scheduler.run(options);
  for (const Placement& p : schedule.placements) EXPECT_LT(p.tile, 2);
}

TEST(Heft, MoreCoresNeverWorseEstimate) {
  Cycles prev = std::numeric_limits<Cycles>::max();
  for (int cores : {1, 2, 4}) {
    Fixture fx(/*chunks=*/4, cores);
    Scheduler scheduler(fx.graph, fx.platform);
    SchedOptions options;
    options.interferenceAware = false;  // pure makespan comparison
    const Schedule schedule = scheduler.run(options);
    EXPECT_LE(schedule.makespan, prev) << cores << " cores";
    prev = schedule.makespan;
  }
}

TEST(ContentionOblivious, IgnoresInterference) {
  Fixture fx(/*chunks=*/4);
  Scheduler scheduler(fx.graph, fx.platform);
  SchedOptions aware;
  aware.policy = "heft";
  SchedOptions oblivious;
  oblivious.policy = "contention_oblivious";
  const Schedule a = scheduler.run(aware);
  const Schedule b = scheduler.run(oblivious);
  EXPECT_EQ(b.policy, "contention_oblivious");
  // Both are structurally valid.
  EXPECT_TRUE(validateSchedule(a, fx.graph, fx.platform,
                               scheduler.timings()).empty());
  EXPECT_TRUE(validateSchedule(b, fx.graph, fx.platform,
                               scheduler.timings()).empty());
}

TEST(BnB, OptimalOnSmallGraphs) {
  Fixture fx(/*chunks=*/2);  // 8 tasks
  ASSERT_LE(fx.graph.tasks.size(), 14u);
  Scheduler scheduler(fx.graph, fx.platform);
  SchedOptions heftOpt;
  heftOpt.interferenceAware = false;
  const Schedule heft = scheduler.run(heftOpt);
  SchedOptions bnbOpt;
  bnbOpt.policy = "branch_and_bound";
  bnbOpt.interferenceAware = false;
  const Schedule bnb = scheduler.run(bnbOpt);
  EXPECT_TRUE(validateSchedule(bnb, fx.graph, fx.platform,
                               scheduler.timings()).empty());
  // Exact search can never be worse than the heuristic.
  EXPECT_LE(bnb.makespan, heft.makespan);
}

TEST(BnB, FallsBackOnLargeGraphs) {
  Fixture fx(/*chunks=*/8);  // > bnbTaskLimit tasks
  Scheduler scheduler(fx.graph, fx.platform);
  SchedOptions options;
  options.policy = "branch_and_bound";
  options.bnbTaskLimit = 10;
  const Schedule schedule = scheduler.run(options);
  EXPECT_NE(schedule.policy.find("fallback"), std::string::npos);
  EXPECT_TRUE(validateSchedule(schedule, fx.graph, fx.platform,
                               scheduler.timings()).empty());
}

TEST(Annealed, NeverWorseThanSeedAndValid) {
  Fixture fx(/*chunks=*/4);
  Scheduler scheduler(fx.graph, fx.platform);
  SchedOptions heftOpt;
  const Schedule heft = scheduler.run(heftOpt);
  SchedOptions saOpt;
  saOpt.policy = "annealed";
  saOpt.saIterations = 300;
  const Schedule sa = scheduler.run(saOpt);
  EXPECT_LE(sa.makespan, heft.makespan);
  EXPECT_TRUE(validateSchedule(sa, fx.graph, fx.platform,
                               scheduler.timings()).empty());
}

TEST(Annealed, DeterministicForSeed) {
  Fixture fx(/*chunks=*/4);
  Scheduler scheduler(fx.graph, fx.platform);
  SchedOptions options;
  options.policy = "annealed";
  options.saIterations = 200;
  options.seed = 42;
  const Schedule a = scheduler.run(options);
  const Schedule b = scheduler.run(options);
  EXPECT_EQ(a.makespan, b.makespan);
  for (std::size_t i = 0; i < a.placements.size(); ++i) {
    EXPECT_EQ(a.placements[i].tile, b.placements[i].tile);
  }
}

TEST(Validate, DetectsOverlap) {
  Fixture fx;
  Scheduler scheduler(fx.graph, fx.platform);
  Schedule schedule = scheduler.run(SchedOptions{});
  // Force two tasks onto the same tile at the same time.
  if (schedule.placements.size() >= 2) {
    schedule.placements[1].tile = schedule.placements[0].tile;
    schedule.placements[1].start = schedule.placements[0].start;
    schedule.placements[1].finish = schedule.placements[0].finish;
    EXPECT_FALSE(validateSchedule(schedule, fx.graph, fx.platform,
                                  scheduler.timings()).empty());
  }
}

TEST(Validate, DetectsDependenceViolation) {
  Fixture fx;
  Scheduler scheduler(fx.graph, fx.platform);
  Schedule schedule = scheduler.run(SchedOptions{});
  // Move a consumer before its producer.
  ASSERT_FALSE(fx.graph.deps.empty());
  const htg::Dep& dep = fx.graph.deps.front();
  schedule.placements[static_cast<std::size_t>(dep.to)].start = 0;
  schedule.placements[static_cast<std::size_t>(dep.to)].finish = 1;
  EXPECT_FALSE(validateSchedule(schedule, fx.graph, fx.platform,
                                scheduler.timings()).empty());
}

TEST(Validate, DetectsTooShortTask) {
  Fixture fx;
  Scheduler scheduler(fx.graph, fx.platform);
  Schedule schedule = scheduler.run(SchedOptions{});
  schedule.placements[0].finish = schedule.placements[0].start;  // 0 length
  EXPECT_FALSE(validateSchedule(schedule, fx.graph, fx.platform,
                                scheduler.timings()).empty());
}

TEST(CommCost, ZeroWhenColocated) {
  Fixture fx;
  htg::Dep dep;
  dep.bytes = 128;
  EXPECT_EQ(commCost(fx.platform, dep, 1, 1), 0);
  EXPECT_GT(commCost(fx.platform, dep, 0, 1), 0);
}

TEST(Scheduler, ThrowsOnEmptyGraph) {
  Fixture fx;
  htg::TaskGraph empty;
  empty.fn = fx.fn.get();
  Scheduler scheduler(empty, fx.platform);
  EXPECT_THROW((void)scheduler.run(SchedOptions{}), support::ToolchainError);
}

/// computeTaskTimings before tiles were grouped into pricing classes: every
/// task analyzed on every tile. The oracle for the class-based tables.
std::vector<TaskTiming> perTileTimings(const htg::TaskGraph& graph,
                                       const adl::Platform& platform) {
  std::vector<TaskTiming> timings(graph.tasks.size());
  for (std::size_t i = 0; i < graph.tasks.size(); ++i) {
    TaskTiming& timing = timings[i];
    timing.wcetByTile.resize(static_cast<std::size_t>(platform.coreCount()));
    for (int t = 0; t < platform.coreCount(); ++t) {
      const wcet::TimingModel model = wcet::TimingModel::forTile(platform, t);
      const wcet::SchemaAnalyzer analyzer(*graph.fn, model);
      wcet::WcetResult result;
      for (const ir::StmtPtr& s : graph.tasks[i].stmts) {
        result += analyzer.analyzeStmt(*s);
      }
      timing.wcetByTile[static_cast<std::size_t>(t)] = result.cycles;
      if (t == 0) timing.sharedAccesses = result.accesses.sharedTotal();
    }
  }
  return timings;
}

/// Touches every storage class, so every priced field shows in its WCET:
/// a local accumulator, a scratchpad coefficient table, shared arrays.
std::unique_ptr<ir::Function> makeMixedStorageFn(int width = 16) {
  auto fn = std::make_unique<ir::Function>("mixed");
  const Type array = Type::array(ScalarKind::Float64, {width});
  fn->declare("u", array, VarRole::Input, ir::Storage::Shared);
  fn->declare("k", array, VarRole::Const, ir::Storage::Scratchpad);
  fn->declare("acc", Type::float64(), VarRole::Temp, ir::Storage::Local);
  fn->declare("y", array, VarRole::Output, ir::Storage::Shared);
  auto scan = ir::block();
  scan->append(ir::assign(
      ir::ref("acc"),
      ir::add(ir::var("acc"), ir::mul(ir::ref("u", ir::exprVec(ir::var("i"))),
                                      ir::ref("k", ir::exprVec(ir::var("i")))))));
  scan->append(ir::assign(ir::ref("y", ir::exprVec(ir::var("i"))),
                          ir::var("acc")));
  fn->body().append(ir::forLoop("i", 0, width, std::move(scan)));
  auto halve = ir::block();
  halve->append(ir::assign(
      ir::ref("y", ir::exprVec(ir::var("j"))),
      ir::mul(ir::ref("y", ir::exprVec(ir::var("j"))), ir::flt(0.5))));
  fn->body().append(ir::forLoop("j", 0, width, std::move(halve)));
  return fn;
}

/// A four-tile Xentium bus whose tile 2 differs from the others in exactly
/// the one priced field `edit` changes.
template <typename Edit>
adl::Platform busWithOddTile(Edit edit) {
  const adl::Platform base = adl::makeRecoreXentiumBus(4);
  std::vector<adl::Tile> tiles = base.tiles();
  edit(tiles[2].core);
  return adl::Platform("odd_tile", tiles, base.bus(), base.sharedMemBytes());
}

TEST(Timings, TileClassesMatchPerTileAnalysis) {
  // Tiles that differ only in the field under test: a class key that
  // drops that field merges tile 2 into tile 0's class.
  const std::vector<std::pair<std::string, adl::Platform>> oddTile = {
      {"odd_op", busWithOddTile([](adl::CoreModel& core) {
         core.opCycles[static_cast<std::size_t>(ir::OpClass::FloatMul)] += 3;
       })},
      {"odd_spm",
       busWithOddTile([](adl::CoreModel& core) { core.spmAccessCycles += 3; })},
      {"odd_local", busWithOddTile([](adl::CoreModel& core) {
         core.localAccessCycles += 3;
       })}};
  std::vector<std::pair<std::string, adl::Platform>> platforms =
      test::oraclePlatforms();
  platforms.emplace_back("noc3x3", adl::makeKitLeon3Inoc(3, 3));
  platforms.insert(platforms.end(), oddTile.begin(), oddTile.end());

  std::vector<std::pair<std::string, htg::TaskGraph>> graphs;
  const auto diamond = test::makeDiamondFn();
  const auto mixed = makeMixedStorageFn();
  for (const int chunks : {1, 2, 3}) {
    graphs.emplace_back(
        test::numbered("diamond chunks=", chunks),
        htg::expand(htg::buildHtg(*diamond), htg::ExpandOptions{chunks}));
    graphs.emplace_back(
        test::numbered("mixed chunks=", chunks),
        htg::expand(htg::buildHtg(*mixed), htg::ExpandOptions{chunks}));
  }
  // The seed-7 scenarios of the argo_eval matrix.
  scenarios::GeneratorOptions gen;
  gen.seed = 7;
  std::vector<scenarios::Scenario> matrix;
  for (int index = 0; index < 50; ++index) {
    matrix.push_back(scenarios::generateScenario(gen, index));
    graphs.emplace_back(matrix.back().name,
                        htg::expand(htg::buildHtg(*matrix.back().model.fn),
                                    htg::ExpandOptions{1}));
  }

  for (const auto& [platformName, platform] : platforms) {
    for (const auto& [graphName, graph] : graphs) {
      EXPECT_EQ(computeTaskTimings(graph, platform),
                perTileTimings(graph, platform))
          << graphName << " on " << platformName;
    }
  }

  // Not vacuous: on each odd-tile platform, and across the NoC's hop
  // distances, some task of the mixed graph really prices differently.
  const htg::TaskGraph probe =
      htg::expand(htg::buildHtg(*mixed), htg::ExpandOptions{1});
  const auto differs = [&](const adl::Platform& platform, std::size_t a,
                           std::size_t b) {
    const std::vector<TaskTiming> timings = perTileTimings(probe, platform);
    return std::any_of(timings.begin(), timings.end(),
                       [&](const TaskTiming& t) {
                         return t.wcetByTile[a] != t.wcetByTile[b];
                       });
  };
  for (const auto& [platformName, platform] : oddTile) {
    EXPECT_TRUE(differs(platform, 0, 2)) << platformName;
  }
  EXPECT_TRUE(differs(adl::makeKitLeon3Inoc(3, 3), 0, 8));
}

TEST(Timings, PricingClassesPerPlatform) {
  const auto classes = [](const adl::Platform& platform) {
    std::vector<wcet::TimingModel> distinct;
    for (int t = 0; t < platform.coreCount(); ++t) {
      const wcet::TimingModel model = wcet::TimingModel::forTile(platform, t);
      if (std::find(distinct.begin(), distinct.end(), model) ==
          distinct.end()) {
        distinct.push_back(model);
      }
    }
    return distinct.size();
  };
  EXPECT_EQ(classes(adl::makeRecoreXentiumBus(8)), 1u);
  EXPECT_EQ(classes(adl::makeRecoreXentiumBus(8, adl::Arbitration::Tdma)), 1u);
  // One class per hop distance (0..4) to the memory tile.
  EXPECT_EQ(classes(adl::makeKitLeon3Inoc(3, 3)), 5u);
  // Names and scratchpad capacity price nothing.
  adl::CoreModel renamed = adl::CoreModel::xentiumDsp();
  renamed.name = "renamed";
  renamed.spmBytes *= 2;
  EXPECT_EQ(wcet::TimingModel(renamed, 10),
            wcet::TimingModel(adl::CoreModel::xentiumDsp(), 10));
}

/// Runs `fn`, which must throw a ToolchainError naming `field`.
template <typename Fn>
void expectRejected(Fn&& fn, const std::string& field, int threads) {
  try {
    fn();
    ADD_FAILURE() << field << " accepted " << threads;
  } catch (const support::ToolchainError& error) {
    EXPECT_NE(std::string(error.what()).find(field), std::string::npos)
        << error.what();
  }
}

TEST(InlinePhases, CompatibilityThreadKnobsAcceptOnlyOne) {
  // SchedOptions::parallelThreads and the trailing thread arguments of
  // computeTaskTimings and analyzeSystem are kept for source
  // compatibility: every phase runs inline, so 1 (the default) is the only
  // value they accept.
  Fixture fx;
  const Scheduler scheduler(fx.graph, fx.platform);
  SchedOptions options;
  options.parallelThreads = 1;
  const Schedule schedule = scheduler.run(options);
  const par::ParallelProgram program =
      par::buildParallelProgram(fx.graph, schedule, fx.platform);
  EXPECT_EQ(computeTaskTimings(fx.graph, fx.platform, 1), scheduler.timings());
  const syswcet::SystemWcet bound = syswcet::analyzeSystem(
      program, fx.platform, scheduler.timings(),
      syswcet::InterferenceMethod::MhpRefined, 1);
  EXPECT_GT(bound.makespan, 0);

  for (const int threads : {4, 0}) {
    options.parallelThreads = threads;
    expectRejected([&] { (void)scheduler.run(options); },
                   "SchedOptions::parallelThreads", threads);
    expectRejected(
        [&] { (void)computeTaskTimings(fx.graph, fx.platform, threads); },
        "computeTaskTimings parallelThreads", threads);
    expectRejected(
        [&] {
          (void)syswcet::analyzeSystem(
              program, fx.platform, scheduler.timings(),
              syswcet::InterferenceMethod::MhpRefined, threads);
        },
        "analyzeSystem parallelThreads", threads);
  }
}

}  // namespace
}  // namespace argo::sched
