// Unit tests for the discrete-event timing simulator.
#include <gtest/gtest.h>

#include "apps/registry.h"
#include "core/toolchain.h"
#include "htg/htg.h"
#include "ir/builder.h"
#include "par/parallel_program.h"
#include "sched/scheduler.h"
#include "sim/simulator.h"
#include "support/rng.h"
#include "syswcet/system_wcet.h"

namespace argo::sim {
namespace {

using ir::ScalarKind;
using ir::Type;
using ir::VarRole;

std::unique_ptr<ir::Function> makeWorkFn(int width = 16) {
  auto fn = std::make_unique<ir::Function>("work");
  fn->declare("u", Type::array(ScalarKind::Float64, {width}), VarRole::Input);
  fn->declare("a", Type::array(ScalarKind::Float64, {width}), VarRole::Temp);
  fn->declare("y", Type::array(ScalarKind::Float64, {width}),
              VarRole::Output);
  auto body1 = ir::block();
  body1->append(ir::assign(
      ir::ref("a", ir::exprVec(ir::var("i"))),
      ir::sqrtE(ir::un(ir::UnOpKind::Abs,
                       ir::ref("u", ir::exprVec(ir::var("i")))))));
  fn->body().append(ir::forLoop("i", 0, width, std::move(body1)));
  auto body2 = ir::block();
  body2->append(ir::assign(ir::ref("y", ir::exprVec(ir::var("j"))),
                           ir::add(ir::ref("a", ir::exprVec(ir::var("j"))),
                                   ir::flt(1.0))));
  fn->body().append(ir::forLoop("j", 0, width, std::move(body2)));
  return fn;
}

struct Built {
  std::unique_ptr<ir::Function> fn;
  htg::TaskGraph graph;
  adl::Platform platform;
  std::vector<sched::TaskTiming> timings;
  par::ParallelProgram program;

  Built(const adl::Platform& plat, int chunks)
      : fn(makeWorkFn()),
        graph(htg::expand(htg::buildHtg(*fn), htg::ExpandOptions{chunks})),
        platform(plat) {
    sched::Scheduler scheduler(graph, platform);
    const sched::Schedule schedule = scheduler.run(sched::SchedOptions{});
    timings = scheduler.timings();
    program = par::buildParallelProgram(graph, schedule, platform);
  }
};

ir::Environment makeInputs(const ir::Function& fn, std::uint64_t seed) {
  support::Rng rng(seed);
  ir::Environment env = ir::makeZeroEnvironment(fn);
  ir::Value& u = env.at("u");
  for (std::int64_t k = 0; k < u.size(); ++k) {
    u.setFloat(k, rng.uniformDouble() * 10.0 - 5.0);
  }
  return env;
}

TEST(Simulator, ProducesCorrectValues) {
  const Built built(adl::makeRecoreXentiumBus(4), /*chunks=*/4);
  ir::Environment simEnv = makeInputs(*built.fn, 1);
  ir::Environment refEnv = simEnv;
  Simulator simulator(built.program, built.platform);
  (void)simulator.step(simEnv);
  ir::Evaluator(*built.fn).run(refEnv);
  EXPECT_TRUE(refEnv.at("y").approxEquals(simEnv.at("y")));
}

TEST(Simulator, DeterministicForSameInputs) {
  const Built built(adl::makeRecoreXentiumBus(4), /*chunks=*/4);
  Simulator simulator(built.program, built.platform);
  ir::Environment envA = makeInputs(*built.fn, 2);
  ir::Environment envB = makeInputs(*built.fn, 2);
  const StepResult a = simulator.step(envA);
  const StepResult b = simulator.step(envB);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.totalSharedAccesses, b.totalSharedAccesses);
}

TEST(Simulator, TaskTracesAreOrderedAndCounted) {
  const Built built(adl::makeRecoreXentiumBus(4), /*chunks=*/2);
  Simulator simulator(built.program, built.platform);
  ir::Environment env = makeInputs(*built.fn, 3);
  const StepResult result = simulator.step(env);
  for (const TaskTrace& t : result.tasks) {
    EXPECT_LE(t.start, t.finish);
    EXPECT_GE(t.sharedAccesses, 0);
  }
  EXPECT_GT(result.totalSharedAccesses, 0);
  EXPECT_GT(result.makespan, 0);
}

TEST(Simulator, RespectsHappensBefore) {
  const Built built(adl::makeRecoreXentiumBus(4), /*chunks=*/4);
  Simulator simulator(built.program, built.platform);
  ir::Environment env = makeInputs(*built.fn, 4);
  const StepResult result = simulator.step(env);
  for (const htg::Dep& dep : built.graph.deps) {
    EXPECT_LE(result.tasks[static_cast<std::size_t>(dep.from)].finish,
              result.tasks[static_cast<std::size_t>(dep.to)].start + 1)
        << dep.from << "->" << dep.to;
  }
}

/// The central safety property: observed <= static bound, across
/// platforms, granularities and inputs.
class SafetySweep
    : public ::testing::TestWithParam<std::tuple<int, int, std::uint64_t>> {};

TEST_P(SafetySweep, ObservedNeverExceedsBound) {
  const int platformKind = std::get<0>(GetParam());
  const int chunks = std::get<1>(GetParam());
  const std::uint64_t seed = std::get<2>(GetParam());
  const adl::Platform platform =
      platformKind == 0   ? adl::makeRecoreXentiumBus(4)
      : platformKind == 1 ? adl::makeRecoreXentiumBus(4,
                                                      adl::Arbitration::Tdma)
                          : adl::makeKitLeon3Inoc(2, 2);
  const Built built(platform, chunks);
  const syswcet::SystemWcet bound = syswcet::analyzeSystem(
      built.program, built.platform, built.timings);
  Simulator simulator(built.program, built.platform);
  ir::Environment env = makeInputs(*built.fn, seed);
  const StepResult observed = simulator.step(env);
  EXPECT_LE(observed.makespan, bound.makespan);
  // Per-task windows are bounded too.
  for (std::size_t i = 0; i < observed.tasks.size(); ++i) {
    EXPECT_LE(observed.tasks[i].finish - observed.tasks[i].start,
              bound.tasks[i].inflated)
        << "task " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    PlatformsChunksSeeds, SafetySweep,
    ::testing::Combine(::testing::Values(0, 1, 2),
                       ::testing::Values(1, 2, 4, 8),
                       ::testing::Values(11u, 22u, 33u)));

TEST(Simulator, TdmaSlowerThanRoundRobinUncontended) {
  // With little contention, TDMA's wheel wait dominates; round-robin is
  // work-conserving.
  const Built rr(adl::makeRecoreXentiumBus(4), /*chunks=*/1);
  const Built tdma(adl::makeRecoreXentiumBus(4, adl::Arbitration::Tdma),
                   /*chunks=*/1);
  Simulator simRr(rr.program, rr.platform);
  Simulator simTdma(tdma.program, tdma.platform);
  ir::Environment envA = makeInputs(*rr.fn, 5);
  ir::Environment envB = makeInputs(*tdma.fn, 5);
  EXPECT_LT(simRr.step(envA).makespan, simTdma.step(envB).makespan);
}

TEST(Simulator, StallsAppearUnderContention) {
  const Built built(adl::makeRecoreXentiumBus(4), /*chunks=*/4);
  Simulator simulator(built.program, built.platform);
  ir::Environment env = makeInputs(*built.fn, 6);
  const StepResult result = simulator.step(env);
  if (built.program.schedule.tilesUsed > 1) {
    EXPECT_GT(result.totalStall, 0);
  }
}

TEST(Simulator, StatePersistsBetweenSteps) {
  // Repeated steps accumulate state exactly like the plain interpreter.
  const Built built(adl::makeRecoreXentiumBus(4), /*chunks=*/2);
  Simulator simulator(built.program, built.platform);
  ir::Environment simEnv = makeInputs(*built.fn, 7);
  ir::Environment refEnv = simEnv;
  for (int step = 0; step < 3; ++step) {
    (void)simulator.step(simEnv);
    ir::Evaluator(*built.fn).run(refEnv);
  }
  EXPECT_TRUE(refEnv.at("y").approxEquals(simEnv.at("y")));
}

/// Pinned metering: the built-in apps compiled with HEFT on a four-tile
/// round-robin bus and simulated for step seed 7. Every per-task trace and
/// the step totals are recorded values; any change in what the reference
/// interpreter meters, or in which order, moves them.
TEST(Simulator, MeteredTracesMatchParent) {
  struct Expected {
    const char* app;
    Cycles makespan;
    Cycles totalStall;
    std::int64_t totalSharedAccesses;
    std::vector<TaskTrace> tasks;  // {start, finish, stall, sharedAccesses}
  };
  const std::vector<Expected> expected = {
      {"egpws", 4003, 576, 340,
       {{0, 74, 0, 6}, {252, 1718, 68, 36}, {114, 1582, 70, 36},
        {134, 1612, 80, 36}, {162, 1630, 70, 36}, {1756, 3222, 68, 36},
        {1668, 3136, 70, 36}, {1698, 3166, 70, 36}, {1678, 3156, 80, 36},
        {3232, 3233, 0, 0}, {3352, 3834, 0, 32}, {3854, 4003, 0, 14}}},
      {"weaa", 76657, 62732, 7027,
       {{67385, 67385, 0, 0}, {63564, 66550, 80, 96}, {66584, 69650, 160, 96},
        {63584, 66580, 90, 96}, {69680, 72586, 0, 96}, {66580, 69640, 154, 96},
        {63314, 66350, 130, 96}, {72596, 75502, 0, 96}, {69640, 72546, 0, 96},
        {66384, 66385, 0, 0}, {75665, 76501, 114, 48}, {76511, 76566, 0, 5},
        {0, 31674, 7700, 781}, {0, 31542, 7700, 770}, {0, 31552, 7710, 770},
        {0, 31610, 7720, 774}, {31872, 63374, 7660, 770}, {31762, 63294, 7690, 770},
        {31702, 63244, 7700, 770}, {31852, 63364, 7670, 770}, {66444, 66445, 0, 0},
        {66534, 66844, 188, 8}, {76586, 76637, 0, 5}, {75572, 75595, 0, 2},
        {66724, 66805, 58, 2}, {75675, 75716, 18, 2}, {67034, 67115, 58, 2},
        {75835, 75876, 18, 2}, {67324, 67385, 38, 2}, {67124, 67205, 58, 2},
        {75995, 76036, 18, 2}, {76637, 76657, 0, 2}}},
      {"polka", 139953, 217979, 13010,
       {{0, 10258, 5610, 256}, {0, 10268, 5620, 256}, {0, 10278, 5630, 256},
        {0, 10288, 5640, 256}, {10418, 20698, 5632, 256}, {10478, 20748, 5622, 256},
        {10508, 20778, 5622, 256}, {10528, 20788, 5612, 256}, {21168, 37960, 7856, 416},
        {21199, 38000, 7865, 416}, {21270, 38062, 7856, 416}, {21260, 38052, 7856, 416},
        {38250, 55090, 7904, 416}, {38390, 55200, 7874, 416}, {38540, 55283, 7807, 416},
        {38520, 55273, 7817, 416}, {55640, 84649, 10830, 722}, {55470, 90376, 13720, 860},
        {55660, 90508, 13662, 860}, {55530, 90426, 13710, 860}, {85120, 119664, 13358, 860},
        {90808, 123548, 11554, 860}, {91018, 123682, 11478, 860}, {90908, 119901, 10670, 722},
        {123792, 126392, 1408, 64}, {123842, 126432, 1398, 64}, {123892, 126472, 1388, 64},
        {123862, 126452, 1398, 64}, {126612, 129212, 1408, 64}, {126662, 129252, 1398, 64},
        {126752, 129322, 1378, 64}, {126682, 129272, 1398, 64}, {129242, 129243, 0, 0},
        {129992, 134906, 0, 256}, {134916, 134928, 0, 1}, {134988, 139902, 0, 256},
        {139902, 139953, 0, 5}}}};
  const adl::Platform platform = adl::makeRecoreXentiumBus(4);
  core::ToolchainOptions options;
  options.sched.policy = "heft";
  const core::Toolchain toolchain(platform, options);
  for (const Expected& want : expected) {
    SCOPED_TRACE(want.app);
    const core::ToolchainResult result =
        toolchain.run(apps::buildAppDiagram(want.app).compile());
    ir::Environment env = ir::makeZeroEnvironment(*result.fn);
    for (const auto& [name, value] : result.constants) env[name] = value;
    apps::setAppStepInputs(want.app, env, 7);
    const StepResult got = Simulator(result.program, platform).step(env);
    EXPECT_EQ(got.makespan, want.makespan);
    EXPECT_EQ(got.totalStall, want.totalStall);
    EXPECT_EQ(got.totalSharedAccesses, want.totalSharedAccesses);
    ASSERT_EQ(got.tasks.size(), want.tasks.size());
    for (std::size_t i = 0; i < want.tasks.size(); ++i) {
      EXPECT_EQ(got.tasks[i].start, want.tasks[i].start) << "task " << i;
      EXPECT_EQ(got.tasks[i].finish, want.tasks[i].finish) << "task " << i;
      EXPECT_EQ(got.tasks[i].stall, want.tasks[i].stall) << "task " << i;
      EXPECT_EQ(got.tasks[i].sharedAccesses, want.tasks[i].sharedAccesses)
          << "task " << i;
    }
  }
}

TEST(NonSharedCost, PricesMeterAgainstCore) {
  ir::CountingMeter meter;
  meter.onOp(ir::OpClass::FloatMul);
  meter.onOp(ir::OpClass::FloatMul);
  meter.onAccess(ir::Storage::Local, false);
  meter.onAccess(ir::Storage::Scratchpad, true);
  meter.onAccess(ir::Storage::Shared, true);  // excluded
  const adl::CoreModel core = adl::CoreModel::leon3();
  const Cycles expected = 2 * core.cyclesFor(ir::OpClass::FloatMul) +
                          core.localAccessCycles + core.spmAccessCycles;
  EXPECT_EQ(nonSharedCost(meter, core), expected);
}

}  // namespace
}  // namespace argo::sim
