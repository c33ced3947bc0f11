// Determinism regression for the parallel cross-layer feedback
// exploration: evaluating the candidate ladder on several TaskGraph
// executors must be observationally identical to the sequential path —
// same chosen candidate, same FeedbackPoint sequence, same report text.
// Each app runs with the default ladder on a 4-core bus and with a wide
// eight-candidate ladder on an 8-core bus.
#include <gtest/gtest.h>

#include <ostream>
#include <vector>

#include "apps/egpws.h"
#include "apps/polka.h"
#include "apps/weaa.h"
#include "core/toolchain.h"

namespace argo::core {
namespace {

model::Diagram buildApp(const std::string& app) {
  if (app == "egpws") {
    apps::EgpwsConfig config;
    config.gridH = 16;
    config.gridW = 16;
    config.samples = 16;
    return apps::buildEgpwsDiagram(config);
  }
  if (app == "weaa") {
    apps::WeaaConfig config;
    config.horizon = 24;
    config.candidates = 4;
    return apps::buildWeaaDiagram(config);
  }
  apps::PolkaConfig config;
  config.mosaicH = 16;
  config.mosaicW = 16;
  return apps::buildPolkaDiagram(config);
}

struct ExploreCase {
  const char* app;
  int cores;
  std::vector<int> ladder;  // empty: the toolchain's default ladder
};

// Prints the app name alone, so test names read Apps/.../"egpws".
void PrintTo(const ExploreCase& c, std::ostream* os) {
  *os << '"' << c.app << '"';
}

class ParallelExploreDeterminism
    : public ::testing::TestWithParam<ExploreCase> {};

TEST_P(ParallelExploreDeterminism, PooledMatchesSequentialBitForBit) {
  const model::Diagram diagram = buildApp(GetParam().app);
  const model::CompiledModel model = diagram.compile();
  const adl::Platform platform = adl::makeRecoreXentiumBus(GetParam().cores);

  ToolchainOptions sequentialOptions;
  sequentialOptions.chunkCandidates = GetParam().ladder;
  sequentialOptions.explorationThreads = 1;
  const ToolchainResult sequential =
      Toolchain(platform, sequentialOptions).run(model);

  ToolchainOptions pooledOptions = sequentialOptions;
  pooledOptions.explorationThreads = 4;
  const ToolchainResult pooled =
      Toolchain(platform, pooledOptions).run(model);

  EXPECT_EQ(sequential.chosenChunks, pooled.chosenChunks);
  EXPECT_EQ(sequential.system.makespan, pooled.system.makespan);
  EXPECT_EQ(sequential.sequentialWcet, pooled.sequentialWcet);

  ASSERT_EQ(sequential.feedback.size(), pooled.feedback.size());
  for (std::size_t i = 0; i < sequential.feedback.size(); ++i) {
    const FeedbackPoint& s = sequential.feedback[i];
    const FeedbackPoint& p = pooled.feedback[i];
    EXPECT_EQ(s.chunksPerLoop, p.chunksPerLoop) << "point " << i;
    EXPECT_EQ(s.coreLimit, p.coreLimit) << "point " << i;
    EXPECT_EQ(s.systemWcet, p.systemWcet) << "point " << i;
    EXPECT_EQ(s.tasks, p.tasks) << "point " << i;
  }

  // The full report (minus wall-clock stage timings) is bit-identical.
  EXPECT_EQ(sequential.reportText(/*includeStageTimings=*/false),
            pooled.reportText(/*includeStageTimings=*/false));
}

TEST_P(ParallelExploreDeterminism, OversubscribedPoolStillDeterministic) {
  // More workers than candidates (and repeated runs) must not change the
  // outcome either.
  const model::Diagram diagram = buildApp(GetParam().app);
  const model::CompiledModel model = diagram.compile();
  const adl::Platform platform = adl::makeRecoreXentiumBus(GetParam().cores);

  ToolchainOptions options;
  options.chunkCandidates = GetParam().ladder;
  options.explorationThreads = 16;
  const Toolchain toolchain(platform, options);
  const ToolchainResult first = toolchain.run(model);
  const ToolchainResult second = toolchain.run(model);
  EXPECT_EQ(first.chosenChunks, second.chosenChunks);
  EXPECT_EQ(first.reportText(false), second.reportText(false));
}

INSTANTIATE_TEST_SUITE_P(Apps, ParallelExploreDeterminism,
                         ::testing::Values(ExploreCase{"egpws", 4, {}},
                                           ExploreCase{"weaa", 4, {}},
                                           ExploreCase{"polka", 4, {}}));

const std::vector<int> kWideLadder = {1, 2, 3, 4, 6, 8, 12, 16};

INSTANTIATE_TEST_SUITE_P(
    WideLadder, ParallelExploreDeterminism,
    ::testing::Values(ExploreCase{"egpws", 8, kWideLadder},
                      ExploreCase{"weaa", 8, kWideLadder},
                      ExploreCase{"polka", 8, kWideLadder}));

}  // namespace
}  // namespace argo::core
