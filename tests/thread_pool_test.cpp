// support::ThreadPool: coverage, exception propagation, reuse across runs,
// and a ProgramGenerator-driven stress test (pooled evaluation of random
// programs must match sequential evaluation bit for bit).
#include "support/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

#include "ir/evaluator.h"
#include "support/diagnostics.h"
#include "testutil.h"

namespace argo::support {
namespace {

TEST(ThreadPool, SizeDefaultsToAtLeastOne) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
  ThreadPool four(4);
  EXPECT_EQ(four.size(), 4u);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallelFor(kN, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ParallelForZeroIsANoOp) {
  ThreadPool pool(2);
  pool.parallelFor(0, [](std::size_t) { FAIL() << "must not be called"; });
}

TEST(ThreadPool, ParallelForRethrowsLowestFailingIndex) {
  ThreadPool pool(4);
  // Several indices throw; the pool must deterministically surface the
  // lowest one no matter which worker hit its failure first.
  for (int run = 0; run < 10; ++run) {
    try {
      pool.parallelFor(64, [&](std::size_t i) {
        if (i % 7 == 3) {  // lowest failing index is 3
          throw ToolchainError("boom at " + std::to_string(i));
        }
      });
      FAIL() << "expected ToolchainError";
    } catch (const ToolchainError& e) {
      EXPECT_STREQ(e.what(), "boom at 3");
    }
  }
}

TEST(ThreadPool, ParallelForFailureStillRunsAllIndices) {
  ThreadPool pool(4);
  std::atomic<int> executed{0};
  EXPECT_THROW(pool.parallelFor(100,
                                [&](std::size_t i) {
                                  executed.fetch_add(1);
                                  if (i == 0) throw std::runtime_error("x");
                                }),
               std::runtime_error);
  EXPECT_EQ(executed.load(), 100);
}

TEST(ThreadPool, PoolReuseAcrossManyRuns) {
  ThreadPool pool(4);
  for (int run = 0; run < 50; ++run) {
    std::atomic<long> sum{0};
    pool.parallelFor(128, [&](std::size_t i) {
      sum.fetch_add(static_cast<long>(i));
    });
    EXPECT_EQ(sum.load(), 128L * 127L / 2L) << "run " << run;
  }
}

// ------------------------------------------------- Oversubscription
// The pool's contracts must hold when workers far outnumber hardware
// cores (threads ≫ cores forces constant preemption — the interleavings
// a right-sized pool rarely produces). Repeat-until loops shake out
// scheduling orders; counts and propagated exceptions must never vary.

TEST(ThreadPoolOversubscribed, CoverageAndReductionStayExactAcrossRuns) {
  ThreadPool pool(64);
  EXPECT_EQ(pool.size(), 64u);
  for (int run = 0; run < 20; ++run) {
    std::vector<std::atomic<int>> hits(512);
    std::atomic<long> sum{0};
    pool.parallelFor(512, [&](std::size_t i) {
      hits[i].fetch_add(1);
      sum.fetch_add(static_cast<long>(i));
    });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "run " << run << " index " << i;
    }
    EXPECT_EQ(sum.load(), 512L * 511L / 2L) << "run " << run;
  }
}

TEST(ThreadPoolOversubscribed, LowestFailingIndexStillWins) {
  ThreadPool pool(32);
  for (int run = 0; run < 10; ++run) {
    try {
      pool.parallelFor(256, [](std::size_t i) {
        if (i % 9 == 2) {  // lowest failing index is 2
          throw ToolchainError("boom at " + std::to_string(i));
        }
      });
      FAIL() << "expected ToolchainError";
    } catch (const ToolchainError& e) {
      EXPECT_STREQ(e.what(), "boom at 2") << "run " << run;
    }
  }
}

TEST(ThreadPoolOversubscribed, BackToBackPoolsConstructAndDrainCleanly) {
  // Construction/teardown churn: every iteration spins up a fresh
  // oversubscribed pool, runs one batch, and joins all 48 workers.
  for (int run = 0; run < 8; ++run) {
    ThreadPool pool(48);
    std::atomic<int> count{0};
    pool.parallelFor(100, [&](std::size_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 100) << "run " << run;
  }
}

TEST(ThreadPool, StressRandomProgramsPooledMatchesSequential) {
  // Evaluate 24 generated programs sequentially and on the pool; each
  // evaluation is independent, so the pooled outputs must be identical.
  constexpr std::uint64_t kSeeds = 24;
  std::vector<std::unique_ptr<ir::Function>> fns;
  std::vector<ir::Environment> inputs;
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    test::ProgramGenerator gen(1000 + seed);
    fns.push_back(gen.generate("stress" + std::to_string(seed)));
    inputs.push_back(gen.makeInputs(*fns.back()));
  }

  std::vector<ir::Environment> sequential(kSeeds);
  for (std::uint64_t i = 0; i < kSeeds; ++i) {
    ir::Environment env = inputs[i];
    ir::Evaluator(*fns[i]).run(env);
    sequential[i] = std::move(env);
  }

  ThreadPool pool(4);
  std::vector<ir::Environment> pooled(kSeeds);
  pool.parallelFor(kSeeds, [&](std::size_t i) {
    ir::Environment env = inputs[i];
    ir::Evaluator(*fns[i]).run(env);
    pooled[i] = std::move(env);
  });

  for (std::uint64_t i = 0; i < kSeeds; ++i) {
    EXPECT_TRUE(test::outputsMatch(*fns[i], sequential[i], pooled[i], 0.0))
        << "seed " << i;
  }
}

}  // namespace
}  // namespace argo::support
