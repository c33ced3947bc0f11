// support::TaskGraph: the dependency-graph job executor. Covers topology
// semantics (diamond, fan-out/fan-in, disconnected components, single
// node), cycle detection with the pinned diagnostic, the failure contract
// (lowest node id wins, downstream skipped, independent nodes still run),
// the no-nested-pools rule, the thread-knob resolution, byte-identity of
// ladder-order slot assembly across thread counts and repeated runs, and
// the one `pool`/`drain` trace span each executor records per run.
#include "support/graph.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "numbered.h"
#include "support/diagnostics.h"
#include "support/trace.h"

namespace argo::support {
namespace {

TEST(EffectiveParallelism, ResolvesKnobAndClampsToRange) {
  EXPECT_EQ(effectiveParallelism(4, 100), 4u);
  EXPECT_EQ(effectiveParallelism(4, 2), 2u);   // never more than n
  EXPECT_EQ(effectiveParallelism(1, 100), 1u);
  EXPECT_GE(effectiveParallelism(0, 100), 1u);  // 0 = hardware threads
  EXPECT_EQ(effectiveParallelism(-3, 1), 1u);
  EXPECT_EQ(effectiveParallelism(8, 0), 1u);   // empty range still >= 1
}

TEST(TaskGraphTopology, EmptyGraphRunIsANoOp) {
  TaskGraph graph;
  EXPECT_EQ(graph.nodeCount(), 0u);
  for (int threads : {1, 4}) graph.run(threads);
}

TEST(TaskGraphTopology, SingleNodeRunsExactlyOncePerRun) {
  for (int threads : {1, 8}) {
    TaskGraph graph;
    int calls = 0;
    const auto id = graph.addNode("only", [&] { ++calls; });
    EXPECT_EQ(id, 0u);
    EXPECT_EQ(graph.nodeName(id), "only");
    graph.run(threads);
    EXPECT_EQ(calls, 1) << "threads " << threads;
  }
}

TEST(TaskGraphTopology, DiamondRespectsEveryEdge) {
  // a -> {b, c} -> d: when b or c runs, a must be done; when d runs, both
  // arms must be done — for any thread count and interleaving.
  for (int threads : {1, 8}) {
    for (int run = 0; run < 5; ++run) {
      TaskGraph graph;
      std::atomic<bool> aDone{false}, bDone{false}, cDone{false};
      std::atomic<bool> ordered{true};
      const auto a = graph.addNode("a", [&] { aDone = true; });
      const auto b = graph.addNode("b", [&] {
        if (!aDone.load()) ordered = false;
        bDone = true;
      });
      const auto c = graph.addNode("c", [&] {
        if (!aDone.load()) ordered = false;
        cDone = true;
      });
      const auto d = graph.addNode("d", [&] {
        if (!bDone.load() || !cDone.load()) ordered = false;
      });
      graph.addEdge(a, b);
      graph.addEdge(a, c);
      graph.addEdge(b, d);
      graph.addEdge(c, d);
      graph.run(threads);
      EXPECT_TRUE(ordered.load()) << "threads " << threads << " run " << run;
    }
  }
}

TEST(TaskGraphTopology, FanOutFanInJoinsAllBranches) {
  constexpr std::size_t kWidth = 16;
  for (int threads : {1, 8}) {
    TaskGraph graph;
    std::atomic<int> middlesDone{0};
    int atSink = -1;
    const auto root = graph.addNode("root", [] {});
    const auto sink = graph.addNode("sink", [&] {
      atSink = middlesDone.load();
    });
    for (std::size_t m = 0; m < kWidth; ++m) {
      const auto middle = graph.addNode(test::numbered("middle/", m),
                                        [&] { middlesDone.fetch_add(1); });
      graph.addEdge(root, middle);
      graph.addEdge(middle, sink);
    }
    graph.run(threads);
    EXPECT_EQ(atSink, static_cast<int>(kWidth)) << "threads " << threads;
  }
}

TEST(TaskGraphTopology, DisconnectedComponentsAllExecute) {
  for (int threads : {1, 8}) {
    TaskGraph graph;
    std::atomic<int> executed{0};
    // Two independent chains plus two isolated nodes.
    const auto a0 = graph.addNode("a0", [&] { executed.fetch_add(1); });
    const auto a1 = graph.addNode("a1", [&] { executed.fetch_add(1); });
    const auto b0 = graph.addNode("b0", [&] { executed.fetch_add(1); });
    const auto b1 = graph.addNode("b1", [&] { executed.fetch_add(1); });
    graph.addNode("lone0", [&] { executed.fetch_add(1); });
    graph.addNode("lone1", [&] { executed.fetch_add(1); });
    graph.addEdge(a0, a1);
    graph.addEdge(b0, b1);
    graph.run(threads);
    EXPECT_EQ(executed.load(), 6) << "threads " << threads;
  }
}

TEST(TaskGraphTopology, DuplicateEdgesAreDeduplicated) {
  for (int threads : {1, 4}) {
    TaskGraph graph;
    int downstream = 0;
    const auto a = graph.addNode("a", [] {});
    const auto b = graph.addNode("b", [&] { ++downstream; });
    graph.addEdge(a, b);
    graph.addEdge(a, b);  // harmless: indegree must stay 1
    graph.addEdge(a, b);
    graph.run(threads);  // would deadlock/underflow if indegree were 3
    EXPECT_EQ(downstream, 1) << "threads " << threads;
  }
}

TEST(TaskGraphTopology, InlineRunUsesLadderTopologicalOrder) {
  // The threads = 1 path executes the lowest ready node id first — a fixed
  // reference order that makes sequential runs exactly reproducible. With
  // the edge 3 -> 1, ids 0..4 run as 0, 2, 3, 1, 4.
  TaskGraph graph;
  std::vector<TaskGraph::NodeId> order;
  for (TaskGraph::NodeId id = 0; id < 5; ++id) {
    graph.addNode(test::numbered("n", id), [&order, id] {
      order.push_back(id);
    });
  }
  graph.addEdge(3, 1);
  graph.run(1);
  EXPECT_EQ(order, (std::vector<TaskGraph::NodeId>{0, 2, 3, 1, 4}));
}

TEST(TaskGraphValidation, CycleDiagnosticNamesTheOffendingNodes) {
  // b -> c -> d -> b is the cycle; 'a' is clean and 'e' hangs off the
  // cycle (unrunnable, but not itself cyclic) — the diagnostic must name
  // exactly the cycle members, in node-id order.
  TaskGraph graph;
  const auto a = graph.addNode("a", [] {});
  const auto b = graph.addNode("b", [] {});
  const auto c = graph.addNode("c", [] {});
  const auto d = graph.addNode("d", [] {});
  const auto e = graph.addNode("e", [] {});
  graph.addEdge(a, b);
  graph.addEdge(b, c);
  graph.addEdge(c, d);
  graph.addEdge(d, b);
  graph.addEdge(c, e);
  for (int threads : {1, 4}) {
    try {
      graph.run(threads);
      FAIL() << "expected ToolchainError";
    } catch (const ToolchainError& error) {
      EXPECT_STREQ(error.what(),
                   "support::TaskGraph::run: dependency cycle among nodes: "
                   "'b', 'c', 'd'");
    }
  }
}

TEST(TaskGraphValidation, SelfEdgesUnknownIdsAndEmptyBodiesThrow) {
  TaskGraph graph;
  const auto a = graph.addNode("a", [] {});
  EXPECT_THROW(graph.addEdge(a, a), ToolchainError);
  EXPECT_THROW(graph.addEdge(a, 7), ToolchainError);
  EXPECT_THROW(graph.addEdge(7, a), ToolchainError);
  EXPECT_THROW((void)graph.nodeName(7), ToolchainError);
  EXPECT_THROW((void)graph.addNode("empty", std::function<void()>{}),
               ToolchainError);
}

TEST(TaskGraphFailure, LowestNodeIdExceptionWinsOnBothPaths) {
  // Nodes 2 and 6 both fail (independently); node 2's exception must
  // surface for any thread count, repeatedly.
  for (int threads : {1, 8}) {
    for (int run = 0; run < 5; ++run) {
      TaskGraph graph;
      for (TaskGraph::NodeId id = 0; id < 8; ++id) {
        graph.addNode(test::numbered("n", id), [id] {
          if (id == 2 || id == 6) {
            throw ToolchainError("boom at " + std::to_string(id));
          }
        });
      }
      try {
        graph.run(threads);
        FAIL() << "expected ToolchainError";
      } catch (const ToolchainError& error) {
        EXPECT_STREQ(error.what(), "boom at 2")
            << "threads " << threads << " run " << run;
      }
    }
  }
}

TEST(TaskGraphFailure, LowestIdWinsEvenWhenItExecutesLast) {
  // Edges may point from a high id to a low one, so topological order is
  // not id order: node 0 depends on clean node 4 and runs near the end,
  // while node 5 fails early. Node 0's exception must still be the one
  // rethrown — "lowest node id", not "first to fail".
  for (int threads : {1, 4}) {
    TaskGraph graph;
    graph.addNode("late", [] { throw ToolchainError("boom at 0"); });
    for (TaskGraph::NodeId id = 1; id < 5; ++id) {
      graph.addNode(test::numbered("n", id), [] {});
    }
    graph.addNode("early", [] { throw ToolchainError("boom at 5"); });
    graph.addEdge(4, 0);
    try {
      graph.run(threads);
      FAIL() << "expected ToolchainError";
    } catch (const ToolchainError& error) {
      EXPECT_STREQ(error.what(), "boom at 0") << "threads " << threads;
    }
  }
}

TEST(TaskGraphFailure, DownstreamIsSkippedIndependentNodesStillRun) {
  for (int threads : {1, 8}) {
    TaskGraph graph;
    std::atomic<int> executed{0};
    std::atomic<bool> skippedRan{false};
    const auto failing = graph.addNode("failing", [&] {
      executed.fetch_add(1);
      throw ToolchainError("boom");
    });
    const auto child = graph.addNode("child", [&] { skippedRan = true; });
    const auto grandchild =
        graph.addNode("grandchild", [&] { skippedRan = true; });
    const auto bystander =
        graph.addNode("bystander", [&] { executed.fetch_add(1); });
    const auto bystanderChild =
        graph.addNode("bystander/child", [&] { executed.fetch_add(1); });
    graph.addEdge(failing, child);
    graph.addEdge(child, grandchild);
    graph.addEdge(bystander, bystanderChild);
    EXPECT_THROW(graph.run(threads), ToolchainError);
    EXPECT_EQ(executed.load(), 3) << "threads " << threads;
    EXPECT_FALSE(skippedRan.load()) << "threads " << threads;
  }
}

TEST(TaskGraphFailure, FanInWithOneFailedArmIsSkipped) {
  // A sink whose inputs are half missing must not run — even though its
  // other predecessor succeeded.
  for (int threads : {1, 4}) {
    TaskGraph graph;
    std::atomic<bool> sinkRan{false};
    const auto ok = graph.addNode("ok", [] {});
    const auto bad =
        graph.addNode("bad", [] { throw ToolchainError("boom"); });
    const auto sink = graph.addNode("sink", [&] { sinkRan = true; });
    graph.addEdge(ok, sink);
    graph.addEdge(bad, sink);
    EXPECT_THROW(graph.run(threads), ToolchainError);
    EXPECT_FALSE(sinkRan.load()) << "threads " << threads;
  }
}

/// Two nodes that each bump `counter`. Parallelism is clamped to the node
/// count, so a single-node graph would resolve to an (allowed) inline run
/// no matter the knob.
TaskGraph pairGraph(std::atomic<int>& counter) {
  TaskGraph graph;
  graph.addNode("n0", [&counter] { counter.fetch_add(1); });
  graph.addNode("n1", [&counter] { counter.fetch_add(1); });
  return graph;
}

TEST(TaskGraphNesting, PooledRunInsideAParallelTaskIsRejected) {
  // TaskGraph::run is the only pool owner: a pooled run requested from
  // inside a node throws — on every started executor and on the calling
  // thread alike, oversubscribed too — while threads = 1 runs inline and
  // is always allowed. Every node fails the same way.
  for (const int outerThreads : {1, 4, 64}) {
    std::atomic<int> inlineRuns{0};
    std::atomic<int> rejected{0};
    TaskGraph outer;
    for (int i = 0; i < 64; ++i) {
      outer.addNode(test::numbered("outer", i), [&] {
        pairGraph(inlineRuns).run(1);  // inline: allowed
        try {
          pairGraph(inlineRuns).run(4);  // pooled: must throw
        } catch (const ToolchainError&) {
          rejected.fetch_add(1);
          throw;
        }
      });
    }
    EXPECT_THROW(outer.run(outerThreads), ToolchainError)
        << "outer threads " << outerThreads;
    EXPECT_EQ(inlineRuns.load(), 128) << "outer threads " << outerThreads;
    EXPECT_EQ(rejected.load(), 64) << "outer threads " << outerThreads;
  }
}

TEST(TaskGraphNesting, NodeBodiesMayRunInlinePhasesButNotPooledOnes) {
  // Regression: the node scopes of an inline inner graph must restore —
  // not clear — the in-node flag, so a pooled request later in the same
  // outer node is still rejected. Once the outer node returns the flag
  // clears, so back-to-back pooled runs on one thread keep working.
  for (const int threads : {1, 4}) {
    std::atomic<int> innerRuns{0};
    TaskGraph graph;
    graph.addNode("inline-then-pooled", [&] {
      pairGraph(innerRuns).run(1);
      pairGraph(innerRuns).run(2);  // must throw in-node
    });
    graph.addNode("inline", [&] { pairGraph(innerRuns).run(1); });
    EXPECT_THROW(graph.run(threads), ToolchainError) << "threads " << threads;
    EXPECT_EQ(innerRuns.load(), 4) << "threads " << threads;

    std::atomic<int> after{0};
    pairGraph(after).run(2);
    EXPECT_EQ(after.load(), 2) << "threads " << threads;
  }
}

/// Layered value graph for the determinism checks: every node derives its
/// slot from its predecessors' slots, so any missed edge or stale read
/// changes the assembled ladder.
struct ValueGraph {
  TaskGraph graph;
  std::vector<std::uint64_t> slots;

  explicit ValueGraph(std::size_t layers, std::size_t width) {
    slots.assign(layers * width, 0);
    for (std::size_t layer = 0; layer < layers; ++layer) {
      for (std::size_t w = 0; w < width; ++w) {
        const std::size_t at = layer * width + w;
        const auto id = graph.addNode(
            test::numbered("n", at), [this, at, layer, width, w] {
              std::uint64_t value = 0x9e3779b97f4a7c15ull * (at + 1);
              if (layer > 0) {
                for (std::size_t p = 0; p < width; ++p) {
                  value ^= slots[(layer - 1) * width + p] * (p + 3);
                }
              }
              slots[at] = value ^ (value >> 31) ^ w;
            });
        if (layer > 0) {
          for (std::size_t p = 0; p < width; ++p) {
            graph.addEdge((layer - 1) * width + p, id);
          }
        }
      }
    }
  }

  /// Ladder-order assembly of the per-node slots.
  [[nodiscard]] std::vector<std::uint64_t> assemble() const { return slots; }
};

TEST(TaskGraphDeterminism, SlotAssemblyIsIdenticalAcrossThreadsAndRuns) {
  ValueGraph reference(6, 8);
  reference.graph.run(1);
  const std::vector<std::uint64_t> expected = reference.assemble();

  for (int threads : {1, 3, 8}) {
    ValueGraph subject(6, 8);
    for (int run = 0; run < 3; ++run) {  // run() is repeatable
      subject.graph.run(threads);
      EXPECT_EQ(subject.assemble(), expected)
          << "threads " << threads << " run " << run;
    }
  }
}

TEST(TaskGraphTrace, EveryExecutorRecordsOneDrainSpan) {
  // Each executor wraps its whole drain loop in one pool/drain span, and
  // every graph node span nests inside the drain span of the thread that
  // ran it: trace_summary.py counts executors (idle ones included) by
  // these spans.
  TraceRecorder& recorder = TraceRecorder::global();
  for (const int threads : {2, 1}) {
    recorder.reset();
    recorder.enable();
    TaskGraph graph;
    const auto a = graph.addNode("a", [] {});
    const auto b = graph.addNode("b", [] {});
    graph.addEdge(a, b);
    graph.run(threads);
    recorder.disable();
    const std::vector<TraceEventView> events = recorder.snapshot();
    recorder.reset();

    std::vector<TraceEventView> drains, nodes;
    for (const TraceEventView& event : events) {
      if (event.category == "pool" && event.name == "drain") {
        drains.push_back(event);
      } else if (event.category == "graph") {
        nodes.push_back(event);
      }
    }
    ASSERT_EQ(drains.size(), static_cast<std::size_t>(threads))
        << "threads " << threads;
    if (threads == 2) {
      EXPECT_NE(drains[0].tid, drains[1].tid);
    }
    ASSERT_EQ(nodes.size(), 2u) << "threads " << threads;
    for (const TraceEventView& node : nodes) {
      int enclosing = 0;
      for (const TraceEventView& drain : drains) {
        if (drain.tid == node.tid && drain.startNs <= node.startNs &&
            node.startNs + node.durNs <= drain.startNs + drain.durNs) {
          ++enclosing;
        }
      }
      EXPECT_EQ(enclosing, 1) << "node " << node.name << " threads "
                              << threads;
    }
  }
}

}  // namespace
}  // namespace argo::support
