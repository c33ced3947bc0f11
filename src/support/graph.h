// Deterministic dependency-graph job executor: the one place in the
// tool-chain that starts threads.
//
// Callers declare nodes with explicit edges on the *true* data dependences,
// and independent chains overlap freely — a node starts the moment its last
// predecessor finishes, on whichever executor is free. An edge-free
// graph is a parallel loop: the feedback exploration (core::Toolchain) runs
// one node per candidate that way, and the scenario batch
// (scenarios::runEval) runs its stage pipeline as a graph. Every phase below
// those two — timing analysis, scheduling policies, system WCET — runs
// inline inside a node.
//
// The contract (see docs/ARCHITECTURE.md, "Determinism contract" and
// "Task-graph executor"):
//
//  * Per-node output slots, ladder-order assembly. The executor never
//    imposes an ordering on side effects; node bodies write into their own
//    slots (captured by the node's closure) and the caller reduces the
//    slots strictly in node-id order after run() returns. Node ids are
//    assigned consecutively by addNode(), so node-id order is the ladder
//    order — the result is bit-identical for any thread count and any
//    completion interleaving.
//  * Failure determinism. A node that throws marks every transitive
//    successor as skipped (their bodies never run — their inputs are
//    missing); every node with no failed ancestor still executes, even
//    while unrelated nodes fail. When several nodes throw, the exception
//    of the *lowest* node id propagates from run(). Which nodes run, which
//    are skipped, and which exception surfaces are all independent of the
//    thread count and the interleaving.
//  * Cycle rejection. run() validates the graph before executing anything
//    and throws ToolchainError naming the nodes involved in cyclic
//    dependences (in node-id order).
//  * No nested pools. run() with a resolved parallelism > 1 from inside
//    another TaskGraph node throws ToolchainError; a resolved parallelism
//    of 1 runs on the calling thread alone and is always allowed.
//
// Execution: run() keeps one mutex-guarded ready set, a min-heap on node
// id seeded with the sources, and drains it on `resolved` executors — the
// calling thread plus `resolved - 1` plain threads started for this run
// and joined before it returns. Every executor runs the same loop: pop
// the lowest ready id, execute (or skip) it outside the lock, count down
// its successors and publish those that hit zero. With one executor this
// is the deterministic reference order (topological, lowest ready id
// first). Each executor records one `pool`/`drain` trace span around its
// loop, and every node body one `graph` span inside it.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

namespace argo::support {

/// Worker count a phase should use for `n` independent items given its
/// thread knob: `threads <= 0` means one per hardware thread, otherwise
/// `threads`; never more than `n` and never less than 1.
[[nodiscard]] unsigned effectiveParallelism(int threads, std::size_t n);

class TaskGraph {
 public:
  using NodeId = std::size_t;

  /// Adds a node and returns its id; ids are consecutive from 0 in
  /// insertion order (the ladder order of the determinism contract).
  /// `name` appears in diagnostics (cycle reports); it need not be unique.
  /// Throws ToolchainError when `fn` is empty.
  NodeId addNode(std::string name, std::function<void()> fn);

  /// Declares that `from` must complete before `to` starts. Duplicate
  /// edges are deduplicated; self-edges and unknown ids throw
  /// ToolchainError.
  void addEdge(NodeId from, NodeId to);

  [[nodiscard]] std::size_t nodeCount() const noexcept {
    return nodes_.size();
  }
  [[nodiscard]] const std::string& nodeName(NodeId id) const;

  /// Executes every node whose ancestors all succeed, blocking until the
  /// whole graph has been executed or deterministically skipped. `threads`
  /// follows the effectiveParallelism() convention (0 = hardware threads,
  /// 1 = the calling thread alone, clamped to the node count). May be
  /// called repeatedly — per-run state is rebuilt each time. Throws
  /// ToolchainError on a cyclic graph or a pooled run from inside a node;
  /// otherwise rethrows the lowest failing node id's exception after the
  /// run drains.
  void run(int threads);

 private:
  struct Node {
    std::string name;
    std::function<void()> fn;
    std::vector<NodeId> successors;
    int indegree = 0;
  };

  /// Throws the pinned cycle diagnostic unless the graph is a DAG.
  void checkAcyclic() const;

  std::vector<Node> nodes_;
};

}  // namespace argo::support
