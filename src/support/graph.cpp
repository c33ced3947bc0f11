#include "support/graph.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <queue>
#include <system_error>
#include <thread>

#include "support/diagnostics.h"
#include "support/metrics.h"
#include "support/trace.h"

namespace argo::support {

namespace {

// Set while the current thread executes a node body, on a spawned
// executor or on the calling thread.
thread_local bool tlInNode = false;

/// Marks "this thread is executing a node body" for the no-nested-pools
/// rule. Restores (not clears) the previous value, so a node of an inline
/// graph nested inside another graph's node leaves the guard armed for the
/// rest of the enclosing node.
class NodeScope {
 public:
  NodeScope() noexcept : previous_(tlInNode) { tlInNode = true; }
  ~NodeScope() { tlInNode = previous_; }
  NodeScope(const NodeScope&) = delete;
  NodeScope& operator=(const NodeScope&) = delete;

 private:
  bool previous_;
};

MetricCounter& nodesRunCounter() {
  static MetricCounter& counter =
      MetricsRegistry::global().counter("graph.nodes_run");
  return counter;
}

MetricCounter& nodesSkippedCounter() {
  static MetricCounter& counter =
      MetricsRegistry::global().counter("graph.nodes_skipped");
  return counter;
}

MetricCounter& readyWaitCounter() {
  static MetricCounter& counter =
      MetricsRegistry::global().counter("graph.ready_wait_us");
  return counter;
}

}  // namespace

unsigned effectiveParallelism(int threads, std::size_t n) {
  unsigned resolved = threads > 0 ? static_cast<unsigned>(threads)
                                  : std::thread::hardware_concurrency();
  if (resolved == 0) resolved = 1;
  if (n < resolved) resolved = static_cast<unsigned>(n);
  return resolved == 0 ? 1u : resolved;
}

TaskGraph::NodeId TaskGraph::addNode(std::string name,
                                     std::function<void()> fn) {
  if (!fn) {
    throw ToolchainError("support::TaskGraph: node '" + name +
                         "' has no body");
  }
  nodes_.push_back(Node{std::move(name), std::move(fn), {}, 0});
  return nodes_.size() - 1;
}

void TaskGraph::addEdge(NodeId from, NodeId to) {
  if (from >= nodes_.size() || to >= nodes_.size()) {
    throw ToolchainError(
        "support::TaskGraph: edge references an unknown node id");
  }
  if (from == to) {
    throw ToolchainError("support::TaskGraph: self-edge on node '" +
                         nodes_[from].name + "'");
  }
  std::vector<NodeId>& successors = nodes_[from].successors;
  if (std::find(successors.begin(), successors.end(), to) !=
      successors.end()) {
    return;  // duplicate dependences are harmless; keep indegrees exact
  }
  successors.push_back(to);
  nodes_[to].indegree += 1;
}

const std::string& TaskGraph::nodeName(NodeId id) const {
  if (id >= nodes_.size()) {
    throw ToolchainError("support::TaskGraph: unknown node id");
  }
  return nodes_[id].name;
}

void TaskGraph::checkAcyclic() const {
  const std::size_t n = nodes_.size();
  std::vector<int> pending(n);
  std::vector<NodeId> stack;
  std::size_t released = 0;
  for (NodeId id = 0; id < n; ++id) {
    pending[id] = nodes_[id].indegree;
    if (pending[id] == 0) stack.push_back(id);
  }
  while (!stack.empty()) {
    const NodeId id = stack.back();
    stack.pop_back();
    ++released;
    for (NodeId s : nodes_[id].successors) {
      if (--pending[s] == 0) stack.push_back(s);
    }
  }
  if (released == n) return;

  // Kahn's leftover (pending > 0) is the cycles plus everything only
  // reachable through them; peel nodes with no remaining successor inside
  // the leftover so the diagnostic names just the nodes on cyclic paths.
  std::vector<char> offending(n, 0);
  std::vector<int> liveSuccessors(n, 0);
  for (NodeId id = 0; id < n; ++id) offending[id] = pending[id] > 0;
  for (NodeId id = 0; id < n; ++id) {
    if (!offending[id]) continue;
    for (NodeId s : nodes_[id].successors) {
      if (offending[s]) liveSuccessors[id] += 1;
    }
  }
  stack.clear();
  for (NodeId id = 0; id < n; ++id) {
    if (offending[id] && liveSuccessors[id] == 0) stack.push_back(id);
  }
  while (!stack.empty()) {
    const NodeId id = stack.back();
    stack.pop_back();
    offending[id] = 0;
    for (NodeId p = 0; p < n; ++p) {
      if (!offending[p]) continue;
      const std::vector<NodeId>& successors = nodes_[p].successors;
      if (std::find(successors.begin(), successors.end(), id) !=
              successors.end() &&
          --liveSuccessors[p] == 0) {
        stack.push_back(p);
      }
    }
  }

  std::string message =
      "support::TaskGraph::run: dependency cycle among nodes:";
  bool first = true;
  for (NodeId id = 0; id < n; ++id) {
    if (!offending[id]) continue;
    message += first ? " '" : ", '";
    message += nodes_[id].name;
    message += '\'';
    first = false;
  }
  throw ToolchainError(message);
}

void TaskGraph::run(int threads) {
  if (nodes_.empty()) return;
  checkAcyclic();
  const unsigned resolved = effectiveParallelism(threads, nodes_.size());
  if (resolved > 1 && tlInNode) {
    throw ToolchainError(
        "support::TaskGraph::run: nested pooled use from a graph node; "
        "inner graphs must run with threads = 1");
  }

  // Per-run state, all under `mutex`. The ready set is a min-heap on node
  // id: one executor then runs the graph in the deterministic reference
  // order (topological, lowest ready id first), and several executors
  // still finish a node's consumers before starting far-ahead producers,
  // which keeps the live set of intermediate slots small.
  const std::size_t n = nodes_.size();
  std::mutex mutex;
  std::condition_variable wake;
  std::priority_queue<NodeId, std::vector<NodeId>, std::greater<NodeId>>
      ready;
  std::vector<int> pending(n);
  std::vector<char> poisoned(n, 0);
  std::vector<std::exception_ptr> errors(n);
  std::size_t finished = 0;  // executed or skipped
  for (NodeId id = 0; id < n; ++id) {
    pending[id] = nodes_[id].indegree;
    if (pending[id] == 0) ready.push(id);
  }

  // The loop every executor runs: pop the lowest ready node, execute (or
  // skip) it outside the lock, count down its successors, publish the
  // newly ready ones. Returns once every node is accounted for.
  const auto drain = [&] {
    TraceSpan drainSpan("pool", "drain");
    std::unique_lock<std::mutex> lock(mutex);
    for (;;) {
      const auto readyOrDone = [&] { return !ready.empty() || finished == n; };
      if (!readyOrDone()) {
        // Ready-queue starvation, attributed: the time an executor
        // spends blocked here is the graph's critical-path debt.
        const auto waitBegin = std::chrono::steady_clock::now();
        wake.wait(lock, readyOrDone);
        readyWaitCounter().add(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - waitBegin)
                .count()));
      }
      if (ready.empty()) return;
      const NodeId id = ready.top();
      ready.pop();
      const bool skip = poisoned[id] != 0;
      lock.unlock();

      bool failed = false;
      if (!skip) {
        nodesRunCounter().add();
        NodeScope scope;
        TraceSpan span("graph", nodes_[id].name);
        try {
          nodes_[id].fn();
        } catch (...) {
          errors[id] = std::current_exception();  // per-node slot
          failed = true;
        }
      } else {
        nodesSkippedCounter().add();
      }

      lock.lock();
      for (NodeId s : nodes_[id].successors) {
        if (failed || skip) poisoned[s] = 1;
        if (--pending[s] == 0) ready.push(s);
      }
      finished += 1;
      // Wakes sleepers for the newly ready nodes, and on the last finish
      // releases every executor still waiting.
      wake.notify_all();
    }
  };

  std::vector<std::thread> executors;
  executors.reserve(resolved - 1);
  try {
    for (unsigned i = 1; i < resolved; ++i) executors.emplace_back(drain);
  } catch (const std::system_error&) {
    // A thread that cannot be started leaves its share to the executors
    // that did start; the per-node slots make the outcome the same.
  }
  drain();
  for (std::thread& executor : executors) executor.join();

  // Execution order is not id order (an edge may point from a high id to
  // a low one), so the lowest failing id is found after the run.
  for (NodeId id = 0; id < n; ++id) {
    if (errors[id]) std::rethrow_exception(errors[id]);
  }
}

}  // namespace argo::support
