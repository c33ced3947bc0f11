// Shared list-scheduling machinery (internal to sched/).
//
// Every built-in policy is, at its core, a strategy for ordering tasks and
// picking tiles on top of the same greedy placement mechanics: HEFT and
// the contention-oblivious baseline place by earliest finish time, the
// annealer re-places fixed tile assignments, and branch-and-bound reuses
// the incoming-edge table and seeds its incumbent with a HEFT schedule.
// This header is that common substrate; it is not part of the public
// sched/ API.
//
// Everything that depends only on (graph, timings, platform) — the edge
// table, the upward ranks, the priority order — is built once per policy
// run and passed in, so a caller that places many assignments (the
// annealer) pays for it once, not once per placement.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "sched/policy.h"

namespace argo::sched::detail {

/// Incoming dependence edges, flattened into one slot per entry of
/// `ctx.pred`: slot `first(task) + k` holds the edge from
/// `ctx.pred[task][k]` to `task`. When graph.deps lists the same
/// (from, to) pair more than once, every slot of that pair holds the first
/// such edge; nullptr when the pair has no edge at all. Built once per
/// policy run.
class IncomingEdges {
 public:
  explicit IncomingEdges(const SchedContext& ctx);

  /// Slot of `ctx.pred[task][0]`; the task's slots run to first(task + 1).
  [[nodiscard]] std::size_t first(int task) const {
    return first_[static_cast<std::size_t>(task)];
  }
  /// Total number of slots (the summed in-degree).
  [[nodiscard]] std::size_t slots() const noexcept { return dep_.size(); }
  [[nodiscard]] const htg::Dep* dep(std::size_t slot) const {
    return dep_[slot];
  }

 private:
  std::vector<std::size_t> first_;
  std::vector<const htg::Dep*> dep_;
};

/// Upward ranks: rank(t) = avgWcet(t) + max over successors of
/// (avgComm(edge) + rank(succ)). Decreasing rank is a topological order.
[[nodiscard]] std::vector<double> upwardRanks(const SchedContext& ctx,
                                              const IncomingEdges& edges);

/// Task ids by decreasing rank; ties broken by lower task id.
[[nodiscard]] std::vector<int> priorityOrder(const std::vector<double>& rank);

/// Shared state of the greedy list-scheduling placement loop. One placer
/// can lay out any number of schedules in turn: reset() clears the
/// placements but keeps every buffer's capacity.
class ListPlacer {
 public:
  ListPlacer(const SchedContext& ctx, const IncomingEdges& edges,
             bool interferenceAware);

  /// Forgets every placement.
  void reset();

  /// Earliest start of `task` on `tile` given already-placed predecessors.
  [[nodiscard]] Cycles earliestStart(int task, int tile) const;

  [[nodiscard]] Cycles baseCost(int task, int tile) const {
    return ctx_.timings[static_cast<std::size_t>(task)]
        .wcetByTile[static_cast<std::size_t>(tile)];
  }

  /// Cost of `task` on `tile` starting at `start`, including the
  /// interference estimate when enabled.
  [[nodiscard]] Cycles placedCost(int task, int tile, Cycles start) const;

  void place(int task, int tile, Cycles start, Cycles cost);

  /// Latest finish over the placements made since construction or reset().
  [[nodiscard]] Cycles makespan() const noexcept { return makespan_; }

  [[nodiscard]] Schedule finish(std::string policy) const;

 private:
  const SchedContext& ctx_;
  const IncomingEdges& edges_;
  bool interferenceAware_;
  std::vector<Placement> placements_;
  std::vector<Cycles> tileAvail_;
  std::vector<std::vector<int>> tileOrder_;
  Cycles makespan_ = 0;
};

/// Full HEFT pass over a precomputed priority order: earliest-finish-time
/// placement. The heart of the "heft" policy, the seed of "annealed" and
/// "branch_and_bound", and (with interferenceAware = false) the
/// "contention_oblivious" baseline.
[[nodiscard]] Schedule listSchedule(const SchedContext& ctx,
                                    const IncomingEdges& edges,
                                    const std::vector<int>& order,
                                    bool interferenceAware,
                                    std::string policyLabel);

/// The same pass, building the edge table and the order itself.
[[nodiscard]] Schedule listSchedule(const SchedContext& ctx,
                                    bool interferenceAware,
                                    std::string policyLabel);

/// Resets `placer` and places every task of `order` on its fixed tile
/// `tileOf[task]` (the annealer's neighborhood evaluation); returns the
/// makespan. placer.finish() then packages the schedule if it is wanted.
Cycles placeAssignment(ListPlacer& placer, const std::vector<int>& order,
                       const std::vector<int>& tileOf);

}  // namespace argo::sched::detail
