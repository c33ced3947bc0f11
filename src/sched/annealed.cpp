// The "annealed" policy: HEFT seed refined by simulated annealing over
// tile assignments (the paper's "advanced heuristic"). Runs
// SchedOptions::saRestarts independent chains one after another, with a
// deterministic ladder-order selection of the best chain.
//
// A move only needs the makespan of the re-placed assignment, so the edge
// table and the priority order are built once per run, each chain re-places
// its moves into one reused ListPlacer, and a Schedule is packaged only for
// the winning assignment.
#include <cmath>

#include "sched/list_placement.h"
#include "sched/policy.h"
#include "support/metrics.h"
#include "support/rng.h"

namespace argo::sched {

namespace {

support::MetricCounter& movesCounter() {
  static support::MetricCounter& counter =
      support::MetricsRegistry::global().counter("sched.anneal.moves");
  return counter;
}

support::MetricCounter& acceptedCounter() {
  static support::MetricCounter& counter =
      support::MetricsRegistry::global().counter("sched.anneal.accepted");
  return counter;
}

class AnnealedPolicy final : public SchedulingPolicy {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "annealed";
  }

  [[nodiscard]] Schedule run(const SchedContext& ctx,
                             const SchedOptions& options) const override {
    const detail::IncomingEdges edges(ctx);
    const std::vector<int> order =
        detail::priorityOrder(detail::upwardRanks(ctx, edges));
    Schedule seed = detail::listSchedule(ctx, edges, order,
                                         options.interferenceAware,
                                         std::string(name()));
    const std::size_t n = ctx.graph.tasks.size();
    std::vector<int> seedAssignment(n);
    for (std::size_t i = 0; i < n; ++i) {
      seedAssignment[i] = seed.placements[i].tile;
    }

    // One independent annealing chain. Chain state is entirely local (the
    // context is only read), and chain r's random stream is fixed by
    // `options.seed + r` alone, which keeps every chain's outcome
    // reproducible.
    struct ChainResult {
      Cycles makespan = 0;
      std::vector<int> assignment;
      std::uint64_t moves = 0;     ///< moves whose assignment was re-placed
      std::uint64_t accepted = 0;  ///< of those, moves the chain kept
    };
    const auto runChain = [&](std::uint64_t chainSeed) {
      ChainResult out;
      detail::ListPlacer placer(ctx, edges, options.interferenceAware);
      out.makespan = seed.makespan;
      out.assignment = seedAssignment;
      std::vector<int> assignment = seedAssignment;
      Cycles current = seed.makespan;

      support::Rng rng(chainSeed);
      double temperature =
          options.saInitialTemp * static_cast<double>(seed.makespan);
      const double cooling =
          std::pow(0.01, 1.0 / std::max(1, options.saIterations));

      for (int iter = 0; iter < options.saIterations; ++iter) {
        const std::size_t task = static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<int>(n) - 1));
        const int oldTile = assignment[task];
        const int newTile =
            static_cast<int>(rng.uniformInt(0, ctx.cores - 1));
        if (newTile == oldTile) continue;
        assignment[task] = newTile;
        ++out.moves;
        const Cycles candidate =
            detail::placeAssignment(placer, order, assignment);
        const double delta = static_cast<double>(candidate) -
                             static_cast<double>(current);
        const bool accept =
            delta <= 0.0 ||
            rng.uniformDouble() <
                std::exp(-delta / std::max(1.0, temperature));
        if (accept) {
          ++out.accepted;
          current = candidate;
          if (candidate < out.makespan) {
            out.makespan = candidate;
            out.assignment = assignment;
          }
        } else {
          assignment[task] = oldTile;
        }
        temperature *= cooling;
      }
      return out;
    };

    // Chains run in ladder order; strict `<` keeps the lowest chain on
    // ties.
    const auto restarts =
        static_cast<std::uint64_t>(std::max(1, options.saRestarts));
    Cycles bestMakespan = seed.makespan;
    std::vector<int> best = seedAssignment;
    std::uint64_t moves = 0;
    std::uint64_t accepted = 0;
    for (std::uint64_t r = 0; r < restarts; ++r) {
      ChainResult chain = runChain(options.seed + r);
      moves += chain.moves;
      accepted += chain.accepted;
      if (chain.makespan < bestMakespan) {
        bestMakespan = chain.makespan;
        best = std::move(chain.assignment);
      }
    }
    movesCounter().add(moves);
    acceptedCounter().add(accepted);

    detail::ListPlacer placer(ctx, edges, options.interferenceAware);
    detail::placeAssignment(placer, order, best);
    Schedule result = placer.finish(std::string(name()));
    // Annealing never returns something worse than its seed.
    if (result.makespan > seed.makespan) return seed;
    return result;
  }
};

}  // namespace

namespace detail {

std::unique_ptr<SchedulingPolicy> makeAnnealedPolicy() {
  return std::make_unique<AnnealedPolicy>();
}

}  // namespace detail

}  // namespace argo::sched
