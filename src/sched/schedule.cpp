#include "sched/schedule.h"

#include <algorithm>

#include "sched/options.h"
#include "support/diagnostics.h"

namespace argo::sched {

void requireInlineThreads(int threads, const char* field) {
  if (threads == 1) return;
  throw support::ToolchainError(
      std::string(field) + " = " + std::to_string(threads) +
      ": only 1 is accepted (kept for source compatibility; every scheduler "
      "and system-WCET phase runs inline)");
}

std::vector<TaskTiming> computeTaskTimings(const htg::TaskGraph& graph,
                                           const adl::Platform& platform,
                                           int parallelThreads) {
  requireInlineThreads(parallelThreads,
                       "sched::computeTaskTimings parallelThreads");
  const ir::Function& fn = *graph.fn;
  // Tiles grouped into pricing classes (TimingModel::operator==): the
  // analyzer is a pure function of the model, so each task is analyzed
  // once per class and its cycles copied to every tile of the class. A
  // homogeneous bus is one class; a NoC has one per pair of hop distance
  // to the memory tile and core kind.
  const auto tiles = static_cast<std::size_t>(platform.coreCount());
  std::vector<wcet::TimingModel> classes;
  std::vector<std::size_t> classOfTile(tiles);
  for (std::size_t t = 0; t < tiles; ++t) {
    const wcet::TimingModel model =
        wcet::TimingModel::forTile(platform, static_cast<int>(t));
    const auto it = std::find(classes.begin(), classes.end(), model);
    classOfTile[t] = static_cast<std::size_t>(it - classes.begin());
    if (it == classes.end()) classes.push_back(model);
  }

  std::vector<TaskTiming> timings(graph.tasks.size());
  std::vector<Cycles> classCycles(classes.size());
  for (std::size_t i = 0; i < graph.tasks.size(); ++i) {
    const htg::Task& task = graph.tasks[i];
    TaskTiming& timing = timings[i];
    for (std::size_t c = 0; c < classes.size(); ++c) {
      wcet::SchemaAnalyzer analyzer(fn, classes[c]);
      wcet::WcetResult result;
      for (const ir::StmtPtr& s : task.stmts) result += analyzer.analyzeStmt(*s);
      classCycles[c] = result.cycles;
      // Shared access counts are structural, identical on every tile; take
      // them from the first class (the one holding tile 0).
      if (c == 0) timing.sharedAccesses = result.accesses.sharedTotal();
    }
    timing.wcetByTile.resize(tiles);
    for (std::size_t t = 0; t < tiles; ++t) {
      timing.wcetByTile[t] = classCycles[classOfTile[t]];
    }
  }
  return timings;
}

Cycles commCost(const adl::Platform& platform, const htg::Dep& dep,
                int fromTile, int toTile) {
  if (fromTile == toTile) return 0;
  return platform.transferWorstCase(dep.bytes, fromTile, toTile,
                                    /*contenders=*/1);
}

std::vector<std::string> validateSchedule(
    const Schedule& schedule, const htg::TaskGraph& graph,
    const adl::Platform& platform, const std::vector<TaskTiming>& timings) {
  std::vector<std::string> problems;
  const std::size_t n = graph.tasks.size();
  if (schedule.placements.size() != n) {
    problems.push_back("placement count mismatch");
    return problems;
  }
  for (std::size_t i = 0; i < n; ++i) {
    const Placement& p = schedule.placements[i];
    if (p.task != static_cast<int>(i)) {
      problems.push_back("placement " + std::to_string(i) + " misindexed");
    }
    if (p.tile < 0 || p.tile >= platform.coreCount()) {
      problems.push_back("task " + std::to_string(i) + " on invalid tile");
      continue;
    }
    const Cycles wcet =
        timings[i].wcetByTile[static_cast<std::size_t>(p.tile)];
    if (p.finish - p.start < wcet) {
      problems.push_back("task " + std::to_string(i) +
                         " shorter than its WCET");
    }
  }
  // Per-tile exclusivity.
  for (int t = 0; t < platform.coreCount(); ++t) {
    std::vector<const Placement*> onTile;
    for (const Placement& p : schedule.placements) {
      if (p.tile == t) onTile.push_back(&p);
    }
    std::sort(onTile.begin(), onTile.end(),
              [](const Placement* a, const Placement* b) {
                return a->start < b->start;
              });
    for (std::size_t k = 1; k < onTile.size(); ++k) {
      if (onTile[k]->start < onTile[k - 1]->finish) {
        problems.push_back("tasks " + std::to_string(onTile[k - 1]->task) +
                           " and " + std::to_string(onTile[k]->task) +
                           " overlap on tile " + std::to_string(t));
      }
    }
  }
  // Dependences.
  for (const htg::Dep& dep : graph.deps) {
    const Placement& from = schedule.placements[static_cast<std::size_t>(dep.from)];
    const Placement& to = schedule.placements[static_cast<std::size_t>(dep.to)];
    const Cycles comm = commCost(platform, dep, from.tile, to.tile);
    if (from.finish + comm > to.start) {
      problems.push_back("dependence " + std::to_string(dep.from) + "->" +
                         std::to_string(dep.to) + " violated");
    }
  }
  return problems;
}

}  // namespace argo::sched
