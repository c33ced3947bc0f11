// The ARGO tool-chain driver: the workflow of the paper's Figure 1.
//
//   model  ->  IR  ->  transforms  ->  HTG  ->  schedule/map  ->
//   explicit parallel program  ->  code-level + system-level WCET
//            ^                                        |
//            +---------- cross-layer feedback --------+
//
// The driver owns the cross-layer iterative optimization of Section II-E:
// the system-level WCET of each candidate parallelization (task granularity
// x scheduling policy) is fed back, and the best candidate is kept. This is
// the tool-chain's answer to the phase-ordering problem: granularity
// decisions cannot be made well before interference costs are known, so
// they are revisited after measuring them.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "adl/platform.h"
#include "codegen/codegen.h"
#include "htg/htg.h"
#include "model/diagram.h"
#include "par/parallel_program.h"
#include "sched/scheduler.h"
#include "syswcet/system_wcet.h"

namespace argo::core {

using adl::Cycles;

class ToolchainCache;

/// Driver configuration.
struct ToolchainOptions {
  /// Scheduling options forwarded to every candidate evaluation,
  /// including the policy registry name (sched/options.h).
  sched::SchedOptions sched;
  /// Candidate chunks-per-loop values explored by the feedback loop
  /// (counts, default empty = the power-of-two ladder {1, 2, ...,
  /// 2*cores}).
  std::vector<int> chunkCandidates;
  /// Run the predictability transforms — constant folding, index-set
  /// splitting, loop fusion (default true).
  bool runTransforms = true;
  /// Run the scratchpad allocation pass (default true).
  bool spmAllocation = true;
  /// Merge consecutive loop-free HTG nodes into one task (default true;
  /// removes the synchronization overhead of scalar glue code — see
  /// htg::ExpandOptions).
  bool mergeScalarChains = true;
  /// Interference accounting for the system-level analysis (default
  /// MhpRefined, the ARGO approach; AllContenders is the pessimistic
  /// baseline).
  syswcet::InterferenceMethod interference =
      syswcet::InterferenceMethod::MhpRefined;
  /// Worker threads for the cross-layer feedback exploration: each
  /// (chunks-per-loop x core-limit) candidate is scheduled and analyzed
  /// independently, as one node of an edge-free support::TaskGraph. 0 = one
  /// per hardware thread, 1 = sequential in-place evaluation. The chosen
  /// candidate, feedback ordering, and report are bit-identical either way:
  /// candidates are reduced in ladder order after the graph runs. Every
  /// phase inside a candidate runs inline; the exploration is the only pool
  /// a run starts. Set it to 1 when calling run() from inside a graph node
  /// (scenarios::runEval does), since pools do not nest.
  int explorationThreads = 0;
  /// Optional content-hash stage cache (core/cache.h). run() is one
  /// sequence of stages — transforms, sequential WCET, task extraction,
  /// then per candidate HTG expansion, per-task timings and
  /// schedule/system-WCET — and the cache is only a memo over it: when
  /// set, each stage's value is looked up under a hash of exactly the
  /// inputs the stage observes, so a cache shared across runs (a platform
  /// sweep, an incremental re-run) reuses everything whose inputs did not
  /// change. null (the default) calls every stage directly and derives no
  /// keys (no IR printing, no hashing). Results are byte-identical either
  /// way.
  std::shared_ptr<ToolchainCache> cache;
};

/// Wall-clock duration of one tool-chain stage (for E10).
struct StageTiming {
  std::string stage;
  double milliseconds = 0.0;
};

/// One point of the cross-layer feedback exploration (for E8).
struct FeedbackPoint {
  int chunksPerLoop = 0;
  /// 0 = all cores available; 1 = the sequential-mapping fallback the
  /// feedback loop always evaluates (so parallelization is only chosen
  /// when it actually beats one core).
  int coreLimit = 0;
  Cycles systemWcet = 0;
  int tasks = 0;
};

/// Everything the tool-chain produced. `fn` and `graph` share ownership
/// of the stage values they were computed as (and, with a cache attached,
/// of the cache entries) instead of copying them: both are read-only, stay
/// valid after the cache and the Toolchain are gone, and keep the internal
/// pointers (TaskGraph -> Function, ParallelProgram -> TaskGraph) stable
/// across moves and copies of the result object.
struct ToolchainResult {
  /// The transformed function (shares the transforms stage value).
  std::shared_ptr<const ir::Function> fn;
  ir::Environment constants;
  /// The chosen candidate's task graph (shares its expansion stage value,
  /// which also owns the function the graph points into).
  std::shared_ptr<const htg::TaskGraph> graph;
  std::vector<sched::TaskTiming> timings;
  sched::Schedule schedule;
  par::ParallelProgram program;
  syswcet::SystemWcet system;

  /// WCET of the whole (transformed) function on tile 0, single core.
  Cycles sequentialWcet = 0;
  /// sequentialWcet / system.makespan — the guaranteed speedup.
  [[nodiscard]] double wcetSpeedup() const {
    return system.makespan == 0
               ? 0.0
               : static_cast<double>(sequentialWcet) /
                     static_cast<double>(system.makespan);
  }

  std::vector<std::string> passesRun;
  std::vector<StageTiming> stages;
  std::vector<FeedbackPoint> feedback;
  /// Index into `feedback` of the chosen candidate: the first minimum in
  /// ladder order (tied later points are not chosen).
  std::size_t chosenPoint = 0;
  int chosenChunks = 1;

  /// Multi-line human-readable summary (the cross-layer programming
  /// interface of Section II-E, in text form). Stage timings are
  /// wall-clock and vary run to run; pass `includeStageTimings = false`
  /// for a fully deterministic report (used by the determinism tests).
  [[nodiscard]] std::string reportText(bool includeStageTimings = true) const;
};

/// Runs the full tool-chain on a compiled model.
class Toolchain {
 public:
  Toolchain(adl::Platform platform, ToolchainOptions options)
      : platform_(std::move(platform)), options_(std::move(options)) {}

  /// The model is copied (function cloned); the input stays usable.
  [[nodiscard]] ToolchainResult run(const model::CompiledModel& model) const;

  /// Convenience: compile a diagram, then run.
  [[nodiscard]] ToolchainResult run(const model::Diagram& diagram) const;

  /// Warms the policy-independent stage prefix for `model` — transforms,
  /// sequential WCET, every candidate HTG expansion and its per-task
  /// timings — into the attached cache, so subsequent run() calls (for
  /// any policy on this platform) start at the schedule stage. Runs the
  /// same stage code as run(), untimed. No-op without a cache.
  /// scenarios::runEval uses this as the shared upstream node that
  /// per-policy toolchain nodes fan out from on the TaskGraph executor.
  void warmSharedStages(const model::CompiledModel& model) const;

  /// The emit step (paper Section II-C: "generate C code following the
  /// WCET-aware programming model"): lowers the scheduled parallel program
  /// of a finished run to compilable C, with `trace` as the recorded
  /// inputs the emitted harness replays and `options` selecting the
  /// execution mode of the emitted harness (sequential replay or one
  /// pthread per tile) and the optional runtime deadline asserts. Pure
  /// function of (result, platform, trace, options) — the sources are
  /// byte-identical across runs and thread counts (docs/CODEGEN.md).
  [[nodiscard]] codegen::Emission emitC(
      const ToolchainResult& result, const codegen::InputTrace& trace,
      const codegen::EmitOptions& options = {}) const;

  [[nodiscard]] const adl::Platform& platform() const noexcept {
    return platform_;
  }

 private:
  adl::Platform platform_;
  ToolchainOptions options_;
};

}  // namespace argo::core
