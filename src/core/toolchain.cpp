#include "core/toolchain.h"

#include <chrono>
#include <sstream>
#include <type_traits>

#include "core/cache.h"
#include "ir/printer.h"
#include "support/graph.h"
#include "support/strings.h"
#include "support/trace.h"
#include "transform/const_fold.h"
#include "transform/loop_transforms.h"
#include "transform/spm_alloc.h"

namespace argo::core {

namespace {

class StageClock {
 public:
  /// A null sink runs the stages bare: no timing, no span (the untimed
  /// warmSharedStages prefix).
  explicit StageClock(std::vector<StageTiming>* sink) : sink_(sink) {}

  template <typename Fn>
  auto time(const std::string& stage, Fn&& fn) {
    if (sink_ == nullptr) return fn();
    // Same boundary, two sinks: wall-ms into the --timings stage table,
    // and one "toolchain" span per stage into the trace recorder.
    support::TraceSpan span("toolchain", stage);
    const auto begin = std::chrono::steady_clock::now();
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      record(stage, begin);
    } else {
      auto result = fn();
      record(stage, begin);
      return result;
    }
  }

 private:
  void record(const std::string& stage,
              std::chrono::steady_clock::time_point begin) {
    const auto end = std::chrono::steady_clock::now();
    sink_->push_back(StageTiming{
        stage,
        std::chrono::duration<double, std::milli>(end - begin).count()});
  }

  std::vector<StageTiming>* sink_;
};

/// The predictability transform pipeline (Fig. 1 left), applied in place.
std::vector<std::string> runTransformPasses(ir::Function& fn,
                                            const adl::Platform& platform,
                                            const ToolchainOptions& options) {
  transform::PassManager pm;
  if (options.runTransforms) {
    pm.add(std::make_unique<transform::ConstantFolding>());
    pm.add(std::make_unique<transform::IndexSetSplitting>());
    pm.add(std::make_unique<transform::LoopFusion>());
  }
  if (options.spmAllocation) {
    const adl::CoreModel& core = platform.tile(0).core;
    pm.add(std::make_unique<transform::ScratchpadAllocation>(
        core.spmBytes, platform.sharedAccessBase(0), core.spmAccessCycles));
  }
  return pm.run(fn);
}

/// One feedback candidate: a granularity plus an optional core
/// restriction.
struct Candidate {
  int chunks;
  int coreLimit;  // 0 = unrestricted
};

/// The candidate ladder of the feedback loop: sequential-mapping fallback
/// first (parallelization must *beat* one core to be selected), then every
/// requested granularity.
std::vector<Candidate> buildPlans(const adl::Platform& platform,
                                  const ToolchainOptions& options) {
  std::vector<int> candidates = options.chunkCandidates;
  if (candidates.empty()) {
    for (int c = 1; c <= 2 * platform.coreCount(); c *= 2) {
      candidates.push_back(c);
    }
  }
  std::vector<Candidate> plans;
  plans.push_back(Candidate{1, 1});
  for (int chunks : candidates) plans.push_back(Candidate{chunks, 0});
  return plans;
}

/// The policy-independent values every candidate starts from.
struct Prefix {
  std::shared_ptr<const TransformsStage> transformed;
  Cycles sequentialWcet;
  htg::Htg htg;  ///< Extracted once per run from transformed->fn.
};

/// One candidate's stage values. `timingsKey` chains its schedule lookup
/// and is only derived when a cache is attached.
struct PlanEval {
  support::StageKey timingsKey;
  std::shared_ptr<const ExpandStage> expansion;
  std::shared_ptr<const std::vector<sched::TaskTiming>> timings;
  std::shared_ptr<const ScheduleStage> outcome;
};

/// The stage sequence of Toolchain::run, shared by warmSharedStages. Each
/// stage's compute closure is written once; memoize() is the only place
/// the two cache settings differ.
class Stages {
 public:
  Stages(const adl::Platform& platform, const ToolchainOptions& options)
      : platform_(platform), options_(options), cache_(options.cache.get()) {}

  /// Transforms, code-level WCET and task extraction, each one `clock`
  /// stage.
  [[nodiscard]] Prefix prefix(const model::CompiledModel& model,
                              StageClock& clock) const {
    std::shared_ptr<const TransformsStage> transformed =
        clock.time("transforms", [&] {
          const auto transform = [&] {
            TransformsStage stage;
            std::unique_ptr<ir::Function> fn = model.fn->clone();
            stage.passesRun = runTransformPasses(*fn, platform_, options_);
            if (cache_ != nullptr) {  // every downstream key chains on it
              stage.irText = ir::toString(*fn);
              stage.irKey = support::Hasher().str(stage.irText).finish();
            }
            stage.fn = std::move(fn);
            return stage;
          };
          return memoize(transform, [&](ToolchainCache& cache,
                                        const auto& compute) {
            return cache.getTransforms(
                transformsKey(ir::toString(*model.fn), platform_,
                              options_.runTransforms, options_.spmAllocation),
                compute);
          });
        });

    // Sequential reference bound (single core, no interference).
    const Cycles sequentialWcet = clock.time("code_level_wcet", [&] {
      const auto analyze = [&] {
        const wcet::TimingModel model0 =
            wcet::TimingModel::forTile(platform_, 0);
        return wcet::SchemaAnalyzer(*transformed->fn, model0)
            .analyzeFunction()
            .cycles;
      };
      return *memoize(analyze, [&](ToolchainCache& cache,
                                   const auto& compute) {
        return cache.getSequentialWcet(
            sequentialWcetKey(transformed->irKey, platform_), compute);
      });
    });

    htg::Htg htg = clock.time(
        "task_extraction", [&] { return htg::buildHtg(*transformed->fn); });
    return Prefix{std::move(transformed), sequentialWcet, std::move(htg)};
  }

  /// Expansion of one granularity plus its per-task timings: the part of
  /// a candidate that no scheduling option observes.
  [[nodiscard]] PlanEval expand(const Prefix& prefix, int chunks) const {
    PlanEval eval;
    support::StageKey expKey;
    const auto expandGraph = [&] {
      htg::ExpandOptions expandOptions;
      expandOptions.chunksPerLoop = chunks;
      expandOptions.mergeScalarChains = options_.mergeScalarChains;
      ExpandStage stage;
      stage.source = prefix.transformed;  // owns the graph's function
      stage.graph = std::make_unique<const htg::TaskGraph>(
          htg::expand(prefix.htg, expandOptions));
      return stage;
    };
    eval.expansion = memoize(expandGraph, [&](ToolchainCache& cache,
                                              const auto& compute) {
      expKey = expansionKey(prefix.transformed->irKey, chunks,
                            options_.mergeScalarChains);
      return cache.getExpansion(expKey, prefix.transformed, compute);
    });

    const auto analyzeTasks = [&] {
      return sched::computeTaskTimings(*eval.expansion->graph, platform_);
    };
    eval.timings = memoize(analyzeTasks, [&](ToolchainCache& cache,
                                             const auto& compute) {
      eval.timingsKey = timingsKey(expKey, platform_);
      return cache.getTimings(eval.timingsKey, compute);
    });
    return eval;
  }

  /// Schedule and system-level WCET of one expanded candidate. Candidates
  /// an exact policy cannot represent are not rejected here: the
  /// branch-and-bound policy itself falls back to HEFT beyond its task
  /// cap (sched/bnb.h), so every candidate stays comparable.
  void schedule(PlanEval& eval, const sched::SchedOptions& options) const {
    const auto scheduleAndBound = [&] {
      const htg::TaskGraph& graph = *eval.expansion->graph;
      const sched::Scheduler scheduler(graph, platform_, *eval.timings);
      ScheduleStage stage;
      stage.schedule = scheduler.run(options);
      const par::ParallelProgram program =
          par::buildParallelProgram(graph, stage.schedule, platform_);
      stage.system = syswcet::analyzeSystem(
          program, platform_, scheduler.timings(), options_.interference);
      return stage;
    };
    eval.outcome = memoize(scheduleAndBound, [&](ToolchainCache& cache,
                                                 const auto& compute) {
      return cache.getSchedules(scheduleKey(eval.timingsKey, platform_,
                                            options, options_.interference),
                                compute);
    });
  }

 private:
  /// Without a cache the closure runs directly; with one, `lookup`
  /// derives the stage key and memoizes the closure under it — so keys
  /// (IR printing, hashing, platform slices) cost nothing uncached.
  template <typename Compute, typename Lookup>
  auto memoize(const Compute& compute, Lookup&& lookup) const
      -> std::shared_ptr<const std::invoke_result_t<const Compute&>> {
    if (cache_ == nullptr) {
      return std::make_shared<const std::invoke_result_t<const Compute&>>(
          compute());
    }
    return lookup(*cache_, compute);
  }

  const adl::Platform& platform_;
  const ToolchainOptions& options_;
  ToolchainCache* const cache_;
};

}  // namespace

ToolchainResult Toolchain::run(const model::Diagram& diagram) const {
  return run(diagram.compile());
}

codegen::Emission Toolchain::emitC(const ToolchainResult& result,
                                   const codegen::InputTrace& trace,
                                   const codegen::EmitOptions& options) const {
  return codegen::emitProgram(result.program, platform_, result.constants,
                              trace, options);
}

void Toolchain::warmSharedStages(const model::CompiledModel& model) const {
  if (options_.cache == nullptr) return;
  const Stages stages(platform_, options_);
  StageClock untimed(nullptr);
  const Prefix prefix = stages.prefix(model, untimed);
  for (const Candidate& plan : buildPlans(platform_, options_)) {
    (void)stages.expand(prefix, plan.chunks);
  }
}

ToolchainResult Toolchain::run(const model::CompiledModel& model) const {
  ToolchainResult result;
  StageClock clock(&result.stages);
  const Stages stages(platform_, options_);

  // ---- IR + transforms (Fig. 1 left), sequential bound, one HTG. The
  // result shares the transformed function instead of copying it. ----
  const Prefix prefix = stages.prefix(model, clock);
  result.fn = std::shared_ptr<const ir::Function>(prefix.transformed,
                                                  prefix.transformed->fn.get());
  result.passesRun = prefix.transformed->passesRun;
  result.constants = model.constants;
  result.sequentialWcet = prefix.sequentialWcet;

  const std::vector<Candidate> plans = buildPlans(platform_, options_);

  // ---- Cross-layer feedback: schedule each candidate, measure its
  // system-level WCET, keep the best (Section II-E). Candidates are
  // independent (stage values are shared read-only; the HTG and platform
  // are only read), so they are evaluated concurrently as the nodes of an
  // edge-free support::TaskGraph; every phase a candidate invokes runs
  // inline inside its node. Determinism: every candidate writes into its
  // own slot, and the reduction below walks the slots in ladder order with
  // a strict `<`, so the chosen candidate, the FeedbackPoint sequence, and
  // the report are bit-identical to a sequential evaluation — and across
  // cache settings, because every cached stage is a pure function of its
  // keyed inputs. ----
  const unsigned threads =
      support::effectiveParallelism(options_.explorationThreads, plans.size());

  const auto evaluatePlan = [&](const Candidate& plan) {
    sched::SchedOptions schedOptions = options_.sched;
    if (plan.coreLimit > 0) schedOptions.coreLimit = plan.coreLimit;
    PlanEval eval = stages.expand(prefix, plan.chunks);
    stages.schedule(eval, schedOptions);
    return eval;
  };

  PlanEval best;
  // Ladder-order reduction step: strict `<`, so the first minimum wins
  // and its ladder index is the one chosen point of the report.
  const auto consume = [&](std::size_t i, PlanEval eval) {
    result.feedback.push_back(FeedbackPoint{
        plans[i].chunks, plans[i].coreLimit, eval.outcome->system.makespan,
        static_cast<int>(eval.expansion->graph->tasks.size())});
    if (best.outcome == nullptr ||
        eval.outcome->system.makespan < best.outcome->system.makespan) {
      result.chosenPoint = i;
      best = std::move(eval);
    }
  };

  clock.time("schedule_and_system_wcet", [&] {
    if (threads <= 1) {
      // Streaming: at most one candidate's graph alive besides the best.
      for (std::size_t i = 0; i < plans.size(); ++i) {
        consume(i, evaluatePlan(plans[i]));
      }
    } else {
      // An edge-free graph: one node per candidate, each writing its slot.
      std::vector<PlanEval> evals(plans.size());
      support::TaskGraph graph;
      for (std::size_t i = 0; i < plans.size(); ++i) {
        graph.addNode("candidate/" + std::to_string(i),
                      [&, i] { evals[i] = evaluatePlan(plans[i]); });
      }
      graph.run(static_cast<int>(threads));
      for (std::size_t i = 0; i < plans.size(); ++i) {
        consume(i, std::move(evals[i]));
      }
    }
  });
  if (best.outcome == nullptr) {
    throw support::ToolchainError("tool-chain: no feasible parallelization");
  }

  // ---- The winner's stage values, shared: its graph (whose ExpandStage
  // keeps the function it points into alive), timings and schedule. ----
  result.chosenChunks = plans[result.chosenPoint].chunks;
  result.graph = std::shared_ptr<const htg::TaskGraph>(
      best.expansion, best.expansion->graph.get());
  result.timings = *best.timings;
  result.schedule = best.outcome->schedule;
  result.system = best.outcome->system;

  // ---- Final explicit parallel program against the kept graph. ----
  clock.time("parallel_model", [&] {
    result.program =
        par::buildParallelProgram(*result.graph, result.schedule, platform_);
  });

  return result;
}

std::string ToolchainResult::reportText(bool includeStageTimings) const {
  std::ostringstream os;
  os << "=== ARGO tool-chain report ===\n";
  os << "function:            " << fn->name() << "\n";
  os << "passes run:          "
     << (passesRun.empty() ? "(none)" : support::join(passesRun, ", "))
     << "\n";
  os << "tasks:               " << graph->tasks.size() << " (chunks/loop "
     << chosenChunks << ")\n";
  os << "schedule policy:     " << schedule.policy << " on "
     << schedule.tilesUsed << " tiles\n";
  os << "sequential WCET:     " << support::formatCycles(sequentialWcet)
     << " cycles\n";
  os << "parallel WCET bound: " << support::formatCycles(system.makespan)
     << " cycles\n";
  os << "guaranteed speedup:  " << wcetSpeedup() << "x\n";
  os << "feedback points:\n";
  for (std::size_t i = 0; i < feedback.size(); ++i) {
    const FeedbackPoint& p = feedback[i];
    os << "  chunks=" << p.chunksPerLoop
       << (p.coreLimit == 1 ? " (sequential mapping)" : "")
       << " tasks=" << p.tasks
       << " systemWCET=" << support::formatCycles(p.systemWcet)
       << (i == chosenPoint ? "  <== chosen" : "") << "\n";
  }
  if (includeStageTimings) {
    os << "stage timings:\n";
    for (const StageTiming& s : stages) {
      os << "  " << s.stage << ": " << s.milliseconds << " ms\n";
    }
  }
  return os.str();
}

}  // namespace argo::core
