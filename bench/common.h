// Shared helpers for the experiment harness. Each bench binary regenerates
// one experiment of the paper-derived index (E1..E10) and prints a small
// table with the expected shape stated inline.
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "apps/egpws.h"
#include "apps/polka.h"
#include "apps/weaa.h"
#include "core/toolchain.h"
#include "sim/simulator.h"
#include "support/rng.h"
#include "support/strings.h"

namespace argo::bench {

inline apps::EgpwsConfig egpwsConfig() {
  apps::EgpwsConfig config;
  return config;
}

inline apps::WeaaConfig weaaConfig() {
  apps::WeaaConfig config;
  return config;
}

inline apps::PolkaConfig polkaConfig() {
  apps::PolkaConfig config;
  return config;
}

struct AppCase {
  std::string name;
  model::Diagram diagram;
};

inline std::vector<AppCase> allApps() {
  std::vector<AppCase> apps;
  apps.push_back({"egpws", apps::buildEgpwsDiagram(egpwsConfig())});
  apps.push_back({"weaa", apps::buildWeaaDiagram(weaaConfig())});
  apps.push_back({"polka", apps::buildPolkaDiagram(polkaConfig())});
  return apps;
}

/// Seeds the environment of a compiled app with representative inputs.
inline void setInputs(const std::string& app, ir::Environment& env,
                      std::uint64_t seed) {
  support::Rng rng(seed);
  if (app == "egpws") {
    apps::EgpwsInputs in;
    in.x = 2.0 + rng.uniformDouble() * 28.0;
    in.y = 2.0 + rng.uniformDouble() * 28.0;
    in.altitude = 200.0 + rng.uniformDouble() * 1500.0;
    in.heading = rng.uniformDouble() * 6.28;
    in.verticalSpeed = rng.uniformDouble() * 30.0 - 20.0;
    apps::setEgpwsInputs(env, in);
  } else if (app == "weaa") {
    apps::WeaaInputs in;
    in.oy = -60.0 + rng.uniformDouble() * 120.0;
    in.lx = rng.uniformDouble() * 200.0;
    in.gamma0 = 150.0 + rng.uniformDouble() * 400.0;
    apps::setWeaaInputs(env, in);
  } else {
    apps::setPolkaInputs(env, polkaConfig(),
                         apps::makePolkaFrame(polkaConfig(), seed));
  }
}

/// Runs the simulator `trials` times with random inputs, returns the
/// maximum observed makespan (the "high watermark" execution). Trials are
/// independent probes: each starts from the same zero environment and only
/// the input seed differs. (Consecutive-step trajectories — block state
/// carried from one step into the next — are deliberately *not* covered
/// here; probe the bound with i.i.d. inputs, use sim::Simulator directly
/// for stateful runs.) Trials run one after another on the calling thread.
inline adl::Cycles observedWorst(const core::ToolchainResult& result,
                                 const adl::Platform& platform,
                                 const std::string& app, int trials) {
  const sim::Simulator simulator(result.program, platform);
  ir::Environment base = ir::makeZeroEnvironment(*result.fn);
  for (const auto& [name, value] : result.constants) base[name] = value;
  adl::Cycles worst = 0;
  for (int t = 0; t < trials; ++t) {
    ir::Environment env = base;
    setInputs(app, env, 1000 + static_cast<std::uint64_t>(t));
    worst = std::max(worst, simulator.step(env).makespan);
  }
  return worst;
}

inline void printHeader(const char* experiment, const char* claim) {
  std::printf("==============================================================\n");
  std::printf("%s\n", experiment);
  std::printf("paper claim: %s\n", claim);
  std::printf("==============================================================\n");
}

/// True when the bench was invoked with `--json`: emit one machine-readable
/// JSON document on stdout instead of the human table, so CI can record the
/// perf trajectory per PR. Any other argument is rejected loudly — a typo
/// silently falling back to table output would corrupt the recorded series.
inline bool jsonRequested(int argc, char** argv) {
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--json") {
      json = true;
    } else {
      std::fprintf(stderr, "usage: %s [--json]\n", argv[0]);
      std::exit(2);
    }
  }
  return json;
}

/// One sequential-vs-pooled comparison of a parallel-infrastructure bench.
struct ParallelBenchRow {
  std::string app;
  std::string phase;      ///< optional sub-row label ("" = none)
  std::size_t items = 0;  ///< tasks / feedback points under comparison
  double seqMs = 0.0;
  double pooledMs = 0.0;
  bool identical = false;
  [[nodiscard]] double speedup() const {
    return pooledMs > 0.0 ? seqMs / pooledMs : 0.0;
  }
};

/// Collects the rows of a `bench_parallel_eval` run and renders them either
/// as the classic streaming table or, with --json, as a single JSON
/// document (emitted by finish()). The exit code follows the rows:
/// finish() returns 0 iff every row was bit-identical, so CI treats any
/// determinism mismatch as a failure in both output modes.
class ParallelBenchReport {
 public:
  ParallelBenchReport(std::string bench, std::string itemsHeader, bool json)
      : bench_(std::move(bench)),
        itemsHeader_(std::move(itemsHeader)),
        json_(json) {}

  [[nodiscard]] bool json() const noexcept { return json_; }

  void addRow(ParallelBenchRow row) {
    if (!json_) {
      if (rows_.empty()) {
        std::printf("%-8s %8s %-8s %12s %12s %9s  %s\n", "app",
                    itemsHeader_.c_str(), "phase", "seq(ms)", "pooled(ms)",
                    "speedup", "identical?");
      }
      std::printf("%-8s %8zu %-8s %12.2f %12.2f %8.2fx  %s\n",
                  row.app.c_str(), row.items,
                  row.phase.empty() ? "-" : row.phase.c_str(), row.seqMs,
                  row.pooledMs, row.speedup(),
                  row.identical ? "yes" : "NO (BUG)");
    }
    rows_.push_back(std::move(row));
  }

  /// Totals line (table) or the whole document (json); returns the
  /// process exit code.
  [[nodiscard]] int finish() const {
    double totalSeq = 0.0;
    double totalPooled = 0.0;
    bool allIdentical = true;
    for (const ParallelBenchRow& row : rows_) {
      totalSeq += row.seqMs;
      totalPooled += row.pooledMs;
      allIdentical = allIdentical && row.identical;
    }
    if (json_) {
      std::printf("{\"bench\":\"%s\",\"rows\":[", bench_.c_str());
      for (std::size_t i = 0; i < rows_.size(); ++i) {
        const ParallelBenchRow& row = rows_[i];
        std::printf(
            "%s{\"app\":\"%s\",%s\"%s\":%zu,\"seq_ms\":%.3f,"
            "\"pooled_ms\":%.3f,\"speedup\":%.3f,\"identical\":%s}",
            i == 0 ? "" : ",", row.app.c_str(),
            row.phase.empty()
                ? ""
                : ("\"phase\":\"" + row.phase + "\",").c_str(),
            itemsHeader_.c_str(), row.items, row.seqMs, row.pooledMs,
            row.speedup(), row.identical ? "true" : "false");
      }
      std::printf(
          "],\"total\":{\"seq_ms\":%.3f,\"pooled_ms\":%.3f,"
          "\"speedup\":%.3f},\"all_identical\":%s}\n",
          totalSeq, totalPooled,
          totalPooled > 0.0 ? totalSeq / totalPooled : 0.0,
          allIdentical ? "true" : "false");
    } else {
      std::printf("%-8s %8s %-8s %12.2f %12.2f %8.2fx  %s\n", "total", "-",
                  "-", totalSeq, totalPooled,
                  totalPooled > 0.0 ? totalSeq / totalPooled : 0.0,
                  allIdentical ? "yes" : "NO (BUG)");
    }
    return allIdentical ? 0 : 1;
  }

 private:
  std::string bench_;
  std::string itemsHeader_;
  bool json_;
  std::vector<ParallelBenchRow> rows_;
};

}  // namespace argo::bench
