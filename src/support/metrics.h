// Process-wide registry of named monotonic counters and peak gauges: the
// numeric half of the observability layer (docs/OBSERVABILITY.md; the
// span half is support/trace.h).
//
// MetricsRegistry::global() maps a dotted name ("graph.nodes_run",
// "graph.ready_wait_us") to a Counter or Gauge that lives for the whole
// process. counter()/gauge() get-or-create under a mutex and return a
// stable reference — instruments cache the reference once and then update
// it with a single relaxed atomic op, so the hot path never touches the
// registry lock. Counters only ever grow; gauges track a high watermark
// (noteMax) or a last-set value.
//
// Determinism: metrics are telemetry, strictly off the report path. They
// are rendered only inside the wall-clock opt-in `--timings` JSON (the
// `metrics` block) — never in canonical report bytes. Many counters are
// scheduling-dependent (ready-queue waits, hit/wait splits); only sums the
// determinism contract already fixes (e.g. total cache lookups) are
// stable run to run.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace argo::support {

/// A monotonically increasing event count.
class MetricCounter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  friend class MetricsRegistry;
  std::atomic<std::uint64_t> value_{0};
};

/// A last-value / high-watermark gauge.
class MetricGauge {
 public:
  void set(std::uint64_t v) noexcept {
    value_.store(v, std::memory_order_relaxed);
  }
  /// Raises the gauge to `v` if it is below (lock-free max).
  void noteMax(std::uint64_t v) noexcept {
    std::uint64_t seen = value_.load(std::memory_order_relaxed);
    while (seen < v && !value_.compare_exchange_weak(
                           seen, v, std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  friend class MetricsRegistry;
  std::atomic<std::uint64_t> value_{0};
};

/// One (name, value) pair of a registry snapshot.
struct MetricSample {
  std::string name;
  std::uint64_t value = 0;
  bool isGauge = false;
};

class MetricsRegistry {
 public:
  /// The process-wide registry every instrument reports into.
  static MetricsRegistry& global();

  /// Get-or-create; the returned reference is valid for the registry's
  /// lifetime (entries are never erased — resetForTest only zeroes them).
  MetricCounter& counter(std::string_view name);
  MetricGauge& gauge(std::string_view name);

  /// Every registered metric, sorted by name.
  [[nodiscard]] std::vector<MetricSample> snapshot() const;

  /// Zeroes every value in place; names and references stay valid. Test
  /// isolation only — production code never resets.
  void resetForTest();

 private:
  mutable std::mutex mutex_;
  // Node-based maps: values never move, so returned references are stable.
  std::map<std::string, std::unique_ptr<MetricCounter>, std::less<>>
      counters_;
  std::map<std::string, std::unique_ptr<MetricGauge>, std::less<>> gauges_;
};

}  // namespace argo::support
