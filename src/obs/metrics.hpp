// Metrics registry: named counters, gauges, fixed-bucket histograms,
// and log-bucket (HDR-style) histograms with quantile export.
//
// Built for the simulation hot path: a metric is registered once (a map
// lookup, returning a stable MetricId handle) and updated through plain
// array indexing — an increment is one add into a contiguous uint64_t /
// double slot, no hashing, no locks, no virtual dispatch. Registering
// the same name twice returns the same handle, so independent components
// can share a metric without coordination.
//
// Thread ownership: a registry is single-writer. Each registry belongs
// to the thread that constructed it (each Simulator owns one, and a
// simulator runs on exactly one thread; parallel chaos/scenario
// replications construct a fresh simulator per lane body). add/set/
// observe assert that contract in debug builds. Cross-thread readers
// must synchronize externally — in practice snapshot() is taken on the
// owning thread and the detached MetricsSnapshot is what crosses
// threads.
//
// Naming convention: gridvc_<layer>_<name>, layer one of sim / net /
// gridftp / vc (see DESIGN.md "Observability").
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "obs/log_histogram.hpp"

namespace gridvc::obs {

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram, kLogHistogram };

const char* metric_kind_name(MetricKind kind);

/// Stable handle to one registered metric. Cheap to copy; valid for the
/// lifetime of the registry that issued it.
struct MetricId {
  static constexpr std::uint32_t kNone = 0xffffffffu;
  std::uint32_t slot = kNone;  ///< index into the kind-specific slot array
  MetricKind kind = MetricKind::kCounter;
  bool valid() const { return slot != kNone; }
};

/// Point-in-time copy of every registered metric, detached from the
/// registry (scenario results carry one across the owning simulator's
/// destruction).
struct MetricsSnapshot {
  struct Histogram {
    std::vector<double> bounds;          ///< bucket upper edges, ascending
    std::vector<std::uint64_t> counts;   ///< bounds.size() + 1 (+Inf bucket)
    double sum = 0.0;
    std::uint64_t total = 0;
    // Filled for kLogHistogram entries (bounds then hold the upper edges
    // of the non-empty log buckets, first edge 0 for the underflow bin).
    bool log_bucket = false;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
  };
  struct Entry {
    std::string name;
    std::string help;
    MetricKind kind = MetricKind::kCounter;
    double value = 0.0;  ///< counter or gauge value
    Histogram histogram; ///< filled for histogram-like entries
  };

  std::vector<Entry> entries;

  const Entry* find(const std::string& name) const;
  /// Counter/gauge value by name; 0 when absent.
  double value(const std::string& name) const;
};

/// Prometheus text exposition (# HELP / # TYPE / samples). Log-bucket
/// histograms export as summaries: quantile samples plus _sum/_count.
void write_prometheus(std::ostream& out, const MetricsSnapshot& snapshot);
/// Flat CSV: metric,kind,label,value — histograms expand to one row per
/// bucket plus _sum and _count; log histograms to quantile rows.
void write_csv(std::ostream& out, const MetricsSnapshot& snapshot);
/// Write `snapshot` to the file `path`: CSV when the path ends in ".csv",
/// Prometheus text otherwise. Returns false when the file cannot be opened.
bool write_metrics_file(const std::string& path, const MetricsSnapshot& snapshot);

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Register (or look up) a metric. Re-registration under the same name
  /// must agree on the kind AND, for fixed-bucket histograms, on the
  /// bounds; any clash throws PreconditionError (a silent first-wins
  /// rule let two components observe into differently-shaped buckets
  /// without noticing).
  MetricId counter(const std::string& name, const std::string& help = "");
  MetricId gauge(const std::string& name, const std::string& help = "");
  MetricId histogram(const std::string& name, std::vector<double> bucket_bounds,
                     const std::string& help = "");
  /// Log-bucket histogram: no bounds to declare, p50/p95/p99 exported.
  MetricId log_histogram(const std::string& name, const std::string& help = "");

  // --- hot path -----------------------------------------------------------
  void add(MetricId id, std::uint64_t delta = 1) {
    assert_owner();
    counters_[id.slot] += delta;
  }
  void set(MetricId id, double value) {
    assert_owner();
    gauges_[id.slot] = value;
  }
  void observe(MetricId id, double value) {
    assert_owner();
    if (id.kind == MetricKind::kLogHistogram) {
      log_histograms_[id.slot].observe(value);
    } else {
      histograms_[id.slot].observe(value);
    }
  }

  // --- reads --------------------------------------------------------------
  std::uint64_t counter_value(MetricId id) const { return counters_[id.slot]; }
  double gauge_value(MetricId id) const { return gauges_[id.slot]; }

  /// Handle of an already-registered metric; invalid id when absent or of
  /// a different kind.
  MetricId find(const std::string& name, MetricKind kind) const;

  std::size_t size() const { return metas_.size(); }

  MetricsSnapshot snapshot() const;

  /// Re-pin the single-writer contract to the calling thread. Only legal
  /// across a synchronization point: the sharded simulation joins its
  /// pool at every barrier before re-dispatching worlds onto (possibly
  /// different) lanes, so the old owner's writes happen-before the new
  /// owner's. Mutations within an epoch remain asserted single-threaded.
  void rebind_owner() {
#ifndef NDEBUG
    owner_ = std::this_thread::get_id();
#endif
  }

 private:
  struct HistogramSlots {
    std::vector<double> bounds;
    std::vector<std::uint64_t> counts;  // bounds.size() + 1
    double sum = 0.0;
    std::uint64_t total = 0;

    void observe(double v) {
      // First bucket whose upper edge is >= v (Prometheus `le`
      // semantics); binary search instead of the old linear scan.
      const std::size_t i = static_cast<std::size_t>(
          std::lower_bound(bounds.begin(), bounds.end(), v) - bounds.begin());
      ++counts[i];
      sum += v;
      ++total;
    }
  };
  struct Meta {
    std::string name;
    std::string help;
    MetricKind kind;
    std::uint32_t slot;
  };

  MetricId register_metric(const std::string& name, MetricKind kind,
                           const std::string& help, std::vector<double> bounds);

#ifndef NDEBUG
  void assert_owner() const {
    // Single-writer contract (see header comment): mutations must come
    // from the thread that constructed the registry.
    assert(std::this_thread::get_id() == owner_ &&
           "MetricsRegistry mutated off its owning thread");
  }
  std::thread::id owner_ = std::this_thread::get_id();
#else
  void assert_owner() const {}
#endif

  std::vector<Meta> metas_;                  // registration order
  std::map<std::string, std::size_t> by_name_;  // name -> index into metas_
  std::vector<std::uint64_t> counters_;
  std::vector<double> gauges_;
  std::vector<HistogramSlots> histograms_;
  std::vector<LogHistogram> log_histograms_;
};

}  // namespace gridvc::obs
