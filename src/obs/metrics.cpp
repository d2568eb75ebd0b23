#include "obs/metrics.hpp"

#include <algorithm>
#include <fstream>
#include <ostream>
#include <sstream>

#include "common/error.hpp"

namespace gridvc::obs {

const char* metric_kind_name(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
    case MetricKind::kLogHistogram: return "summary";
  }
  return "unknown";
}

const MetricsSnapshot::Entry* MetricsSnapshot::find(const std::string& name) const {
  for (const auto& e : entries) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

double MetricsSnapshot::value(const std::string& name) const {
  const Entry* e = find(name);
  return e ? e->value : 0.0;
}

MetricId MetricsRegistry::register_metric(const std::string& name, MetricKind kind,
                                          const std::string& help,
                                          std::vector<double> bounds) {
  GRIDVC_REQUIRE(!name.empty(), "metric name must not be empty");
  const auto it = by_name_.find(name);
  if (it != by_name_.end()) {
    const Meta& meta = metas_[it->second];
    GRIDVC_REQUIRE(meta.kind == kind,
                   "metric '" + name + "' already registered as " +
                       metric_kind_name(meta.kind));
    if (kind == MetricKind::kHistogram) {
      GRIDVC_REQUIRE(histograms_[meta.slot].bounds == bounds,
                     "histogram '" + name +
                         "' re-registered with conflicting bucket bounds");
    }
    return MetricId{meta.slot, meta.kind};
  }
  std::uint32_t slot = 0;
  switch (kind) {
    case MetricKind::kCounter:
      slot = static_cast<std::uint32_t>(counters_.size());
      counters_.push_back(0);
      break;
    case MetricKind::kGauge:
      slot = static_cast<std::uint32_t>(gauges_.size());
      gauges_.push_back(0.0);
      break;
    case MetricKind::kHistogram: {
      GRIDVC_REQUIRE(std::is_sorted(bounds.begin(), bounds.end()),
                     "histogram bounds must be ascending");
      slot = static_cast<std::uint32_t>(histograms_.size());
      HistogramSlots h;
      h.counts.assign(bounds.size() + 1, 0);
      h.bounds = std::move(bounds);
      histograms_.push_back(std::move(h));
      break;
    }
    case MetricKind::kLogHistogram:
      slot = static_cast<std::uint32_t>(log_histograms_.size());
      log_histograms_.emplace_back();
      break;
  }
  by_name_.emplace(name, metas_.size());
  metas_.push_back(Meta{name, help, kind, slot});
  return MetricId{slot, kind};
}

MetricId MetricsRegistry::counter(const std::string& name, const std::string& help) {
  return register_metric(name, MetricKind::kCounter, help, {});
}

MetricId MetricsRegistry::gauge(const std::string& name, const std::string& help) {
  return register_metric(name, MetricKind::kGauge, help, {});
}

MetricId MetricsRegistry::histogram(const std::string& name,
                                    std::vector<double> bucket_bounds,
                                    const std::string& help) {
  return register_metric(name, MetricKind::kHistogram, help, std::move(bucket_bounds));
}

MetricId MetricsRegistry::log_histogram(const std::string& name,
                                        const std::string& help) {
  return register_metric(name, MetricKind::kLogHistogram, help, {});
}

MetricId MetricsRegistry::find(const std::string& name, MetricKind kind) const {
  const auto it = by_name_.find(name);
  if (it == by_name_.end() || metas_[it->second].kind != kind) return MetricId{};
  return MetricId{metas_[it->second].slot, kind};
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  snap.entries.reserve(metas_.size());
  for (const auto& meta : metas_) {
    MetricsSnapshot::Entry e;
    e.name = meta.name;
    e.help = meta.help;
    e.kind = meta.kind;
    switch (meta.kind) {
      case MetricKind::kCounter:
        e.value = static_cast<double>(counters_[meta.slot]);
        break;
      case MetricKind::kGauge:
        e.value = gauges_[meta.slot];
        break;
      case MetricKind::kHistogram: {
        const HistogramSlots& h = histograms_[meta.slot];
        e.histogram.bounds = h.bounds;
        e.histogram.counts = h.counts;
        e.histogram.sum = h.sum;
        e.histogram.total = h.total;
        e.value = static_cast<double>(h.total);
        break;
      }
      case MetricKind::kLogHistogram: {
        const LogHistogram& h = log_histograms_[meta.slot];
        e.histogram.log_bucket = true;
        e.histogram.sum = h.sum();
        e.histogram.total = h.total();
        e.histogram.p50 = h.quantile(0.50);
        e.histogram.p95 = h.quantile(0.95);
        e.histogram.p99 = h.quantile(0.99);
        // Synthesized bounds over the non-empty buckets; first edge 0
        // carries the underflow (v <= 0) count.
        e.histogram.bounds.push_back(0.0);
        e.histogram.counts.push_back(h.underflow());
        for (const LogHistogram::Bucket& b : h.buckets()) {
          e.histogram.bounds.push_back(b.upper);
          e.histogram.counts.push_back(b.count);
        }
        e.histogram.counts.push_back(0);  // +Inf bucket: nothing above
        e.value = static_cast<double>(h.total());
        break;
      }
    }
    snap.entries.push_back(std::move(e));
  }
  return snap;
}

namespace {

// %g-style shortest round-trip formatting keeps the files compact.
std::string fmt(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

constexpr double kQuantiles[] = {0.5, 0.95, 0.99};

double quantile_field(const MetricsSnapshot::Histogram& h, double q) {
  if (q == 0.5) return h.p50;
  if (q == 0.95) return h.p95;
  return h.p99;
}

}  // namespace

void write_prometheus(std::ostream& out, const MetricsSnapshot& snapshot) {
  for (const auto& e : snapshot.entries) {
    if (!e.help.empty()) out << "# HELP " << e.name << ' ' << e.help << '\n';
    out << "# TYPE " << e.name << ' ' << metric_kind_name(e.kind) << '\n';
    if (e.kind == MetricKind::kLogHistogram) {
      for (const double q : kQuantiles) {
        out << e.name << "{quantile=\"" << fmt(q) << "\"} "
            << fmt(quantile_field(e.histogram, q)) << '\n';
      }
      out << e.name << "_sum " << fmt(e.histogram.sum) << '\n';
      out << e.name << "_count " << e.histogram.total << '\n';
      continue;
    }
    if (e.kind != MetricKind::kHistogram) {
      out << e.name << ' ' << fmt(e.value) << '\n';
      continue;
    }
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < e.histogram.counts.size(); ++i) {
      cumulative += e.histogram.counts[i];
      const std::string le =
          i < e.histogram.bounds.size() ? fmt(e.histogram.bounds[i]) : "+Inf";
      out << e.name << "_bucket{le=\"" << le << "\"} " << cumulative << '\n';
    }
    out << e.name << "_sum " << fmt(e.histogram.sum) << '\n';
    out << e.name << "_count " << e.histogram.total << '\n';
  }
}

void write_csv(std::ostream& out, const MetricsSnapshot& snapshot) {
  out << "metric,kind,label,value\n";
  for (const auto& e : snapshot.entries) {
    if (e.kind == MetricKind::kLogHistogram) {
      for (const double q : kQuantiles) {
        out << e.name << ",summary,quantile=" << fmt(q) << ','
            << fmt(quantile_field(e.histogram, q)) << '\n';
      }
      out << e.name << ",summary,sum," << fmt(e.histogram.sum) << '\n';
      out << e.name << ",summary,count," << e.histogram.total << '\n';
      continue;
    }
    if (e.kind != MetricKind::kHistogram) {
      out << e.name << ',' << metric_kind_name(e.kind) << ",," << fmt(e.value) << '\n';
      continue;
    }
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < e.histogram.counts.size(); ++i) {
      cumulative += e.histogram.counts[i];
      const std::string le =
          i < e.histogram.bounds.size() ? fmt(e.histogram.bounds[i]) : "+Inf";
      out << e.name << ",histogram,le=" << le << ',' << cumulative << '\n';
    }
    out << e.name << ",histogram,sum," << fmt(e.histogram.sum) << '\n';
    out << e.name << ",histogram,count," << e.histogram.total << '\n';
  }
}

bool write_metrics_file(const std::string& path, const MetricsSnapshot& snapshot) {
  std::ofstream out(path);
  if (!out) return false;
  if (path.ends_with(".csv")) {
    write_csv(out, snapshot);
  } else {
    write_prometheus(out, snapshot);
  }
  return true;
}

}  // namespace gridvc::obs
