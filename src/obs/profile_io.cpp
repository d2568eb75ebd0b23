#include "obs/profile_io.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <map>
#include <ostream>
#include <sstream>

#include "common/error.hpp"
#include "common/json.hpp"

namespace gridvc::obs {

namespace {

// Fixed-precision formatting keeps the files deterministic across
// locales and iostream state.
std::string fixed(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", digits, v);
  return buf;
}

}  // namespace

void write_chrome_trace(std::ostream& out, const ProfileReport& report) {
  out << "{\n";
  out << "\"displayTimeUnit\": \"ms\",\n";
  out << "\"gridvcMeta\": {\"lanes\": " << report.lanes
      << ", \"droppedSamples\": " << report.dropped_samples
      << ", \"spanNs\": " << fixed(report.span_ns, 1)
      << ", \"zoneCount\": " << report.zones.size()
      << ", \"sampleCount\": " << report.samples.size() << "},\n";
  out << "\"gridvcProfile\": [";
  for (std::size_t i = 0; i < report.zones.size(); ++i) {
    const ZoneStat& z = report.zones[i];
    out << (i == 0 ? "\n" : ",\n") << "{\"name\": ";
    write_json_string(out, z.name);
    out << ", \"count\": " << z.count << ", \"total_ns\": " << z.total_ns
        << ", \"self_ns\": " << z.self_ns << ", \"p50_ns\": " << fixed(z.p50_ns, 1)
        << ", \"p95_ns\": " << fixed(z.p95_ns, 1)
        << ", \"p99_ns\": " << fixed(z.p99_ns, 1) << "}";
  }
  out << "\n],\n";
  out << "\"traceEvents\": [";
  bool first = true;
  for (std::uint32_t lane = 0; lane < report.lanes; ++lane) {
    out << (first ? "\n" : ",\n")
        << "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": " << lane
        << ", \"args\": {\"name\": \"lane " << lane << "\"}}";
    first = false;
  }
  for (const ZoneSample& sample : report.samples) {
    out << (first ? "\n" : ",\n") << "{\"name\": ";
    write_json_string(out, sample.zone < report.zone_names.size()
                           ? report.zone_names[sample.zone]
                           : "?");
    // Chrome trace timestamps are microseconds.
    out << ", \"cat\": \"gridvc\", \"ph\": \"X\", \"ts\": "
        << fixed(sample.start_ns / 1000.0, 3) << ", \"dur\": "
        << fixed(sample.dur_ns / 1000.0, 3) << ", \"pid\": 1, \"tid\": "
        << sample.lane << ", \"args\": {\"depth\": " << sample.depth << "}}";
    first = false;
  }
  out << "\n]\n}\n";
}

ProfileReport read_profile_json(const std::string& text) {
  const Json doc = parse_json(text);
  if (doc.type != Json::Type::kObject) {
    throw ParseError("profile JSON: document is not an object");
  }
  const Json* zones = doc.get("gridvcProfile");
  if (!zones || zones->type != Json::Type::kArray) {
    throw ParseError("profile JSON: missing gridvcProfile array");
  }
  ProfileReport report;
  std::map<std::string, ZoneId> ids;
  for (const Json& z : zones->array) {
    ZoneStat stat;
    stat.name = z.string_at("name");
    stat.count = z.uint64_at("count");
    stat.total_ns = z.uint64_at("total_ns");
    stat.self_ns = z.uint64_at("self_ns");
    stat.p50_ns = z.number_at("p50_ns");
    stat.p95_ns = z.number_at("p95_ns");
    stat.p99_ns = z.number_at("p99_ns");
    ids.emplace(stat.name, static_cast<ZoneId>(report.zone_names.size()));
    report.zone_names.push_back(stat.name);
    report.zones.push_back(std::move(stat));
  }
  if (const Json* meta = doc.get("gridvcMeta")) {
    report.lanes = static_cast<std::uint32_t>(meta->uint64_at("lanes"));
    report.dropped_samples = meta->uint64_at("droppedSamples");
    report.span_ns = meta->number_at("spanNs");
  }
  const Json* events = doc.get("traceEvents");
  if (!events || events->type != Json::Type::kArray) {
    throw ParseError("profile JSON: missing traceEvents array");
  }
  for (const Json& e : events->array) {
    const Json* ph = e.get("ph");
    if (!ph || ph->str != "X") continue;  // metadata events
    ZoneSample sample;
    sample.start_ns = e.number_at("ts") * 1000.0;
    sample.dur_ns = e.number_at("dur") * 1000.0;
    sample.lane = static_cast<std::uint32_t>(e.uint64_at("tid"));
    const std::string name = e.string_at("name");
    const auto it = ids.find(name);
    if (it == ids.end()) {
      // Sample for a zone absent from the aggregate table: tolerated so
      // hand-edited traces still load, but it gets a fresh id.
      ids.emplace(name, static_cast<ZoneId>(report.zone_names.size()));
      report.zone_names.push_back(name);
      sample.zone = ids.at(name);
    } else {
      sample.zone = it->second;
    }
    if (const Json* args = e.get("args"); args && args->get("depth")) {
      sample.depth = static_cast<std::uint32_t>(args->uint64_at("depth"));
    }
    report.samples.push_back(sample);
  }
  return report;
}

ProfileReport read_profile_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  GRIDVC_REQUIRE(in.good(), "cannot open profile file: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return read_profile_json(buf.str());
}

void write_hotspots(std::ostream& out, const ProfileReport& report,
                    std::size_t top_n) {
  std::vector<const ZoneStat*> order;
  order.reserve(report.zones.size());
  for (const ZoneStat& z : report.zones) order.push_back(&z);
  std::sort(order.begin(), order.end(), [](const ZoneStat* a, const ZoneStat* b) {
    if (a->self_ns != b->self_ns) return a->self_ns > b->self_ns;
    return a->name < b->name;
  });
  if (order.size() > top_n) order.resize(top_n);
  out << "  self(ms)  total(ms)      count   p50(us)   p95(us)   p99(us)  zone\n";
  for (const ZoneStat* z : order) {
    char line[256];
    std::snprintf(line, sizeof line,
                  "%10.3f %10.3f %10llu %9.3f %9.3f %9.3f  %s\n",
                  static_cast<double>(z->self_ns) / 1e6,
                  static_cast<double>(z->total_ns) / 1e6,
                  static_cast<unsigned long long>(z->count), z->p50_ns / 1e3,
                  z->p95_ns / 1e3, z->p99_ns / 1e3, z->name.c_str());
    out << line;
  }
}

void write_profile_digest(std::ostream& out, const ProfileReport& report) {
  for (const ZoneStat& z : report.zones) {
    out << z.name << ' ' << z.count << '\n';
  }
}

void write_profile_diff(std::ostream& out, const ProfileReport& before,
                        const ProfileReport& after, std::size_t top_n) {
  struct Delta {
    std::string name;
    double d_self = 0.0, d_total = 0.0;
    std::int64_t d_count = 0;
  };
  std::map<std::string, Delta> by_name;
  for (const ZoneStat& z : before.zones) {
    Delta& d = by_name[z.name];
    d.name = z.name;
    d.d_self -= static_cast<double>(z.self_ns);
    d.d_total -= static_cast<double>(z.total_ns);
    d.d_count -= static_cast<std::int64_t>(z.count);
  }
  for (const ZoneStat& z : after.zones) {
    Delta& d = by_name[z.name];
    d.name = z.name;
    d.d_self += static_cast<double>(z.self_ns);
    d.d_total += static_cast<double>(z.total_ns);
    d.d_count += static_cast<std::int64_t>(z.count);
  }
  std::vector<Delta> order;
  order.reserve(by_name.size());
  for (auto& [name, d] : by_name) order.push_back(std::move(d));
  std::sort(order.begin(), order.end(), [](const Delta& a, const Delta& b) {
    if (std::fabs(a.d_self) != std::fabs(b.d_self)) {
      return std::fabs(a.d_self) > std::fabs(b.d_self);
    }
    return a.name < b.name;
  });
  if (order.size() > top_n) order.resize(top_n);
  out << " dself(ms)  dtotal(ms)     dcount  zone\n";
  for (const Delta& d : order) {
    char line[256];
    std::snprintf(line, sizeof line, "%+10.3f  %+10.3f %+10lld  %s\n",
                  d.d_self / 1e6, d.d_total / 1e6,
                  static_cast<long long>(d.d_count), d.name.c_str());
    out << line;
  }
}

bool dump_profile(const std::string& path, std::ostream& diag) {
  const ProfileReport report = Profiler::collect();
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    diag << "profile: cannot open " << path << " for writing\n";
    return false;
  }
  write_chrome_trace(out, report);
  out.flush();
  if (!out) {
    diag << "profile: write to " << path << " failed\n";
    return false;
  }
  diag << "profile: " << report.zones.size() << " zones, "
       << report.samples.size() << " samples ("
       << report.dropped_samples << " dropped) -> " << path << "\n";
  return true;
}

bool ProfileScope::finish() {
  if (path_.empty()) return true;
  const std::string path = std::move(path_);
  path_.clear();
  Profiler::disable();
  std::ostringstream diag;
  const bool ok = dump_profile(path, diag);
  std::fputs(diag.str().c_str(), stderr);
  return ok;
}

}  // namespace gridvc::obs
