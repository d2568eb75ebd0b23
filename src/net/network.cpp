#include "net/network.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "obs/profiler.hpp"

namespace gridvc::net {

namespace {
// Completions within this many bytes are treated as done; absorbs fluid
// floating-point residue.
constexpr double kByteEps = 0.5;

// Allocator outputs within this relative tolerance count as "rate
// unchanged": the flow's already-scheduled completion event stands. While
// a rate holds, progress is linear and the absolute ETA is invariant, so
// skipping the reschedule is exact, not an approximation.
constexpr double kRateEps = 1e-9;

bool rate_changed(BitsPerSecond old_rate, BitsPerSecond new_rate) {
  const double scale = std::max({1.0, std::abs(old_rate), std::abs(new_rate)});
  return std::abs(old_rate - new_rate) > kRateEps * scale;
}
}  // namespace

Network::Network(sim::Simulator& sim, Topology topology)
    : sim_(sim),
      topo_(std::move(topology)),
      link_bytes_(topo_.link_count(), 0.0),
      link_rate_scratch_(topo_.link_count(), 0.0),
      link_up_(topo_.link_count(), 1),
      link_down_since_(topo_.link_count(), 0.0) {
  obs::MetricsRegistry& reg = sim_.obs().registry();
  id_recomputes_ = reg.counter("gridvc_net_recomputes",
                               "Fair-share allocator passes");
  id_rate_changes_ = reg.counter("gridvc_net_rate_changes",
                                 "Flows whose allocated rate changed in a recompute");
  id_flows_started_ = reg.counter("gridvc_net_flows_started", "Flows injected");
  id_flows_completed_ = reg.counter("gridvc_net_flows_completed",
                                    "Flows that delivered their last byte");
  id_flows_aborted_ = reg.counter("gridvc_net_flows_aborted",
                                  "Flows removed before completion");
  id_flows_failed_ = reg.counter("gridvc_net_flows_failed",
                                 "Flows killed mid-flight by a link failure");
  id_active_flows_ = reg.gauge("gridvc_net_active_flows", "Flows currently in flight");
  id_link_failures_ = reg.counter("gridvc_net_link_failures", "Links taken down");
  id_link_repairs_ = reg.counter("gridvc_net_link_repairs", "Links brought back up");
  id_link_downtime_ = reg.histogram(
      "gridvc_net_link_downtime_seconds",
      {1.0, 5.0, 15.0, 60.0, 300.0, 900.0, 3600.0},
      "Outage duration per link failure/repair cycle");
  id_link_utilization_ = reg.histogram(
      "gridvc_net_link_utilization",
      {0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0},
      "Per-link allocated-rate / capacity, sampled at each recompute over "
      "links carrying traffic");
}

FlowId Network::start_flow(Path path, Bytes size, FlowOptions options,
                           CompletionFn on_complete) {
  GRIDVC_REQUIRE(!path.empty(), "flow path must not be empty");
  GRIDVC_REQUIRE(size > 0, "flow size must be positive");
  for (std::size_t i = 1; i < path.size(); ++i) {
    GRIDVC_REQUIRE(topo_.link(path[i]).from == topo_.link(path[i - 1]).to,
                   "flow path is not a connected chain");
  }

  const FlowId id = next_id_++;
  ActiveFlow f;
  f.path = std::move(path);
  f.size = size;
  f.bytes_remaining = static_cast<double>(size);
  f.cap = options.cap;
  f.guarantee = options.guarantee;
  f.fail_on_link_down = options.fail_on_link_down;
  f.start_time = sim_.now();
  f.last_update = sim_.now();
  f.on_complete = std::move(on_complete);
  flows_.emplace(id, std::move(f));
  sim_.obs().registry().add(id_flows_started_);
  sim_.obs().registry().set(id_active_flows_, static_cast<double>(flows_.size()));
  recompute();
  return id;
}

void Network::update_cap(FlowId id, BitsPerSecond cap) {
  const auto it = flows_.find(id);
  GRIDVC_REQUIRE(it != flows_.end(), "update_cap on unknown flow");
  if (it->second.cap == cap) return;
  it->second.cap = cap;
  recompute();
}

void Network::update_caps(const std::vector<std::pair<FlowId, BitsPerSecond>>& caps) {
  bool changed = false;
  for (const auto& [id, cap] : caps) {
    const auto it = flows_.find(id);
    GRIDVC_REQUIRE(it != flows_.end(), "update_caps on unknown flow");
    if (it->second.cap == cap) continue;
    it->second.cap = cap;
    changed = true;
  }
  if (changed) recompute();
}

void Network::update_guarantee(FlowId id, BitsPerSecond guarantee) {
  const auto it = flows_.find(id);
  GRIDVC_REQUIRE(it != flows_.end(), "update_guarantee on unknown flow");
  GRIDVC_REQUIRE(guarantee >= 0.0, "negative guarantee");
  if (it->second.guarantee == guarantee) return;
  it->second.guarantee = guarantee;
  recompute();
}

void Network::abort_flow(FlowId id) {
  const auto it = flows_.find(id);
  GRIDVC_REQUIRE(it != flows_.end(), "abort_flow on unknown flow");
  settle_flow(it->second, sim_.now());
  it->second.completion.cancel();
  flows_.erase(it);
  sim_.obs().registry().add(id_flows_aborted_);
  sim_.obs().registry().set(id_active_flows_, static_cast<double>(flows_.size()));
  recompute();
}

bool Network::link_up(LinkId id) const {
  GRIDVC_REQUIRE(id < link_up_.size(), "link id out of range");
  return link_up_[id] != 0;
}

void Network::set_link_state(LinkId id, bool up) {
  GRIDVC_REQUIRE(id < link_up_.size(), "link id out of range");
  if ((link_up_[id] != 0) == up) return;
  obs::MetricsRegistry& reg = sim_.obs().registry();
  const Seconds now = sim_.now();
  if (!up) {
    link_up_[id] = 0;
    link_down_since_[id] = now;
    reg.add(id_link_failures_);

    // Pull out every opted-in flow crossing the dead link. Settle first so
    // the record carries the bytes delivered before the cut; defer the
    // callbacks until after the survivors' recompute so re-entrant
    // start_flow calls see a consistent allocation.
    std::vector<std::pair<FlowRecord, CompletionFn>> failed;
    for (auto it = flows_.begin(); it != flows_.end();) {
      ActiveFlow& f = it->second;
      const bool crosses =
          std::find(f.path.begin(), f.path.end(), id) != f.path.end();
      if (!f.fail_on_link_down || !crosses) {
        ++it;
        continue;
      }
      settle_flow(f, now);
      f.completion.cancel();
      FlowRecord record;
      record.id = it->first;
      record.size = f.size;
      record.delivered = static_cast<Bytes>(
          std::max(0.0, static_cast<double>(f.size) - f.bytes_remaining));
      record.start_time = f.start_time;
      record.end_time = now;
      record.outcome = FlowOutcome::kFailed;
      failed.emplace_back(std::move(record), std::move(f.on_complete));
      it = flows_.erase(it);
    }
    if (!failed.empty()) {
      reg.add(id_flows_failed_, static_cast<double>(failed.size()));
      reg.set(id_active_flows_, static_cast<double>(flows_.size()));
    }
    sim_.obs().emit({now, obs::TraceEventType::kLinkDown, id,
                     static_cast<std::uint64_t>(failed.size()), 0.0, 0.0});
    recompute();  // survivors re-allocate around the dead link
    for (auto& [record, callback] : failed) {
      if (callback) callback(record);
    }
  } else {
    link_up_[id] = 1;
    const Seconds downtime = now - link_down_since_[id];
    reg.add(id_link_repairs_);
    reg.observe(id_link_downtime_, downtime);
    sim_.obs().emit({now, obs::TraceEventType::kLinkUp, id, 0, downtime, 0.0});
    recompute();  // stalled flows pick their rates back up
  }
}

BitsPerSecond Network::current_rate(FlowId id) const {
  const auto it = flows_.find(id);
  GRIDVC_REQUIRE(it != flows_.end(), "current_rate on unknown flow");
  return it->second.rate;
}

Bytes Network::remaining_bytes(FlowId id) {
  const auto it = flows_.find(id);
  GRIDVC_REQUIRE(it != flows_.end(), "remaining_bytes on unknown flow");
  settle_flow(it->second, sim_.now());
  return static_cast<Bytes>(std::max(0.0, it->second.bytes_remaining));
}

Bytes Network::sent_bytes(FlowId id) {
  const auto it = flows_.find(id);
  GRIDVC_REQUIRE(it != flows_.end(), "sent_bytes on unknown flow");
  settle_flow(it->second, sim_.now());
  const double sent = static_cast<double>(it->second.size) - it->second.bytes_remaining;
  return static_cast<Bytes>(std::max(0.0, sent));
}

std::vector<FlowId> Network::active_flows() const {
  std::vector<FlowId> ids;
  ids.reserve(flows_.size());
  for (const auto& [id, f] : flows_) ids.push_back(id);
  return ids;
}

Bytes Network::flow_size(FlowId id) const {
  const auto it = flows_.find(id);
  GRIDVC_REQUIRE(it != flows_.end(), "flow_size on unknown flow");
  return it->second.size;
}

double Network::link_bytes(LinkId id) {
  GRIDVC_REQUIRE(id < link_bytes_.size(), "link id out of range");
  settle();
  return link_bytes_[id];
}

void Network::settle_flow(ActiveFlow& f, Seconds now) {
  const Seconds elapsed = now - f.last_update;
  if (elapsed <= 0.0) return;
  f.last_update = now;
  const double sent = std::min(f.bytes_remaining, f.rate * elapsed / 8.0);
  if (sent <= 0.0) return;
  f.bytes_remaining -= sent;
  for (LinkId l : f.path) link_bytes_[l] += sent;
}

void Network::settle() {
  const Seconds now = sim_.now();
  for (auto& [id, f] : flows_) settle_flow(f, now);
}

void Network::recompute() {
  GRIDVC_PROF_ZONE("net.recompute");
  const Seconds now = sim_.now();

  // Borrow each flow's path rather than copying it: the flow records
  // outlive the allocator call, and the reused scratch vectors make the
  // whole pass allocation-free at steady state.
  std::vector<FlowDemandRef>& demands = demand_scratch_;
  std::vector<FlowId>& order = order_scratch_;
  demands.clear();
  order.clear();
  demands.reserve(flows_.size());
  order.reserve(flows_.size());
  for (const auto& [id, f] : flows_) {
    demands.push_back(FlowDemandRef{&f.path, f.cap, f.guarantee});
    order.push_back(id);
  }
  const std::vector<BitsPerSecond>& rates =
      max_min_allocate(topo_, demands, link_up_, alloc_ws_);

  obs::MetricsRegistry& reg = sim_.obs().registry();
  reg.add(id_recomputes_);
  std::uint64_t changed = 0;

  for (std::size_t i = 0; i < order.size(); ++i) {
    ActiveFlow& f = flows_.at(order[i]);
    const BitsPerSecond new_rate = rates[i];
    const bool this_changed = rate_changed(f.rate, new_rate);
    if (this_changed) ++changed;
    if (!this_changed) {
      // Unchanged rate: the scheduled completion (if any) is still exact.
      // A stalled flow (rate 0) stays stalled with no event either way.
      if (f.completion.pending() || f.rate <= 0.0) continue;
    }
    settle_flow(f, now);  // progress so far happened at the old rate
    f.rate = new_rate;
    f.completion.cancel();
    if (f.bytes_remaining <= kByteEps) {
      // Finished (or within fluid rounding of finished): complete now.
      const FlowId id = order[i];
      f.completion = sim_.schedule_in(0.0, [this, id] { complete_flow(id); });
    } else if (f.rate > 0.0) {
      const Seconds eta = f.bytes_remaining * 8.0 / f.rate;
      const FlowId id = order[i];
      f.completion = sim_.schedule_in(eta, [this, id] { complete_flow(id); });
    }
    // rate == 0: the flow is stalled; it will be rescheduled by the next
    // recompute that gives it bandwidth.
  }

  if (changed > 0) reg.add(id_rate_changes_, changed);

  // Utilization sample: the allocation just computed is exact until the
  // next recompute, so one sample per pass per loaded link captures the
  // full utilization trajectory.
  for (std::size_t i = 0; i < order.size(); ++i) {
    const ActiveFlow& f = flows_.at(order[i]);
    for (LinkId l : f.path) link_rate_scratch_[l] += rates[i];
  }
  double peak_utilization = 0.0;
  for (LinkId l = 0; l < static_cast<LinkId>(link_rate_scratch_.size()); ++l) {
    if (link_rate_scratch_[l] <= 0.0) continue;
    const BitsPerSecond capacity = topo_.link(l).capacity;
    if (capacity > 0.0) {
      const double u = link_rate_scratch_[l] / capacity;
      reg.observe(id_link_utilization_, u);
      peak_utilization = std::max(peak_utilization, u);
    }
    link_rate_scratch_[l] = 0.0;
  }

  sim_.obs().emit({sim_.now(), obs::TraceEventType::kNetRecompute, 0, changed,
                   static_cast<double>(flows_.size()), peak_utilization});
}

void Network::complete_flow(FlowId id) {
  const auto it = flows_.find(id);
  if (it == flows_.end()) return;  // aborted concurrently
  const Seconds now = sim_.now();
  settle_flow(it->second, now);
  if (it->second.bytes_remaining > kByteEps) {
    // Fluid rounding left a residue at the scheduled ETA; drain it at the
    // current rate rather than dropping the flow on the floor.
    ActiveFlow& f = it->second;
    if (f.rate <= 0.0) return;  // stalled; the next recompute reschedules it
    const Seconds eta = f.bytes_remaining * 8.0 / f.rate;
    if (now + eta > now) {
      f.completion = sim_.schedule_in(eta, [this, id] { complete_flow(id); });
      return;
    }
    // The residue drains faster than the clock resolves at `now`: a
    // reschedule would land on this instant, settle nothing, and repeat
    // forever. Deliver the residue here.
    for (LinkId l : f.path) link_bytes_[l] += f.bytes_remaining;
    f.bytes_remaining = 0.0;
  }
  FlowRecord record;
  record.id = id;
  record.size = it->second.size;
  record.delivered = it->second.size;
  record.start_time = it->second.start_time;
  record.end_time = sim_.now();
  CompletionFn callback = std::move(it->second.on_complete);
  flows_.erase(it);
  sim_.obs().registry().add(id_flows_completed_);
  sim_.obs().registry().set(id_active_flows_, static_cast<double>(flows_.size()));
  recompute();
  if (callback) callback(record);
}

}  // namespace gridvc::net
