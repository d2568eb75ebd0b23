#include "workload/scenarios.hpp"

#include <algorithm>
#include <memory>
#include <optional>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "gridftp/server.hpp"
#include "gridftp/transfer_engine.hpp"
#include "gridftp/transfer_service.hpp"
#include "gridftp/usage_stats.hpp"
#include "net/network.hpp"
#include "recovery/fault_schedule.hpp"
#include "sim/simulator.hpp"
#include "vc/idc.hpp"
#include "workload/faults.hpp"
#include "workload/testbed.hpp"

namespace gridvc::workload {

namespace {

using gridftp::IoMode;
using gridftp::Server;
using gridftp::ServerConfig;
using gridftp::TransferEngine;
using gridftp::TransferEngineConfig;
using gridftp::TransferSpec;
using gridftp::TransferType;

/// A time-varying aggregate of general-purpose flows on one directed
/// path: a never-completing flow whose cap is resampled periodically
/// around `mean_rate`. Far cheaper than per-flow simulation of mice, and
/// sufficient for the SNMP byte accounting of Tables X-XIII.
class AggregateCrossTraffic {
 public:
  AggregateCrossTraffic(net::Network& network, net::Path path, BitsPerSecond mean_rate,
                        Seconds resample_period, Rng rng)
      : network_(network), mean_rate_(mean_rate), rng_(rng) {
    net::FlowOptions opts;
    opts.cap = sample_rate();
    flow_ = network_.start_flow(std::move(path), static_cast<Bytes>(1) << 62, opts, nullptr);
    tick_ = network_.simulator().schedule_periodic(
        resample_period, resample_period, [this] {
          network_.update_cap(flow_, sample_rate());
          return true;
        });
  }

  ~AggregateCrossTraffic() {
    tick_.cancel();
    network_.abort_flow(flow_);
  }

 private:
  BitsPerSecond sample_rate() {
    // Lognormal with mean mean_rate_ and ~50% coefficient of variation.
    const double sigma = 0.47;
    return mean_rate_ * rng_.lognormal(-sigma * sigma / 2.0, sigma);
  }

  net::Network& network_;
  BitsPerSecond mean_rate_;
  Rng rng_;
  net::FlowId flow_ = 0;
  sim::EventHandle tick_;
};

}  // namespace

NerscOrnlResult run_nersc_ornl_tests(const NerscOrnlConfig& config, std::uint64_t seed) {
  GRIDVC_REQUIRE(config.transfer_count > 0, "no test transfers requested");
  GRIDVC_REQUIRE(!config.launch_hours.empty(), "no launch hours configured");

  Rng root(seed);
  Testbed tb = build_esnet_testbed();
  sim::Simulator sim;
  sim.obs().set_trace_sink(config.trace_sink);
  net::Network network(sim, tb.topo);

  ServerConfig nersc_cfg;
  nersc_cfg.name = "nersc-dtn";
  nersc_cfg.nic_rate = config.nersc_nic;
  Server nersc(nersc_cfg);

  ServerConfig ornl_cfg;
  ornl_cfg.name = "ornl-dtn";
  ornl_cfg.nic_rate = config.ornl_nic;
  Server ornl(ornl_cfg);

  // Background traffic partner (generously provisioned so contention is
  // NERSC-side only).
  ServerConfig anl_cfg;
  anl_cfg.name = "anl-dtn";
  anl_cfg.nic_rate = gbps(40.0);
  Server anl(anl_cfg);

  gridftp::UsageStatsCollector collector;
  TransferEngineConfig engine_cfg;
  engine_cfg.tcp.stream_buffer = 16 * MiB;
  engine_cfg.tcp.loss_probability = 0.01;
  engine_cfg.server_noise_sigma = config.server_noise_sigma;
  TransferEngine engine(network, collector, engine_cfg, root.fork(1));

  const net::Path fwd_path = tb.path(tb.nersc, tb.ornl);
  const net::Path rev_path = tb.path(tb.ornl, tb.nersc);
  const Seconds path_rtt = tb.rtt(tb.nersc, tb.ornl);

  // Monitored backbone interfaces: the first five router->router links
  // past the NERSC provider edge ("SNMP data for 2 out of the 7 routers
  // … were unavailable").
  auto fwd_backbone = tb.backbone_links(tb.nersc, tb.ornl);
  auto rev_backbone = tb.backbone_links(tb.ornl, tb.nersc);
  GRIDVC_REQUIRE(fwd_backbone.size() >= 6 && rev_backbone.size() >= 6,
                 "unexpected testbed path shape");
  std::vector<net::LinkId> fwd_links(fwd_backbone.begin() + 1, fwd_backbone.begin() + 6);
  // The reverse path lists links ORNL->NERSC; take the mirror five and
  // flip their order so index k matches forward router rt(k+1).
  std::vector<net::LinkId> rev_links(rev_backbone.begin() + 1, rev_backbone.begin() + 6);
  std::reverse(rev_links.begin(), rev_links.end());

  std::vector<net::LinkId> monitored = fwd_links;
  monitored.insert(monitored.end(), rev_links.begin(), rev_links.end());
  net::SnmpCollector snmp(network, monitored, config.snmp_bin_seconds);

  // General-purpose cross traffic in both directions.
  Rng cross_rng = root.fork(2);
  AggregateCrossTraffic cross_fwd(network, fwd_path, config.cross_traffic_mean,
                                  config.cross_traffic_resample, cross_rng.fork(1));
  AggregateCrossTraffic cross_rev(network, rev_path, config.cross_traffic_mean,
                                  config.cross_traffic_resample, cross_rng.fork(2));

  // Background transfers keeping the NERSC DTN busy at random times.
  const net::Path bg_path = tb.path(tb.nersc, tb.anl);
  const Seconds bg_rtt = tb.rtt(tb.nersc, tb.anl);
  Rng bg_rng = root.fork(3);
  const Seconds horizon = static_cast<double>(config.days) * kDay;
  // Stack-allocated self-recursion: the simulation runs and drains inside
  // this scope, so the callbacks' references stay valid, and no
  // shared_ptr cycle is created (the old idiom leaked every chain). The
  // events hold references to these named bodies, which keeps each
  // closure within the simulator's inline callback capacity.
  std::function<void()> schedule_background;
  const auto launch_background = [&] {
    TransferSpec spec;
    spec.src = {&nersc, IoMode::kMemory};
    spec.dst = {&anl, IoMode::kMemory};
    spec.path = bg_path;
    spec.rtt = bg_rtt;
    spec.size = static_cast<Bytes>(std::max(
        1.0, bg_rng.exponential(static_cast<double>(config.background_mean_size))));
    spec.streams = 4;
    spec.remote_host = "background";
    engine.submit(spec);
    schedule_background();
  };
  schedule_background = [&] {
    const Seconds next = sim.now() + bg_rng.exponential(config.background_mean_interarrival);
    if (next >= horizon) return;
    sim.schedule_at(next, std::ref(launch_background));
  };
  schedule_background();

  // The 145 test transfers: spread over `days` days at the launch hours,
  // heavier slots first (25 slots of 3 + 35 of 2 in the default config).
  NerscOrnlResult result;
  Rng test_rng = root.fork(4);
  const std::size_t slots = config.days * config.launch_hours.size();
  std::size_t remaining = config.transfer_count;
  std::size_t slot_index = 0;
  const auto launch_test = [&](bool retrieve, Bytes test_size) {
    TransferSpec spec;
    if (retrieve) {  // NERSC -> ORNL
      spec.src = {&nersc, IoMode::kDiskRead};
      spec.dst = {&ornl, IoMode::kDiskWrite};
      spec.path = fwd_path;
      spec.type = TransferType::kRetrieve;
    } else {  // ORNL -> NERSC
      spec.src = {&ornl, IoMode::kDiskRead};
      spec.dst = {&nersc, IoMode::kDiskWrite};
      spec.path = rev_path;
      spec.type = TransferType::kStore;
    }
    spec.rtt = path_rtt;
    spec.size = test_size;
    spec.streams = config.streams;
    spec.stripes = config.stripes;
    spec.remote_host = "ornl-dtn";
    engine.submit(spec, [&result](const gridftp::TransferRecord& r) {
      result.log.push_back(r);
    });
  };
  for (std::size_t day = 0; day < config.days && remaining > 0; ++day) {
    for (int hour : config.launch_hours) {
      if (remaining == 0) break;
      const std::size_t base = config.transfer_count / slots;
      const std::size_t extra = (slot_index < config.transfer_count % slots) ? 1 : 0;
      const std::size_t count = std::min(remaining, std::max<std::size_t>(1, base + extra));
      ++slot_index;
      for (std::size_t k = 0; k < count; ++k) {
        const Seconds when = static_cast<double>(day) * kDay +
                             static_cast<double>(hour) * kHour +
                             static_cast<double>(k) * 600.0;
        const bool retrieve = test_rng.bernoulli(config.retrieve_fraction);
        const Bytes test_size = static_cast<Bytes>(
            static_cast<double>(config.transfer_size) *
            test_rng.uniform(1.0 - config.size_spread, 1.0 + config.size_spread));
        sim.schedule_at(when, [&launch_test, retrieve, test_size] {
          launch_test(retrieve, test_size);
        });
        --remaining;
      }
    }
  }

  sim.run_until(horizon + kDay);  // margin for the last transfers to drain
  snmp.stop();

  for (std::size_t k = 0; k < fwd_links.size(); ++k) {
    result.router_names.push_back("rt" + std::to_string(k + 1));
    result.forward_series.push_back(snmp.series(fwd_links[k]));
    result.reverse_series.push_back(snmp.series(rev_links[k]));
  }
  gridftp::sort_by_start(result.log);
  result.metrics = sim.obs().registry().snapshot();
  return result;
}

AnlNerscResult run_anl_nersc_tests(const AnlNerscConfig& config, std::uint64_t seed) {
  Rng root(seed);
  Testbed tb = build_esnet_testbed();
  sim::Simulator sim;
  sim.obs().set_trace_sink(config.trace_sink);
  net::Network network(sim, tb.topo);

  ServerConfig nersc_cfg;
  nersc_cfg.name = "nersc-dtn";
  nersc_cfg.nic_rate = config.nersc_nic;
  nersc_cfg.disk_read_rate = config.nersc_disk_read;
  nersc_cfg.disk_write_rate = config.nersc_disk_write;
  Server nersc(nersc_cfg);

  ServerConfig anl_cfg;
  anl_cfg.name = "anl-dtn";
  anl_cfg.nic_rate = config.anl_nic;
  anl_cfg.disk_read_rate = config.anl_disk_read;
  anl_cfg.disk_write_rate = config.anl_disk_write;
  Server anl(anl_cfg);

  // Partner for background transfers; generous so only NERSC contends.
  ServerConfig ornl_cfg;
  ornl_cfg.name = "ornl-dtn";
  ornl_cfg.nic_rate = gbps(40.0);
  Server ornl(ornl_cfg);

  gridftp::UsageStatsCollector collector;
  TransferEngineConfig engine_cfg;
  engine_cfg.tcp.stream_buffer = 16 * MiB;
  engine_cfg.tcp.loss_probability = 0.01;
  engine_cfg.server_noise_sigma = config.server_noise_sigma;
  TransferEngine engine(network, collector, engine_cfg, root.fork(1));

  const net::Path test_path = tb.path(tb.anl, tb.nersc);  // ANL -> NERSC
  const Seconds test_rtt = tb.rtt(tb.anl, tb.nersc);
  const net::Path bg_path = tb.path(tb.nersc, tb.ornl);
  const Seconds bg_rtt = tb.rtt(tb.nersc, tb.ornl);
  const Seconds horizon = static_cast<double>(config.days) * kDay;

  // Slow drift of the NERSC DTN's deliverable capacity (see config).
  Rng drift_rng = root.fork(7);
  if (config.capacity_drift_sigma > 0.0 && config.capacity_drift_period > 0.0) {
    sim.schedule_periodic(config.capacity_drift_period, config.capacity_drift_period,
                          [&, sigma = config.capacity_drift_sigma] {
                            nersc.set_nic_rate(config.nersc_nic *
                                               drift_rng.lognormal(-sigma * sigma / 2.0,
                                                                   sigma));
                            return true;
                          });
  }

  // Background load at the NERSC DTN, with occasional bursts of several
  // simultaneous starts (Fig 7's high-concurrency intervals).
  Rng bg_rng = root.fork(2);
  // Stack-allocated self-recursion; see run_nersc_ornl_scenario for why
  // this must not be a shared_ptr cycle, and why the events hold
  // references to named bodies.
  std::function<void()> schedule_background;
  const auto launch_background = [&] {
    int count = 1;
    if (bg_rng.bernoulli(config.background_burst_probability)) {
      count = static_cast<int>(
          bg_rng.uniform_int(2, std::max(2, config.background_burst_max)));
    }
    for (int i = 0; i < count; ++i) {
      TransferSpec spec;
      spec.src = {&nersc, bg_rng.bernoulli(0.5) ? IoMode::kDiskRead : IoMode::kMemory};
      spec.dst = {&ornl, IoMode::kMemory};
      spec.path = bg_path;
      spec.rtt = bg_rtt;
      spec.size = static_cast<Bytes>(std::max(
          1.0, bg_rng.exponential(static_cast<double>(config.background_mean_size))));
      spec.streams = 4;
      spec.remote_host = "background";
      engine.submit(spec);
    }
    schedule_background();
  };
  schedule_background = [&] {
    const Seconds next = sim.now() + bg_rng.exponential(config.background_mean_interarrival);
    if (next >= horizon) return;
    sim.schedule_at(next, std::ref(launch_background));
  };
  schedule_background();

  // The 334 tests, uniformly spread over the horizon in a shuffled type
  // order.
  std::vector<AnlTestType> plan;
  plan.insert(plan.end(), config.mem_mem, AnlTestType::kMemMem);
  plan.insert(plan.end(), config.mem_disk, AnlTestType::kMemDisk);
  plan.insert(plan.end(), config.disk_mem, AnlTestType::kDiskMem);
  plan.insert(plan.end(), config.disk_disk, AnlTestType::kDiskDisk);
  GRIDVC_REQUIRE(!plan.empty(), "no ANL-NERSC tests requested");
  Rng plan_rng = root.fork(3);
  for (std::size_t i = plan.size(); i > 1; --i) {  // Fisher-Yates
    const std::size_t j =
        static_cast<std::size_t>(plan_rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
    std::swap(plan[i - 1], plan[j]);
  }

  struct Tagged {
    AnlTestType type;
    gridftp::TransferRecord record;
  };
  auto tagged = std::make_shared<std::vector<Tagged>>();
  const auto launch_test = [&](AnlTestType type) {
    TransferSpec spec;
    const bool src_disk =
        type == AnlTestType::kDiskMem || type == AnlTestType::kDiskDisk;
    const bool dst_disk =
        type == AnlTestType::kMemDisk || type == AnlTestType::kDiskDisk;
    spec.src = {&anl, src_disk ? IoMode::kDiskRead : IoMode::kMemory};
    spec.dst = {&nersc, dst_disk ? IoMode::kDiskWrite : IoMode::kMemory};
    spec.path = test_path;
    spec.rtt = test_rtt;
    spec.size = config.transfer_size;
    spec.streams = config.streams;
    spec.type = TransferType::kStore;  // file arrives at NERSC
    spec.remote_host = "anl-test";
    engine.submit(spec, [tagged, type](const gridftp::TransferRecord& r) {
      tagged->push_back(Tagged{type, r});
    });
  };
  const Seconds spacing = horizon / static_cast<double>(plan.size() + 1);
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const Seconds when =
        spacing * static_cast<double>(i + 1) + plan_rng.uniform(0.0, spacing * 0.5);
    const AnlTestType type = plan[i];
    sim.schedule_at(when, [&launch_test, type] { launch_test(type); });
  }

  sim.run_until(horizon + kDay);

  // Assemble the full NERSC-side log (tests + background) and locate each
  // test class inside it.
  AnlNerscResult result;
  result.all_log = collector.take_log();
  gridftp::sort_by_start(result.all_log);

  const auto find_index = [&](const gridftp::TransferRecord& r) -> std::size_t {
    for (std::size_t i = 0; i < result.all_log.size(); ++i) {
      const auto& c = result.all_log[i];
      if (c.start_time == r.start_time && c.size == r.size &&
          c.duration == r.duration && c.remote_host == r.remote_host) {
        return i;
      }
    }
    throw NotFoundError("test transfer missing from the collected log");
  };
  for (const auto& t : *tagged) {
    const std::size_t idx = find_index(t.record);
    switch (t.type) {
      case AnlTestType::kMemMem: result.mem_mem.push_back(idx); break;
      case AnlTestType::kMemDisk: result.mem_disk.push_back(idx); break;
      case AnlTestType::kDiskMem: result.disk_mem.push_back(idx); break;
      case AnlTestType::kDiskDisk: result.disk_disk.push_back(idx); break;
    }
  }
  result.metrics = sim.obs().registry().snapshot();
  return result;
}

ManagedVcResult run_managed_vc(const ManagedVcConfig& config, std::uint64_t seed) {
  GRIDVC_REQUIRE(config.task_count > 0, "no tasks requested");
  GRIDVC_REQUIRE(config.files_per_task > 0, "tasks need at least one file");
  GRIDVC_REQUIRE(config.file_size > 0, "file size must be positive");

  Rng root(seed);
  Testbed tb = build_esnet_testbed();
  sim::Simulator sim;
  sim.obs().set_trace_sink(config.trace_sink);
  net::Network network(sim, tb.topo);

  ServerConfig sc;
  sc.name = "ncar-dtn";
  sc.nic_rate = gbps(5.0);
  Server ncar(sc);
  sc.name = "nics-dtn";
  Server nics(sc);

  gridftp::UsageStatsCollector collector;
  TransferEngineConfig engine_cfg;
  engine_cfg.tcp.stream_buffer = 64 * MiB;
  engine_cfg.server_noise_sigma = 0.15;
  engine_cfg.failure_probability = config.failure_probability;
  TransferEngine engine(network, collector, engine_cfg, root.fork(1));

  gridftp::TransferServiceConfig service_cfg;
  service_cfg.max_active_tasks = 2;
  service_cfg.per_task_concurrency = 2;
  gridftp::TransferService service(sim, engine, service_cfg);

  vc::IdcConfig idc_cfg;
  idc_cfg.mode = config.immediate_signaling ? vc::SignalingMode::kImmediate
                                            : vc::SignalingMode::kBatchedAutomatic;
  vc::Idc idc(sim, tb.topo, idc_cfg);

  // A standing best-effort hog on the same path makes the circuits worth
  // requesting (and keeps the fair-share allocator busy).
  const net::Path path = tb.path(tb.ncar, tb.nics);
  network.start_flow(path, static_cast<Bytes>(1) << 55, {}, nullptr);

  TransferSpec tmpl;
  tmpl.src = {&ncar, IoMode::kDiskRead};
  tmpl.dst = {&nics, IoMode::kMemory};
  tmpl.path = path;
  tmpl.rtt = tb.rtt(tb.ncar, tb.nics);
  tmpl.streams = config.streams;
  tmpl.remote_host = "nics-dtn";

  ManagedVcResult result;
  const Bytes task_bytes =
      config.file_size * static_cast<Bytes>(config.files_per_task);

  const auto submit_task = [&](const std::string& label, BitsPerSecond guarantee,
                               std::optional<std::uint64_t> circuit_id) {
    const std::vector<Bytes> files(config.files_per_task, config.file_size);
    TransferSpec spec = tmpl;
    spec.guarantee = guarantee;
    return service.submit(label, files, spec,
                          [&result, &idc, circuit_id](const gridftp::TaskStatus& s) {
                            if (s.state == gridftp::TaskState::kSucceeded) {
                              ++result.tasks_completed;
                              result.transfers_completed += s.files_done;
                            }
                            if (circuit_id) idc.release_now(*circuit_id);
                          });
  };

  // The scheduled events hold a reference to this body (and their own
  // label), which keeps each closure within the inline callback capacity.
  const auto launch_task = [&](const std::string& label) {
      // Rate/duration estimation per §VII: size the circuit to the
      // application's own ceiling, padded for contention and retries.
      const Seconds estimated =
          transfer_time(task_bytes, config.circuit_rate) * 1.5 + 120.0;

      const auto on_active = [&, label](const vc::Circuit& c) {
        const std::uint64_t task = submit_task(label, c.rate_at(sim.now()), c.id);
        // A shaped (malleable) grant steps its rate over time: re-pin the
        // task's guarantee at each profile boundary, dropping to best
        // effort once the profile runs out.
        for (const vc::RateSegment& s : c.profile) {
          if (s.start > sim.now()) {
            sim.schedule_at(s.start, [&service, task, rate = s.rate] {
              service.set_task_guarantee(task, rate);
            });
          }
        }
        if (!c.profile.empty()) {
          sim.schedule_at(c.profile.back().end, [&service, task] {
            service.set_task_guarantee(task, 0.0);
          });
        }
      };
      const auto granted = [&] {
        if (!config.malleable_reservations) {
          return idc.request_immediate(tb.ncar, tb.nics, config.circuit_rate,
                                       estimated, on_active);
        }
        vc::ReservationRequest req;
        req.src = tb.ncar;
        req.dst = tb.nics;
        req.bandwidth = config.circuit_rate;
        req.start_time = sim.now();
        req.end_time = idc.predicted_activation(sim.now(), sim.now()) + estimated;
        req.description = label;
        req.malleable = true;
        return idc.create_reservation(req, on_active);
      }();
      if (granted.accepted()) {
        ++result.circuits_granted;
        return;
      }
      ++result.circuits_rejected;

      // One retry at half rate, flagged is_retry so the blocked demand is
      // counted once in the IDC's blocking stats.
      vc::ReservationRequest retry;
      retry.src = tb.ncar;
      retry.dst = tb.nics;
      retry.bandwidth = config.circuit_rate / 2.0;
      retry.start_time = sim.now();
      retry.end_time = idc.predicted_activation(sim.now(), sim.now()) + estimated;
      retry.description = label + " (retry)";
      retry.is_retry = true;
      retry.malleable = config.malleable_reservations;
      ++result.circuit_retries;
      const auto retried = idc.create_reservation(retry, on_active);
      if (retried.accepted()) {
        ++result.circuits_granted;
      } else {
        // Hybrid reality: circuits are an optimization, not a gate.
        submit_task(label, 0.0, std::nullopt);
      }
  };
  for (std::size_t k = 0; k < config.task_count; ++k) {
    const Seconds when = static_cast<double>(k) * config.task_interarrival;
    sim.schedule_at(when, [&launch_task, label = "dataset-" + std::to_string(k + 1)] {
      launch_task(label);
    });
  }

  const Seconds horizon =
      static_cast<double>(config.task_count) * config.task_interarrival + 8.0 * kHour;
  sim.run_until(horizon);

  result.end_time = sim.now();
  result.circuits_shaped = static_cast<std::size_t>(idc.stats().shaped);
  result.blocking_probability = idc.stats().blocking_probability();
  result.metrics = sim.obs().registry().snapshot();
  return result;
}

FaultyWanResult run_faulty_wan(const FaultyWanConfig& config, std::uint64_t seed) {
  GRIDVC_REQUIRE(config.transfer_count > 0, "no transfers requested");
  GRIDVC_REQUIRE(config.transfer_size > 0, "transfer size must be positive");

  Rng root(seed);
  sim::Simulator sim;
  sim.obs().set_trace_sink(config.trace_sink);

  const TwoSpanWan wan = build_two_span_wan();
  net::Network network(sim, wan.topo);

  ServerConfig sc;
  sc.name = "src-dtn";
  sc.id = 1;
  sc.nic_rate = gbps(10);
  Server source(sc);
  sc.name = "dst-dtn";
  sc.id = 2;
  Server sink(sc);

  gridftp::UsageStatsCollector collector;
  TransferEngineConfig engine_cfg;
  engine_cfg.tcp.stream_buffer = 64 * MiB;
  engine_cfg.server_noise_sigma = 0.1;
  engine_cfg.backoff = gridftp::BackoffPolicy::exponential(5.0, 2.0, 60.0, 0.1);
  engine_cfg.max_aborts = config.max_aborts;
  TransferEngine engine(network, collector, engine_cfg, root.fork(1));

  vc::IdcConfig idc_cfg;
  idc_cfg.mode = vc::SignalingMode::kImmediate;
  vc::Idc idc(sim, wan.topo, idc_cfg);

  const Seconds rtt = 2.0 * wan.topo.path_delay(wan.data_path);

  FaultyWanResult result;

  // Per-transfer wiring between circuit lifecycle and engine guarantee.
  struct Slot {
    std::uint64_t transfer_id = 0;
    bool submitted = false;
    std::optional<std::uint64_t> circuit_id;
  };
  std::vector<Slot> slots(config.transfer_count);

  const auto submit_transfer = [&](std::size_t k, BitsPerSecond guarantee) {
    Slot& slot = slots[k];
    TransferSpec spec;
    spec.src = {&source, IoMode::kDiskRead};
    spec.dst = {&sink, IoMode::kDiskWrite};
    spec.path = wan.data_path;
    spec.rtt = rtt;
    spec.size = config.transfer_size;
    spec.streams = config.streams;
    spec.remote_host = "dst-dtn";
    spec.guarantee = guarantee;
    slot.submitted = true;
    slot.transfer_id = engine.submit(spec, [&result, &idc, &slot](
                                               const gridftp::TransferRecord& r) {
      if (r.failed) {
        ++result.transfers_failed;
      } else {
        ++result.transfers_completed;
      }
      if (slot.circuit_id) idc.release_now(*slot.circuit_id);
    });
  };

  const Seconds estimated =
      transfer_time(config.transfer_size, config.circuit_rate) * 2.0 + 240.0;
  // The scheduled events hold a reference to this body, which keeps each
  // closure within the inline callback capacity.
  const auto launch_transfer = [&](std::size_t k) {
      // First activation launches the transfer under the guarantee;
      // re-activations (post-failure re-signals) restore it.
      const auto on_active = [&, k](const vc::Circuit& c) {
        Slot& slot = slots[k];
        if (!slot.submitted) {
          submit_transfer(k, c.request.bandwidth);
        } else {
          engine.set_guarantee(slot.transfer_id, c.request.bandwidth);
        }
      };
      // The guarantee is gone *now*: degrade to best-effort while the IDC
      // tries to re-home the circuit.
      const auto on_failure = [&, k](const vc::Circuit&) {
        Slot& slot = slots[k];
        if (slot.submitted) engine.set_guarantee(slot.transfer_id, 0.0);
      };
      const auto granted = idc.request_immediate(wan.src, wan.dst, config.circuit_rate,
                                                 estimated, on_active, nullptr,
                                                 on_failure);
      if (granted.accepted()) {
        ++result.circuits_granted;
        slots[k].circuit_id = granted.circuit_id;
      } else {
        // Circuits are an optimization, not a gate: run best-effort.
        submit_transfer(k, 0.0);
      }
  };
  for (std::size_t k = 0; k < config.transfer_count; ++k) {
    const Seconds when = static_cast<double>(k) * config.transfer_interarrival;
    sim.schedule_at(when, [&launch_transfer, k] { launch_transfer(k); });
  }

  // One schedule holds every fault: link windows on the primary span's
  // forward links (so the backup span is always there to re-signal to),
  // optional source-DTN crash windows and IDC control-plane outages. Each
  // kind draws from its own stream, so enabling one never shifts another.
  recovery::FaultScheduleSpec spec;
  spec.link_count = wan.primary_span.size();
  spec.server_count = 1;  // the source DTN
  spec.idc = true;
  spec.start_after = config.fault_start_after;
  spec.horizon = config.fault_horizon;
  spec.link_mtbf = config.link_mtbf;
  spec.link_mttr = config.link_mttr;
  spec.server_mtbf = config.server_mtbf;
  spec.server_mttr = config.server_mttr;
  spec.idc_mtbf = config.idc_outage_mtbf;
  spec.idc_mttr = config.idc_outage_mttr;
  const auto injector = inject_faults(
      sim, recovery::generate_fault_schedule(spec, seed),
      {network, idc, engine, wan.primary_span, {&source}},
      [&result](recovery::FaultTargetKind kind, std::uint64_t) {
        if (kind == recovery::FaultTargetKind::kLink) ++result.link_failures;
      },
      [&result](recovery::FaultTargetKind kind, std::uint64_t) {
        if (kind == recovery::FaultTargetKind::kLink) ++result.link_repairs;
      });

  sim.run();

  result.aborted_attempts = engine.stats().aborted_attempts;
  result.circuits_failed = idc.stats().failed;
  result.circuits_resignaled = idc.stats().resignaled;
  result.server_crashes = engine.stats().server_crashes;
  result.idc_outages = idc.stats().outages;
  result.outage_rejections = idc.stats().rejected_outage;
  result.end_time = sim.now();
  result.metrics = sim.obs().registry().snapshot();
  return result;
}

}  // namespace gridvc::workload
