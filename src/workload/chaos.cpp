#include "workload/chaos.hpp"

#include <array>
#include <iomanip>
#include <map>
#include <optional>
#include <sstream>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "exec/thread_pool.hpp"
#include "frontend/admission.hpp"
#include "obs/flight_recorder.hpp"
#include "gridftp/server.hpp"
#include "gridftp/transfer_engine.hpp"
#include "gridftp/usage_stats.hpp"
#include "net/network.hpp"
#include "recovery/journal.hpp"
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
using gridftp::TransferService;
using gridftp::TransferServiceConfig;
using gridftp::TransferSpec;
using obs::TraceEvent;
using obs::TraceEventType;
using recovery::FaultTargetKind;

/// Audits the trace stream while optionally teeing it to an external
/// sink. Everything here is keyed by integer ids, so iteration order —
/// and therefore the violation report — is deterministic.
class AuditTraceSink final : public obs::TraceSink {
 public:
  explicit AuditTraceSink(obs::TraceSink* tee) : tee_(tee) {}

  void emit(const TraceEvent& event) override {
    ++total_;
    ++counts_[static_cast<std::size_t>(event.type)];
    switch (event.type) {
      case TraceEventType::kTransferSubmitted: {
        Track& t = transfers_[event.id];
        t.size = event.value;
        break;
      }
      case TraceEventType::kTransferFinished: {
        Track& t = transfers_[event.id];
        t.finished = true;
        t.finished_size = event.value2;
        t.unresolved_abort = false;
        break;
      }
      case TraceEventType::kTransferAborted: {
        Track& t = transfers_[event.id];
        ++t.aborts;
        if (event.value2 != 0.0) {
          t.failed = true;
          t.unresolved_abort = false;
        } else {
          t.unresolved_abort = true;
        }
        break;
      }
      case TraceEventType::kTransferRetry: {
        transfers_[event.id].unresolved_abort = false;
        break;
      }
      default:
        break;
    }
    if (tee_ != nullptr) tee_->emit(event);
  }

  struct Track {
    double size = 0.0;
    double finished_size = 0.0;
    std::uint64_t aborts = 0;
    bool finished = false;
    bool failed = false;  ///< terminal abort recorded
    /// An abort with no retry / finish / terminal record after it yet.
    bool unresolved_abort = false;
  };

  std::uint64_t total() const { return total_; }
  std::uint64_t count(TraceEventType type) const {
    return counts_[static_cast<std::size_t>(type)];
  }
  const std::map<std::uint64_t, Track>& transfers() const { return transfers_; }

 private:
  obs::TraceSink* tee_;
  std::uint64_t total_ = 0;
  std::array<std::uint64_t, obs::kTraceEventTypeCount> counts_{};
  std::map<std::uint64_t, Track> transfers_;
};

}  // namespace

ChaosResult run_chaos(const ChaosConfig& config, std::uint64_t seed) {
  GRIDVC_REQUIRE(config.task_count > 0, "no tasks requested");
  GRIDVC_REQUIRE(config.files_per_task > 0, "tasks need at least one file");
  GRIDVC_REQUIRE(config.file_size > 0, "file size must be positive");
  GRIDVC_REQUIRE(config.tenants >= 1, "the front-end needs at least one tenant");

  ChaosResult result;

  Rng root(seed);
  sim::Simulator sim;
  AuditTraceSink audit(config.trace_sink);
  sim.obs().set_trace_sink(&audit);

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

  recovery::Journal idc_journal;
  vc::IdcConfig idc_cfg;
  idc_cfg.mode = vc::SignalingMode::kImmediate;
  idc_cfg.journal = &idc_journal;
  vc::Idc idc(sim, wan.topo, idc_cfg);

  recovery::Journal service_journal;
  TransferServiceConfig service_cfg;
  service_cfg.max_active_tasks = 2;
  service_cfg.per_task_concurrency = 2;
  service_cfg.journal = &service_journal;
  TransferService service(sim, engine, service_cfg);

  const Bytes task_bytes = config.file_size * config.files_per_task;

  // All waiting happens in the tenant queues: the DRR dispatcher only
  // releases work into free active slots, so the service queue stays empty.
  frontend::FrontEndConfig fcfg;
  for (std::size_t t = 0; t < config.tenants; ++t) {
    frontend::TenantConfig tc;
    tc.name = "tenant" + std::to_string(t);
    tc.weight = static_cast<double>(t + 1);
    tc.queue_limit = config.queue_limit;
    tc.policy = config.overload_policy;
    // The heaviest tenant runs against a one-task queued-bytes quota so
    // every battery exercises the rejection path deterministically.
    if (t + 1 == config.tenants && config.tenants > 1) {
      tc.max_queued_bytes = task_bytes;
    }
    fcfg.tenants.push_back(tc);
  }
  frontend::FrontEnd front(sim, service, fcfg);
  std::vector<std::uint64_t> front_sessions;
  for (std::size_t t = 0; t < config.tenants; ++t) {
    front_sessions.push_back(front.connect("tenant" + std::to_string(t)));
  }

  TransferSpec tmpl;
  tmpl.src = {&source, IoMode::kDiskRead};
  tmpl.dst = {&sink, IoMode::kDiskWrite};
  tmpl.path = wan.data_path;
  tmpl.rtt = 2.0 * wan.topo.path_delay(wan.data_path);
  tmpl.streams = config.streams;
  tmpl.remote_host = "dst-dtn";

  const std::vector<Bytes> files(config.files_per_task, config.file_size);
  const Seconds estimated = transfer_time(task_bytes, config.circuit_rate) * 2.0 + 600.0;

  // Per-task submission: try for a circuit; run best-effort when the
  // control plane says no (outage fail-fast included). The ticket's
  // on_done releases the circuit whether the task finishes (recovered
  // after a service crash or not) or the ticket is shed undispatched; a
  // refused submission releases it at once.
  std::vector<std::uint8_t> launched(config.task_count, 0);
  std::map<std::uint64_t, std::uint64_t> ticket_hooks;  // ticket -> on_done calls
  for (std::size_t k = 0; k < config.task_count; ++k) {
    const Seconds when = static_cast<double>(k) * config.task_interarrival;
    sim.schedule_at(when, [&, k] {
      const std::string label = "chaos-task-" + std::to_string(k);
      frontend::TicketOptions opts;
      opts.priority = static_cast<int>(k % 3);
      opts.deadline = config.task_deadline;

      const auto submit_task = [&, k, label, opts](BitsPerSecond guarantee,
                                                   std::optional<std::uint64_t> circuit) {
        TransferSpec spec = tmpl;
        spec.guarantee = guarantee;
        const auto release = [&idc, &ticket_hooks, circuit](const frontend::TicketStatus& st) {
          ++ticket_hooks[st.ticket];
          if (circuit) idc.release_now(*circuit);
        };
        const auto r = front.submit(front_sessions[k % config.tenants], label, files,
                                    spec, opts, "", release);
        if (!r.accepted && circuit) idc.release_now(*circuit);
      };

      const auto on_active = [&, k, submit_task](const vc::Circuit& c) {
        // First activation launches the task under the guarantee;
        // re-activations after a re-signal are a no-op here because
        // the service template is fixed at submit time.
        if (launched[k] == 0) {
          launched[k] = 1;
          submit_task(c.rate_at(sim.now()), c.id);
        }
      };
      const auto granted = [&] {
        if (!config.malleable_reservations) {
          return idc.request_immediate(wan.src, wan.dst, config.circuit_rate, estimated,
                                       on_active, nullptr, nullptr);
        }
        vc::ReservationRequest req;
        req.src = wan.src;
        req.dst = wan.dst;
        req.bandwidth = config.circuit_rate;
        req.start_time = sim.now();
        req.end_time = idc.predicted_activation(sim.now(), sim.now()) + estimated;
        req.description = label;
        req.malleable = true;
        return idc.create_reservation(req, on_active);
      }();
      if (granted.accepted()) {
        ++result.circuits_granted;
      } else {
        submit_task(0.0, std::nullopt);
      }
    });
  }

  // Fault plan: either the caller's (shrinking) or generated from the
  // seed. Link targets 0/1 are the primary span's forward links; server
  // targets 0/1 are source/sink; the IDC process is singular.
  recovery::FaultScheduleSpec spec;
  spec.link_count = wan.primary_span.size();
  spec.server_count = 2;
  spec.idc = config.idc_mtbf > 0.0;
  spec.start_after = config.fault_start_after;
  spec.horizon = config.fault_horizon;
  spec.link_mtbf = config.link_mtbf;
  spec.link_mttr = config.link_mttr;
  spec.server_mtbf = config.server_mtbf;
  spec.server_mttr = config.server_mttr;
  spec.idc_mtbf = config.idc_mtbf;
  spec.idc_mttr = config.idc_mttr;
  result.schedule = config.schedule_override != nullptr
                        ? *config.schedule_override
                        : recovery::generate_fault_schedule(spec, seed);

  // Sabotage: a metrics/trace inconsistency on purpose, a shed event no
  // counter ever saw after each server crash. The invariants must flag it.
  const recovery::FaultScheduleInjector::FaultFn sabotage =
      [&sim](FaultTargetKind kind, std::uint64_t) {
        if (kind == FaultTargetKind::kServer) {
          sim.obs().emit({sim.now(), TraceEventType::kTaskShed, 9999, 0, 0.0, 0.0});
        }
      };
  const auto injector = inject_faults(
      sim, result.schedule, {network, idc, engine, wan.primary_span, {&source, &sink}},
      config.sabotage ? sabotage : nullptr);

  if (config.service_crash_at > 0.0) {
    sim.schedule_at(config.service_crash_at, [&] {
      front.crash_and_recover_service(tmpl);  // recovered tasks run best-effort
    });
  }

  sim.run();

  // ---- invariants -------------------------------------------------------
  const auto violate = [&](const char* invariant, std::string detail) {
    result.violations.push_back({invariant, std::move(detail)});
  };
  const obs::MetricsSnapshot snap = sim.obs().registry().snapshot();

  std::uint64_t finished = 0;
  std::uint64_t failed = 0;
  for (const auto& [id, t] : audit.transfers()) {
    const std::string tag = "transfer " + std::to_string(id);
    if (t.finished && t.failed) {
      violate("transfer-resolution", tag + " both finished and failed permanently");
    } else if (!t.finished && !t.failed) {
      violate("transfer-resolution", tag + " neither finished nor failed at drain");
    }
    if (t.finished) {
      ++finished;
      if (t.finished_size != t.size) {
        std::ostringstream os;
        os << tag << " delivered " << t.finished_size << " of " << t.size << " bytes";
        violate("byte-conservation", os.str());
      }
    }
    if (t.failed) ++failed;
    if (t.unresolved_abort) {
      violate("unresolved-abort", tag + " aborted with no retry or terminal record");
    }
    if (t.aborts > static_cast<std::uint64_t>(config.max_aborts)) {
      violate("bounded-retries", tag + " recorded " + std::to_string(t.aborts) +
                                     " aborts (budget " +
                                     std::to_string(config.max_aborts) + ")");
    }
  }
  if (finished != engine.stats().completed) {
    violate("trace-metrics", "trace finished=" + std::to_string(finished) +
                                 " vs engine completed=" +
                                 std::to_string(engine.stats().completed));
  }
  if (failed != engine.stats().failed_transfers) {
    violate("trace-metrics", "trace failed=" + std::to_string(failed) +
                                 " vs engine failed=" +
                                 std::to_string(engine.stats().failed_transfers));
  }

  if (idc.live_circuit_count() != 0) {
    violate("orphan-circuits", std::to_string(idc.live_circuit_count()) +
                                   " circuits still live at drain");
  }
  const auto gauge = [&](const char* name) { return snap.value(name); };
  for (const char* name :
       {"gridvc_vc_active_circuits", "gridvc_vc_calendar_bookings",
        "gridvc_gridftp_active_transfers", "gridvc_gridftp_waiting_transfers",
        "gridvc_gridftp_tasks_queued", "gridvc_gridftp_tasks_active"}) {
    if (gauge(name) != 0.0) {
      std::ostringstream os;
      os << name << " = " << gauge(name) << " at drain";
      violate("gauge-drain", os.str());
    }
  }
  if (engine.active_transfers() != 0 || engine.waiting_transfers() != 0) {
    violate("gauge-drain", "engine holds " + std::to_string(engine.active_transfers()) +
                               " active / " + std::to_string(engine.waiting_transfers()) +
                               " waiting transfers at drain");
  }
  if (service.queued_tasks() != 0 || service.active_tasks() != 0) {
    violate("gauge-drain", "service holds " + std::to_string(service.queued_tasks()) +
                               " queued / " + std::to_string(service.active_tasks()) +
                               " active tasks at drain");
  }

  for (const auto& status : service.statuses()) {
    if (status.state == gridftp::TaskState::kQueued ||
        status.state == gridftp::TaskState::kActive) {
      violate("task-resolution",
              "task " + std::to_string(status.id) + " not terminal at drain");
    }
  }

  const auto check_count = [&](TraceEventType type, const char* name,
                               std::uint64_t expected) {
    const std::uint64_t got = audit.count(type);
    if (got != expected) {
      violate("trace-metrics", std::string(name) + " trace count " +
                                   std::to_string(got) + " vs counter " +
                                   std::to_string(expected));
    }
  };

  // Close the long-lived tenant sessions; unfinished work would be
  // adopted, but quiescence below proves there is none.
  for (const std::uint64_t session : front_sessions) {
    front.disconnect(session);
  }
  if (!front.quiescent()) {
    violate("front-drain", "front-end holds " +
                               std::to_string(front.queued_tickets()) +
                               " queued / " + std::to_string(front.in_flight()) +
                               " in-flight tickets at drain");
  }
  if (front.sessions_open() != 0) {
    violate("front-drain", std::to_string(front.sessions_open()) +
                               " sessions still open after disconnect");
  }
  if (front.isolation_violations() != 0) {
    violate("tenant-isolation",
            std::to_string(front.isolation_violations()) +
                " backpressure sheds hit an in-quota tenant");
  }
  if (front.starvation_violations() != 0) {
    violate("tenant-starvation",
            std::to_string(front.starvation_violations()) +
                " tenants waited beyond the DRR service bound");
  }
  const std::uint64_t ticket_resolutions =
      audit.count(TraceEventType::kFrontDispatch) +
      audit.count(TraceEventType::kFrontShed) +
      audit.count(TraceEventType::kFrontCancel);
  if (audit.count(TraceEventType::kFrontSubmit) != ticket_resolutions) {
    violate("front-ticket-resolution",
            "accepted tickets " +
                std::to_string(audit.count(TraceEventType::kFrontSubmit)) +
                " vs dispatch+shed+cancel " + std::to_string(ticket_resolutions));
  }
  check_count(TraceEventType::kFrontSessionClosed, "front_session_closed",
              audit.count(TraceEventType::kFrontSessionOpened));
  std::uint64_t accepted = 0, rejected = 0, shed = 0, dispatched = 0;
  for (std::size_t t = 0; t < config.tenants; ++t) {
    const frontend::TenantStats st =
        front.tenant_stats("tenant" + std::to_string(t));
    accepted += st.accepted;
    rejected += st.rejected;
    shed += st.shed;
    dispatched += st.dispatched;
    if (st.queued != 0 || st.in_flight != 0) {
      violate("front-drain", "tenant" + std::to_string(t) + " holds " +
                                 std::to_string(st.queued) + " queued / " +
                                 std::to_string(st.in_flight) +
                                 " in-flight at drain");
    }
  }
  // Exactly once per accepted ticket: as many tickets hooked as calls.
  std::uint64_t hook_calls = 0;
  for (const auto& [ticket, calls] : ticket_hooks) hook_calls += calls;
  if (ticket_hooks.size() != accepted || hook_calls != accepted) {
    violate("front-ticket-resolution",
            "accepted tickets " + std::to_string(accepted) + " vs " +
                std::to_string(hook_calls) + " on_done calls on " +
                std::to_string(ticket_hooks.size()) + " tickets");
  }
  check_count(TraceEventType::kFrontDispatch, "front_dispatch", dispatched);
  check_count(TraceEventType::kFrontShed, "front_shed", shed);
  check_count(TraceEventType::kFrontReject, "front_reject", rejected);
  result.front_accepted = accepted;
  result.front_rejected = rejected;
  result.front_shed = shed;

  check_count(TraceEventType::kTaskShed, "task_shed",
              static_cast<std::uint64_t>(gauge("gridvc_gridftp_tasks_shed")));
  check_count(TraceEventType::kServerDown, "server_down", engine.stats().server_crashes);
  check_count(TraceEventType::kServerUp, "server_up", audit.count(TraceEventType::kServerDown));
  check_count(TraceEventType::kIdcOutageBegin, "idc_outage_begin", idc.stats().outages);
  check_count(TraceEventType::kIdcOutageEnd, "idc_outage_end",
              audit.count(TraceEventType::kIdcOutageBegin));

  // ---- results + digest -------------------------------------------------
  result.transfers_submitted = audit.count(TraceEventType::kTransferSubmitted);
  result.transfers_completed = engine.stats().completed;
  result.transfers_failed = engine.stats().failed_transfers;
  result.aborted_attempts = engine.stats().aborted_attempts;
  result.tasks_shed = service.tasks_shed();
  result.tasks_recovered = service.tasks_recovered();
  result.server_crashes = engine.stats().server_crashes;
  result.idc_outages = idc.stats().outages;
  result.link_downs = result.schedule.count(recovery::FaultTargetKind::kLink);
  result.outage_rejections = idc.stats().rejected_outage;
  result.trace_events = audit.total();
  result.end_time = sim.now();

  std::ostringstream digest;
  digest << "seed=" << seed << " windows=" << result.schedule.windows.size()
         << " events=" << result.trace_events << " submitted=" << result.transfers_submitted
         << " completed=" << result.transfers_completed
         << " failed=" << result.transfers_failed << " aborts=" << result.aborted_attempts
         << " shed=" << result.tasks_shed << " recovered=" << result.tasks_recovered
         << " crashes=" << result.server_crashes << " outages=" << result.idc_outages
         << " vc=" << result.circuits_granted << "/" << result.outage_rejections
         << " end=" << std::fixed << std::setprecision(6) << result.end_time
         << " violations=" << result.violations.size() << " tenants=" << config.tenants
         << " front=" << result.front_accepted << "/" << result.front_rejected << "/"
         << result.front_shed;
  result.digest = digest.str();
  if (!result.violations.empty() && obs::FlightRecorder::armed()) {
    // Post-mortem capture at the moment of failure: the armed path holds
    // the most recent violating replication's window.
    obs::FlightRecorder::instance().dump(
        std::string("chaos-invariant:") + result.violations.front().invariant);
  }
  return result;
}

std::vector<ChaosResult> run_chaos_battery(const ChaosConfig& config,
                                           std::uint64_t base_seed, std::size_t count) {
  GRIDVC_REQUIRE(config.trace_sink == nullptr,
                 "replications cannot share a trace sink");
  GRIDVC_REQUIRE(config.schedule_override == nullptr,
                 "replications generate their own schedules");
  return exec::default_pool().parallel_map<ChaosResult>(count, [&](std::size_t i) {
    return run_chaos(config, base_seed + i);
  });
}

recovery::FaultSchedule shrink_chaos_schedule(const ChaosConfig& config,
                                              std::uint64_t seed) {
  ChaosResult failing = run_chaos(config, seed);
  GRIDVC_REQUIRE(!failing.ok(), "cannot shrink a passing run");
  return recovery::shrink_schedule(
      failing.schedule, [&](const recovery::FaultSchedule& candidate) {
        ChaosConfig replay = config;
        replay.trace_sink = nullptr;
        replay.schedule_override = &candidate;
        return !run_chaos(replay, seed).ok();
      });
}

}  // namespace gridvc::workload
