// Multi-tenant admission front-end under overload.
//
// Three tenants with DRR weights 1/2/4 submit identical 256 MiB tasks
// through the admission front-end at 1x/5x/10x the backend's service
// capacity (equal offered load per tenant). The exhibit shows the
// overload curve the front-end is supposed to produce: at 1x everything
// is accepted and queue waits are negligible; past saturation the
// queued-bytes quotas turn the excess into fast rejections (not
// unbounded queues), and the DRR dispatcher splits the backend's
// capacity by weight, so the weight-4 tenant completes ~4x the weight-1
// tenant's work off the same offered load.
//
// The emitted BENCH_frontend.json carries machine-independent ratio_*
// keys (rejection fractions, weight-share fairness error, p99 queue
// wait normalized by the horizon — all in sim time, so identical on any
// host) that gridvc-perf-gate compares against the checked-in baseline.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/rng.hpp"
#include "frontend/admission.hpp"
#include "gridftp/transfer_engine.hpp"
#include "net/network.hpp"
#include "obs/trace.hpp"
#include "stats/table.hpp"

using namespace gridvc;

namespace {

constexpr Bytes kTaskBytes = 256 * MiB;
constexpr Seconds kHorizon = 600.0;
constexpr double kWeights[3] = {1.0, 2.0, 4.0};

/// Collects per-dispatch queue waits from the trace stream.
class WaitSink final : public obs::TraceSink {
 public:
  void emit(const obs::TraceEvent& event) override {
    if (event.type == obs::TraceEventType::kFrontDispatch) {
      waits_.push_back(event.value);
    }
  }
  std::vector<double>& waits() { return waits_; }

 private:
  std::vector<double> waits_;
};

struct LoadOutcome {
  frontend::TenantStats tenant[3];
  std::uint64_t submitted = 0;
  std::uint64_t rejected = 0;
  double p99_wait = 0.0;
};

LoadOutcome run_load(double multiplier) {
  sim::Simulator sim;
  WaitSink waits;
  sim.obs().set_trace_sink(&waits);

  net::Topology topo;
  const auto a = topo.add_node("a", net::NodeKind::kHost);
  const auto b = topo.add_node("b", net::NodeKind::kHost);
  const auto ab = topo.add_link(a, b, gbps(10), 0.005);
  net::Network network(sim, topo);

  gridftp::ServerConfig sc;
  sc.name = "src";
  sc.nic_rate = gbps(8);
  gridftp::Server src(sc);
  sc.name = "dst";
  gridftp::Server dst(sc);
  gridftp::UsageStatsCollector collector;
  gridftp::TransferEngineConfig ecfg;
  ecfg.server_noise_sigma = 0.0;
  gridftp::TransferEngine engine(network, collector, ecfg, Rng(bench::kSeed));

  gridftp::TransferServiceConfig scfg;
  scfg.max_active_tasks = 4;
  gridftp::TransferService service(sim, engine, scfg);

  frontend::FrontEndConfig fcfg;
  for (int t = 0; t < 3; ++t) {
    frontend::TenantConfig tc;
    tc.name = "w" + std::to_string(static_cast<int>(kWeights[t]));
    tc.weight = kWeights[t];
    tc.max_queued_bytes = 2 * GiB;  // overload becomes rejection, not backlog
    fcfg.tenants.push_back(tc);
  }
  frontend::FrontEnd front(sim, service, fcfg);

  gridftp::TransferSpec tmpl;
  tmpl.src = {&src, gridftp::IoMode::kMemory};
  tmpl.dst = {&dst, gridftp::IoMode::kMemory};
  tmpl.path = {ab};
  tmpl.rtt = 0.01;
  tmpl.streams = 8;
  tmpl.remote_host = "b";

  // Aggregate service capacity is NIC-bound: tasks/sec = nic / task size.
  const double capacity = gbps(8) / 8.0 / static_cast<double>(kTaskBytes);
  const double per_tenant_rate = multiplier * capacity / 3.0;

  std::uint64_t sessions[3];
  for (int t = 0; t < 3; ++t) {
    sessions[t] = front.connect(fcfg.tenants[t].name);
  }
  const std::vector<Bytes> files = {kTaskBytes};
  for (int t = 0; t < 3; ++t) {
    Rng rng(bench::kSeed ^ (0x9E3779B9ULL * static_cast<std::uint64_t>(t + 1)));
    Seconds when = rng.exponential(1.0 / per_tenant_rate);
    while (when < kHorizon) {
      sim.schedule_at(when, [&front, &tmpl, &files, session = sessions[t]] {
        front.submit(session, "bench", files, tmpl);
      });
      when += rng.exponential(1.0 / per_tenant_rate);
    }
  }

  sim.run();  // horizon + drain of the bounded backlog

  LoadOutcome out;
  for (int t = 0; t < 3; ++t) {
    out.tenant[t] = front.tenant_stats(fcfg.tenants[t].name);
    out.submitted += out.tenant[t].submitted;
    out.rejected += out.tenant[t].rejected;
  }
  std::vector<double>& w = waits.waits();
  if (!w.empty()) {
    std::sort(w.begin(), w.end());
    out.p99_wait = w[static_cast<std::size_t>(
        static_cast<double>(w.size() - 1) * 0.99)];
  }
  sim.obs().set_trace_sink(nullptr);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness harness(argc, argv, "frontend");
  bench::print_exhibit_header(
      "frontend overload curve",
      "multi-tenant admission: weighted fairness + quota-bounded rejection");

  stats::Table table("Multi-tenant overload curve (sim time, deterministic)");
  table.set_header({"load", "tenant", "weight", "submitted", "accept rate",
                    "rejected", "dispatched", "p99 wait (s)"});
  for (const double load : {1.0, 5.0, 10.0}) {
    const LoadOutcome out = run_load(load);
    const std::string suffix = "load" + std::to_string(static_cast<int>(load));

    std::uint64_t dispatched_total = 0;
    for (int t = 0; t < 3; ++t) dispatched_total += out.tenant[t].dispatched;
    double share_err = 0.0;
    const double weight_sum = kWeights[0] + kWeights[1] + kWeights[2];
    for (int t = 0; t < 3; ++t) {
      const auto& st = out.tenant[t];
      const double share =
          dispatched_total > 0
              ? static_cast<double>(st.dispatched) / static_cast<double>(dispatched_total)
              : 0.0;
      share_err += std::abs(share - kWeights[t] / weight_sum) / 2.0;
      const double accept =
          st.submitted > 0
              ? static_cast<double>(st.accepted) / static_cast<double>(st.submitted)
              : 0.0;
      table.add_row({bench::fmt1(load), "w" + bench::fmt_int(kWeights[t]),
                     bench::fmt_int(kWeights[t]), bench::fmt_int(st.submitted),
                     bench::fmt2(accept), bench::fmt_int(st.rejected),
                     bench::fmt_int(st.dispatched), bench::fmt2(out.p99_wait)});
      harness.note("accept_w" + bench::fmt_int(kWeights[t]) + "_" + suffix, accept);
    }
    const double reject_frac =
        out.submitted > 0
            ? static_cast<double>(out.rejected) / static_cast<double>(out.submitted)
            : 0.0;
    harness.note("submitted_" + suffix, static_cast<double>(out.submitted));
    harness.note("p99_wait_" + suffix, out.p99_wait);
    // Fairness error only means anything once every tenant has standing
    // backlog; below saturation acceptance is the interesting number.
    harness.note("ratio_reject_" + suffix, reject_frac);
    harness.note("ratio_p99_wait_norm_" + suffix, out.p99_wait / kHorizon);
    if (load > 1.0) {
      harness.note("ratio_share_err_" + suffix, share_err);
    }
  }
  std::printf("%s", table.render().c_str());
  std::printf(
      "\nPast saturation the quota turns excess load into rejections and the\n"
      "DRR split converges on the 1:2:4 weight shares (ratio_share_err -> 0).\n");
  return 0;
}
