#include "workload/scenarios.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "analysis/link_utilization.hpp"

namespace gridvc::workload {
namespace {

// Small configurations keep these end-to-end simulations fast.

NerscOrnlConfig small_ornl() {
  NerscOrnlConfig cfg;
  cfg.transfer_count = 12;
  cfg.days = 3;
  cfg.transfer_size = 4 * GiB;
  cfg.size_spread = 0.0;  // exact sizes keep the assertions sharp
  return cfg;
}

AnlNerscConfig small_anl() {
  AnlNerscConfig cfg;
  cfg.mem_mem = 6;
  cfg.mem_disk = 5;
  cfg.disk_mem = 5;
  cfg.disk_disk = 6;
  cfg.days = 2;
  cfg.transfer_size = 2 * GiB;
  return cfg;
}

TEST(NerscOrnlScenario, ProducesRequestedTransfers) {
  const auto result = run_nersc_ornl_tests(small_ornl(), 42);
  ASSERT_EQ(result.log.size(), 12u);
  for (const auto& r : result.log) {
    EXPECT_EQ(r.size, 4 * GiB);
    EXPECT_EQ(r.streams, 8);
    EXPECT_EQ(r.stripes, 1);
    EXPECT_GT(r.duration, 0.0);
    // Throughput below the 10G line rate.
    EXPECT_LT(to_gbps(r.throughput()), 10.0);
  }
}

TEST(NerscOrnlScenario, StartsAtConfiguredHours) {
  const auto result = run_nersc_ornl_tests(small_ornl(), 42);
  for (const auto& r : result.log) {
    const double hour = std::fmod(r.start_time, kDay) / kHour;
    const bool near_2am = hour >= 2.0 && hour < 3.0;
    const bool near_8am = hour >= 8.0 && hour < 9.0;
    EXPECT_TRUE(near_2am || near_8am) << "start hour " << hour;
  }
}

TEST(NerscOrnlScenario, SnmpSeriesCoverTheRun) {
  const auto cfg = small_ornl();
  const auto result = run_nersc_ornl_tests(cfg, 42);
  ASSERT_EQ(result.router_names.size(), 5u);
  ASSERT_EQ(result.forward_series.size(), 5u);
  ASSERT_EQ(result.reverse_series.size(), 5u);
  for (const auto& s : result.forward_series) {
    // 3 days + 1 day margin of 30 s bins.
    EXPECT_GE(s.bins.size(), 3u * 2880u);
    const double total = std::accumulate(s.bins.begin(), s.bins.end(), 0.0);
    EXPECT_GT(total, 0.0);
  }
}

TEST(NerscOrnlScenario, TransferBytesVisibleInSnmp) {
  auto cfg = small_ornl();
  cfg.transfer_size = 32 * GiB;  // long enough to span several 30 s bins
  const auto result = run_nersc_ornl_tests(cfg, 42);
  // For each RETR (NERSC->ORNL) transfer, eq-(1) attribution on a forward
  // link must account for most of the transfer's own bytes (edge-bin
  // pro-rating trims a little; cross traffic adds some back).
  const auto& series = result.forward_series[2];
  for (const auto& r : result.log) {
    if (r.type != gridftp::TransferType::kRetrieve) continue;
    const double attributed =
        analysis::attributed_bytes(series, r.start_time, r.duration);
    EXPECT_GT(attributed, 0.8 * static_cast<double>(r.size));
  }
}

TEST(NerscOrnlScenario, DeterministicInSeed) {
  const auto a = run_nersc_ornl_tests(small_ornl(), 9);
  const auto b = run_nersc_ornl_tests(small_ornl(), 9);
  ASSERT_EQ(a.log.size(), b.log.size());
  for (std::size_t i = 0; i < a.log.size(); ++i) {
    ASSERT_DOUBLE_EQ(a.log[i].duration, b.log[i].duration);
  }
}

TEST(NerscOrnlScenario, ThroughputShowsVariance) {
  auto cfg = small_ornl();
  cfg.transfer_count = 24;
  cfg.days = 6;
  const auto result = run_nersc_ornl_tests(cfg, 1);
  double lo = 1e18, hi = 0.0;
  for (const auto& r : result.log) {
    lo = std::min(lo, r.throughput());
    hi = std::max(hi, r.throughput());
  }
  EXPECT_GT(hi / lo, 1.3);
}

TEST(AnlNerscScenario, AllTestClassesPresent) {
  const auto result = run_anl_nersc_tests(small_anl(), 7);
  EXPECT_EQ(result.mem_mem.size(), 6u);
  EXPECT_EQ(result.mem_disk.size(), 5u);
  EXPECT_EQ(result.disk_mem.size(), 5u);
  EXPECT_EQ(result.disk_disk.size(), 6u);
  // Indices are valid and distinct.
  std::vector<std::size_t> all;
  for (const auto* v : {&result.mem_mem, &result.mem_disk, &result.disk_mem,
                        &result.disk_disk}) {
    for (std::size_t i : *v) {
      ASSERT_LT(i, result.all_log.size());
      all.push_back(i);
    }
  }
  std::sort(all.begin(), all.end());
  EXPECT_EQ(std::unique(all.begin(), all.end()), all.end());
}

TEST(AnlNerscScenario, LogIncludesBackgroundTraffic) {
  const auto result = run_anl_nersc_tests(small_anl(), 7);
  EXPECT_GT(result.all_log.size(), 22u);  // more than just the tests
  bool background = false;
  for (const auto& r : result.all_log) {
    if (r.remote_host == "background") background = true;
  }
  EXPECT_TRUE(background);
}

TEST(AnlNerscScenario, DiskWriteSlowerThanMemory) {
  auto cfg = small_anl();
  cfg.mem_mem = 20;
  cfg.disk_disk = 20;
  cfg.mem_disk = 20;
  cfg.disk_mem = 20;
  cfg.days = 5;
  const auto result = run_anl_nersc_tests(cfg, 3);
  const auto median_of = [&](const std::vector<std::size_t>& idx) {
    std::vector<double> v;
    for (std::size_t i : idx) v.push_back(result.all_log[i].throughput());
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  // Destination-disk classes are bottlenecked by the NERSC write path.
  EXPECT_GT(median_of(result.mem_mem), median_of(result.mem_disk));
  EXPECT_GT(median_of(result.disk_mem), median_of(result.disk_disk));
}

TEST(AnlNerscScenario, SortedLog) {
  const auto result = run_anl_nersc_tests(small_anl(), 7);
  for (std::size_t i = 1; i < result.all_log.size(); ++i) {
    ASSERT_LE(result.all_log[i - 1].start_time, result.all_log[i].start_time);
  }
}

FaultyWanConfig small_faulty() {
  FaultyWanConfig cfg;
  cfg.transfer_count = 6;
  cfg.transfer_size = 16 * GiB;
  cfg.transfer_interarrival = 60.0;
  cfg.link_mtbf = 60.0;
  cfg.link_mttr = 15.0;
  cfg.fault_horizon = 600.0;
  return cfg;
}

TEST(FaultyWanScenario, EveryTransferReachesAnOutcome) {
  const auto result = run_faulty_wan(small_faulty(), 21);
  EXPECT_EQ(result.transfers_completed + result.transfers_failed, 6u);
  // Request 4 is refused for bandwidth: at t=180 this seed holds
  // r1 -> edge-b down and the backup span already carries circuit 3's
  // 6 Gbit/s, so that transfer runs best-effort.
  EXPECT_EQ(result.circuits_granted, 5u);
  EXPECT_EQ(result.link_failures, result.link_repairs);
}

TEST(FaultyWanScenario, FaultsDriveAbortsAndCircuitFailures) {
  const auto result = run_faulty_wan(small_faulty(), 21);
  // The fault process is hot enough (MTBF 60s on two links, transfers in
  // flight most of the run) that this seed produces outages mid-transfer
  // and mid-circuit.
  EXPECT_GT(result.link_failures, 0u);
  EXPECT_GT(result.aborted_attempts, 0u);
  EXPECT_GT(result.circuits_failed, 0u);
  EXPECT_GT(result.circuits_resignaled, 0u);
  // The failure path is visible in the metrics snapshot too.
  EXPECT_DOUBLE_EQ(result.metrics.value("gridvc_net_link_failures"),
                   static_cast<double>(result.link_failures));
  EXPECT_DOUBLE_EQ(result.metrics.value("gridvc_vc_failed"),
                   static_cast<double>(result.circuits_failed));
  EXPECT_DOUBLE_EQ(result.metrics.value("gridvc_gridftp_aborted_attempts"),
                   static_cast<double>(result.aborted_attempts));
}

TEST(FaultyWanScenario, DeterministicPerSeed) {
  const auto a = run_faulty_wan(small_faulty(), 9);
  const auto b = run_faulty_wan(small_faulty(), 9);
  EXPECT_EQ(a.transfers_completed, b.transfers_completed);
  EXPECT_EQ(a.transfers_failed, b.transfers_failed);
  EXPECT_EQ(a.aborted_attempts, b.aborted_attempts);
  EXPECT_EQ(a.link_failures, b.link_failures);
  EXPECT_EQ(a.circuits_failed, b.circuits_failed);
  EXPECT_EQ(a.circuits_resignaled, b.circuits_resignaled);
  EXPECT_DOUBLE_EQ(a.end_time, b.end_time);
  ASSERT_EQ(a.metrics.entries.size(), b.metrics.entries.size());
  for (std::size_t i = 0; i < a.metrics.entries.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.metrics.entries[i].value, b.metrics.entries[i].value)
        << a.metrics.entries[i].name;
  }
}

TEST(ManagedVcScenario, MalleableRunCompletesTasksAndShapesUnderLoad) {
  // Crank the load (short interarrival, big circuits) so flat admission
  // fails and the malleable path — shaping the volume into calendar
  // slack — actually carries tasks that would otherwise run best-effort.
  ManagedVcConfig cfg;
  cfg.task_count = 6;
  cfg.files_per_task = 4;
  cfg.file_size = 2 * GiB;
  cfg.task_interarrival = 60.0;
  cfg.circuit_rate = gbps(4);
  cfg.immediate_signaling = true;
  cfg.malleable_reservations = true;
  const auto result = run_managed_vc(cfg, 7);
  EXPECT_EQ(result.tasks_completed, cfg.task_count);
  EXPECT_EQ(result.transfers_completed,
            cfg.task_count * cfg.files_per_task);
  // Every task got some circuit: the malleable path admits at least as
  // much as fixed-window ever did.
  ManagedVcConfig fixed = cfg;
  fixed.malleable_reservations = false;
  const auto baseline = run_managed_vc(fixed, 7);
  EXPECT_GE(result.circuits_granted, baseline.circuits_granted);
}

TEST(ManagedVcScenario, MalleableRunIsDeterministic) {
  ManagedVcConfig cfg;
  cfg.task_count = 4;
  cfg.files_per_task = 3;
  cfg.file_size = 2 * GiB;
  cfg.task_interarrival = 90.0;
  cfg.immediate_signaling = true;
  cfg.malleable_reservations = true;
  const auto a = run_managed_vc(cfg, 11);
  const auto b = run_managed_vc(cfg, 11);
  EXPECT_EQ(a.tasks_completed, b.tasks_completed);
  EXPECT_EQ(a.circuits_granted, b.circuits_granted);
  EXPECT_EQ(a.circuits_shaped, b.circuits_shaped);
  EXPECT_DOUBLE_EQ(a.end_time, b.end_time);
  ASSERT_EQ(a.metrics.entries.size(), b.metrics.entries.size());
  for (std::size_t i = 0; i < a.metrics.entries.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.metrics.entries[i].value, b.metrics.entries[i].value)
        << a.metrics.entries[i].name;
  }
}

TEST(FaultyWanScenario, FaultFreeWhenInjectionDisabled) {
  auto cfg = small_faulty();
  cfg.link_mtbf = 0.0;
  const auto result = run_faulty_wan(cfg, 21);
  EXPECT_EQ(result.transfers_completed, 6u);
  EXPECT_EQ(result.transfers_failed, 0u);
  EXPECT_EQ(result.link_failures, 0u);
  EXPECT_EQ(result.aborted_attempts, 0u);
  EXPECT_EQ(result.circuits_failed, 0u);
}

}  // namespace
}  // namespace gridvc::workload
