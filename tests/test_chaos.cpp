#include "workload/chaos.hpp"

#include <gtest/gtest.h>

#include <string>

#include "common/error.hpp"
#include "recovery/fault_schedule.hpp"

namespace gridvc::workload {
namespace {

std::string first_violation(const ChaosResult& result) {
  return result.violations.empty()
             ? std::string()
             : result.violations[0].invariant + ": " + result.violations[0].detail;
}

/// Small-but-busy config so every test stays fast while still crossing
/// all three fault layers.
ChaosConfig small_config() {
  ChaosConfig config;
  config.task_count = 4;
  config.files_per_task = 3;
  config.file_size = 4 * GiB;
  config.task_interarrival = 45.0;
  config.link_mtbf = 150.0;
  config.link_mttr = 15.0;
  config.server_mtbf = 250.0;
  config.server_mttr = 30.0;
  config.idc_mtbf = 400.0;
  config.idc_mttr = 20.0;
  config.fault_horizon = 900.0;
  return config;
}

TEST(Chaos, CleanRunHoldsAllInvariants) {
  const ChaosResult result = run_chaos(small_config(), 1);
  EXPECT_TRUE(result.ok()) << first_violation(result);
  EXPECT_GT(result.transfers_submitted, 0u);
  EXPECT_EQ(result.transfers_completed + result.transfers_failed,
            static_cast<std::uint64_t>(result.transfers_submitted));
  EXPECT_FALSE(result.digest.empty());
}

TEST(Chaos, BatteryCoversAllFaultLayersAndStaysClean) {
  const auto results = run_chaos_battery(small_config(), 1, 8);
  ASSERT_EQ(results.size(), 8u);
  std::uint64_t crashes = 0, outages = 0, link_downs = 0;
  for (const auto& r : results) {
    EXPECT_TRUE(r.ok()) << first_violation(r);
    crashes += r.server_crashes;
    outages += r.idc_outages;
    link_downs += r.link_downs;
  }
  EXPECT_GT(crashes, 0u);
  EXPECT_GT(outages, 0u);
  EXPECT_GT(link_downs, 0u);
}

TEST(Chaos, ReplayIsByteIdentical) {
  const ChaosConfig config = small_config();
  const ChaosResult a = run_chaos(config, 9);
  const ChaosResult b = run_chaos(config, 9);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.schedule.windows, b.schedule.windows);
  EXPECT_EQ(a.trace_events, b.trace_events);
}

TEST(Chaos, ParallelBatteryMatchesSerialRuns) {
  const ChaosConfig config = small_config();
  const auto battery = run_chaos_battery(config, 21, 6);
  for (std::size_t i = 0; i < battery.size(); ++i) {
    EXPECT_EQ(battery[i].digest, run_chaos(config, 21 + i).digest) << "seed " << 21 + i;
  }
}

TEST(Chaos, MalleableBatteryStaysCleanAndReplaysByteIdentical) {
  // Malleable shaping, defrag, and reroute all run inside the chaos
  // workload; every invariant must still hold and the digest must stay a
  // pure function of (config, seed) — the parallel battery and the
  // serial rerun agree bit for bit.
  ChaosConfig config = small_config();
  config.malleable_reservations = true;
  const auto battery = run_chaos_battery(config, 31, 4);
  ASSERT_EQ(battery.size(), 4u);
  for (std::size_t i = 0; i < battery.size(); ++i) {
    EXPECT_TRUE(battery[i].ok()) << first_violation(battery[i]);
    EXPECT_EQ(battery[i].digest, run_chaos(config, 31 + i).digest)
        << "seed " << 31 + i;
  }
}

TEST(Chaos, ServiceCrashRecoversFromJournal) {
  ChaosConfig config = small_config();
  // Land the crash inside the third task's window (submitted at t=90,
  // each file takes ~8.6 s) so the journal has live state to restore.
  config.service_crash_at = 100.0;
  const ChaosResult result = run_chaos(config, 5);
  EXPECT_TRUE(result.ok()) << first_violation(result);
  EXPECT_GT(result.tasks_recovered, 0u);
}

TEST(Chaos, ServiceCrashComposesWithTenants) {
  // A service crash under a live three-tenant front-end: every ticket
  // dispatched before the crash is reattached to its recovered task and
  // resolves exactly once, and each tenant's in-flight count drains (the
  // front-ticket-resolution and front-drain invariants).
  ChaosConfig config = small_config();
  config.tenants = 3;
  config.service_crash_at = 100.0;
  const ChaosResult result = run_chaos(config, 5);
  EXPECT_TRUE(result.ok()) << first_violation(result);
  EXPECT_GT(result.tasks_recovered, 0u);
  EXPECT_GT(result.front_accepted, 0u);
}

TEST(Chaos, OverloadGuardShedsUnderPressure) {
  ChaosConfig config = small_config();
  config.task_count = 10;
  config.task_interarrival = 2.0;  // all tasks land while two slots exist
  config.queue_limit = 2;
  config.overload_policy = frontend::OverloadPolicy::kShedOldest;
  const ChaosResult result = run_chaos(config, 3);
  EXPECT_TRUE(result.ok()) << first_violation(result);
  EXPECT_GT(result.front_shed, 0u);
}

TEST(Chaos, SabotageIsCaughtAndShrinksToOneServerWindow) {
  ChaosConfig config = small_config();
  config.task_count = 2;
  config.files_per_task = 2;
  config.sabotage = true;
  // Pick the first seed whose schedule crashes a server (deterministic).
  std::uint64_t seed = 0;
  for (std::uint64_t candidate = 1; candidate <= 8; ++candidate) {
    ChaosConfig probe = config;
    probe.sabotage = false;
    if (run_chaos(probe, candidate).server_crashes > 0) {
      seed = candidate;
      break;
    }
  }
  ASSERT_NE(seed, 0u) << "no candidate seed crashed a server";

  const ChaosResult poisoned = run_chaos(config, seed);
  ASSERT_FALSE(poisoned.ok());
  bool found_consistency_violation = false;
  for (const auto& v : poisoned.violations) {
    if (v.invariant == "trace-metrics") found_consistency_violation = true;
  }
  EXPECT_TRUE(found_consistency_violation);

  const recovery::FaultSchedule minimal = shrink_chaos_schedule(config, seed);
  ASSERT_EQ(minimal.windows.size(), 1u);
  EXPECT_EQ(minimal.windows[0].kind, recovery::FaultTargetKind::kServer);
}

TEST(Chaos, BatteryRejectsSharedSinksAndOverrides) {
  ChaosConfig config = small_config();
  recovery::FaultSchedule schedule;
  config.schedule_override = &schedule;
  EXPECT_THROW(run_chaos_battery(config, 1, 2), PreconditionError);
  EXPECT_THROW(shrink_chaos_schedule(small_config(), 1), PreconditionError);
}

}  // namespace
}  // namespace gridvc::workload
