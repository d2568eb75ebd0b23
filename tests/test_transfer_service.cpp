#include "gridftp/transfer_service.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "net/network.hpp"
#include "recovery/journal.hpp"

namespace gridvc::gridftp {
namespace {

struct Fixture {
  sim::Simulator sim;
  net::Topology topo;
  net::LinkId ab;
  std::unique_ptr<net::Network> network;
  std::unique_ptr<Server> src, dst;
  UsageStatsCollector collector;
  std::unique_ptr<TransferEngine> engine;
  std::unique_ptr<TransferService> service;

  explicit Fixture(TransferServiceConfig cfg = {}) {
    const auto a = topo.add_node("a", net::NodeKind::kHost);
    const auto b = topo.add_node("b", net::NodeKind::kHost);
    ab = topo.add_link(a, b, gbps(10), 0.005);
    network = std::make_unique<net::Network>(sim, topo);
    ServerConfig sc;
    sc.name = "src";
    sc.nic_rate = gbps(8);
    src = std::make_unique<Server>(sc);
    sc.name = "dst";
    dst = std::make_unique<Server>(sc);
    TransferEngineConfig ecfg;
    ecfg.server_noise_sigma = 0.0;
    ecfg.tcp.stream_buffer = 64 * MiB;
    engine = std::make_unique<TransferEngine>(*network, collector, ecfg, Rng(3));
    service = std::make_unique<TransferService>(sim, *engine, cfg);
  }

  TransferSpec tmpl() {
    TransferSpec s;
    s.src = {src.get(), IoMode::kMemory};
    s.dst = {dst.get(), IoMode::kMemory};
    s.path = {ab};
    s.rtt = 0.01;
    s.streams = 8;
    s.remote_host = "b";
    return s;
  }
};

TEST(TransferService, CompletesATask) {
  Fixture f;
  TaskStatus final_status;
  const auto id = f.service->submit("dataset-push", {100 * MiB, 200 * MiB, 50 * MiB},
                                    f.tmpl(),
                                    [&](const TaskStatus& s) { final_status = s; });
  f.sim.run();
  EXPECT_EQ(final_status.state, TaskState::kSucceeded);
  EXPECT_EQ(final_status.files_done, 3u);
  EXPECT_EQ(final_status.bytes_done, 350 * MiB);
  EXPECT_DOUBLE_EQ(final_status.progress(), 1.0);
  EXPECT_GT(final_status.finished_at, final_status.started_at);
  EXPECT_EQ(f.service->status(id).state, TaskState::kSucceeded);
  EXPECT_EQ(f.collector.received(), 3u);
}

TEST(TransferService, QueuesBeyondActiveLimit) {
  TransferServiceConfig cfg;
  cfg.max_active_tasks = 1;
  Fixture f(cfg);
  std::vector<std::uint64_t> done_order;
  for (int i = 0; i < 3; ++i) {
    f.service->submit("t" + std::to_string(i), {256 * MiB}, f.tmpl(),
                      [&](const TaskStatus& s) { done_order.push_back(s.id); });
  }
  EXPECT_EQ(f.service->active_tasks(), 1u);
  EXPECT_EQ(f.service->queued_tasks(), 2u);
  f.sim.run();
  // FIFO completion order with one slot.
  ASSERT_EQ(done_order.size(), 3u);
  EXPECT_LT(done_order[0], done_order[1]);
  EXPECT_LT(done_order[1], done_order[2]);
}

TEST(TransferService, PerTaskConcurrencyBoundsInFlight) {
  TransferServiceConfig cfg;
  cfg.per_task_concurrency = 2;
  Fixture f(cfg);
  f.service->submit("wide", std::vector<Bytes>(6, 512 * MiB), f.tmpl());
  // Right after submission, exactly two transfers are in flight.
  EXPECT_EQ(f.engine->active_transfers(), 2u);
  f.sim.run();
  EXPECT_EQ(f.collector.received(), 6u);
}

TEST(TransferService, CancelQueuedTaskNeverStarts) {
  TransferServiceConfig cfg;
  cfg.max_active_tasks = 1;
  Fixture f(cfg);
  f.service->submit("first", {GiB}, f.tmpl());
  bool done_fired = false;
  const auto queued = f.service->submit("second", {GiB}, f.tmpl(),
                                        [&](const TaskStatus& s) {
                                          done_fired = true;
                                          EXPECT_EQ(s.state, TaskState::kCancelled);
                                        });
  EXPECT_TRUE(f.service->cancel(queued));
  f.sim.run();
  EXPECT_TRUE(done_fired);
  EXPECT_EQ(f.service->status(queued).files_done, 0u);
  EXPECT_EQ(f.collector.received(), 1u);  // only the first task's file
}

TEST(TransferService, CancelActiveTaskDrainsInFlight) {
  TransferServiceConfig cfg;
  cfg.per_task_concurrency = 1;
  Fixture f(cfg);
  TaskStatus final_status;
  const auto id = f.service->submit("big", std::vector<Bytes>(10, GiB), f.tmpl(),
                                    [&](const TaskStatus& s) { final_status = s; });
  f.sim.run_until(0.5);  // first file in flight
  EXPECT_TRUE(f.service->cancel(id));
  EXPECT_FALSE(f.service->cancel(id));  // second cancel is a no-op
  f.sim.run();
  EXPECT_EQ(final_status.state, TaskState::kCancelled);
  EXPECT_EQ(final_status.files_done, 1u);  // the in-flight file drained
  EXPECT_EQ(f.collector.received(), 1u);
}

TEST(TransferService, CancelFinishedTaskIsNoop) {
  Fixture f;
  const auto id = f.service->submit("quick", {MiB}, f.tmpl());
  f.sim.run();
  EXPECT_FALSE(f.service->cancel(id));
  EXPECT_EQ(f.service->status(id).state, TaskState::kSucceeded);
}

TEST(TransferService, SlotFreedByCancelAdmitsNextTask) {
  TransferServiceConfig cfg;
  cfg.max_active_tasks = 1;
  cfg.per_task_concurrency = 1;
  Fixture f(cfg);
  const auto hog = f.service->submit("hog", std::vector<Bytes>(50, GiB), f.tmpl());
  TaskStatus second_status;
  f.service->submit("next", {MiB}, f.tmpl(),
                    [&](const TaskStatus& s) { second_status = s; });
  f.sim.run_until(1.0);
  f.service->cancel(hog);
  f.sim.run();
  EXPECT_EQ(second_status.state, TaskState::kSucceeded);
}

TEST(TransferService, Preconditions) {
  Fixture f;
  EXPECT_THROW(f.service->submit("x", {}, f.tmpl()), gridvc::PreconditionError);
  EXPECT_THROW(f.service->cancel(999), gridvc::PreconditionError);
  EXPECT_THROW(f.service->status(999), gridvc::NotFoundError);
  TransferServiceConfig bad;
  bad.max_active_tasks = 0;
  EXPECT_THROW(TransferService(f.sim, *f.engine, bad), gridvc::PreconditionError);
}

TEST(TransferService, ProgressVisibleMidTask) {
  TransferServiceConfig cfg;
  cfg.per_task_concurrency = 1;
  Fixture f(cfg);
  const auto id = f.service->submit("steady", std::vector<Bytes>(4, GiB), f.tmpl());
  // 1 GiB at 8 Gbps ~ 1.07 s/file; after ~2.5 s two files are done.
  f.sim.run_until(2.5);
  const auto& s = f.service->status(id);
  EXPECT_EQ(s.state, TaskState::kActive);
  EXPECT_GE(s.files_done, 1u);
  EXPECT_LT(s.files_done, 4u);
  EXPECT_GT(s.progress(), 0.2);
  EXPECT_LT(s.progress(), 0.9);
  f.sim.run();
  EXPECT_EQ(f.service->status(id).state, TaskState::kSucceeded);
}

// ---------------------------------------------------------------------------
// Deadlines (bounded waiting and overload policy live in the front-end)
// ---------------------------------------------------------------------------

TEST(TransferServiceOverload, DeadlineShedsTaskStillQueued) {
  TransferServiceConfig cfg;
  cfg.max_active_tasks = 1;
  Fixture f(cfg);
  f.service->submit("hog", {4 * GiB}, f.tmpl());  // ~4.3 s at 8 Gbps
  TaskStatus final_status;
  const auto id = f.service->submit(
      "impatient", {256 * MiB}, f.tmpl(), [&](const TaskStatus& s) { final_status = s; },
      /*deadline=*/1.0);
  f.sim.run();
  EXPECT_EQ(final_status.state, TaskState::kShed);
  EXPECT_DOUBLE_EQ(final_status.finished_at, 1.0);
  EXPECT_EQ(final_status.files_done, 0u);
  EXPECT_EQ(f.service->tasks_shed(), 1u);
  EXPECT_EQ(f.service->status(id).state, TaskState::kShed);
}

TEST(TransferServiceOverload, DeadlineStopsActiveTaskAndDrainsInFlight) {
  TransferServiceConfig cfg;
  cfg.per_task_concurrency = 2;
  Fixture f(cfg);
  TaskStatus final_status;
  // Four 512 MiB files, two at a time at ~4 Gbps each (~1.07 s/file): the
  // deadline lands while the first pair is still in flight.
  const auto id = f.service->submit(
      "slow", std::vector<Bytes>(4, 512 * MiB), f.tmpl(),
      [&](const TaskStatus& s) { final_status = s; }, /*deadline=*/1.0);
  f.sim.run();
  EXPECT_EQ(final_status.state, TaskState::kShed);
  // In-flight transfers drained and were counted; files 3 and 4 never
  // started.
  EXPECT_EQ(final_status.files_done, 2u);
  EXPECT_EQ(final_status.files_total, 4u);
  EXPECT_GT(final_status.finished_at, 1.0);
  EXPECT_EQ(f.service->tasks_shed(), 1u);
  EXPECT_EQ(f.service->status(id).state, TaskState::kShed);
  EXPECT_EQ(f.collector.received(), 2u);
}

TEST(TransferServiceOverload, CancelQueuedKeepsQueueGaugeInSync) {
  TransferServiceConfig cfg;
  cfg.max_active_tasks = 1;
  Fixture f(cfg);
  f.service->submit("active", {GiB}, f.tmpl());
  const auto queued = f.service->submit("queued", {GiB}, f.tmpl());
  EXPECT_DOUBLE_EQ(
      f.sim.obs().registry().snapshot().value("gridvc_gridftp_tasks_queued"), 1.0);
  EXPECT_TRUE(f.service->cancel(queued));
  // Regression: cancelling a queued task used to leave the gauge (and
  // queued_tasks()) counting a slot that could never start.
  EXPECT_EQ(f.service->queued_tasks(), 0u);
  EXPECT_DOUBLE_EQ(
      f.sim.obs().registry().snapshot().value("gridvc_gridftp_tasks_queued"), 0.0);
  f.sim.run();
  const auto snap = f.sim.obs().registry().snapshot();
  EXPECT_DOUBLE_EQ(snap.value("gridvc_gridftp_tasks_queued"), 0.0);
  EXPECT_DOUBLE_EQ(snap.value("gridvc_gridftp_tasks_active"), 0.0);
}

// ---------------------------------------------------------------------------
// Crash recovery from the task journal
// ---------------------------------------------------------------------------

TEST(TransferServiceRecovery, CrashResumesFromCheckpointedCursor) {
  recovery::Journal journal;
  TransferServiceConfig cfg;
  cfg.journal = &journal;
  Fixture f(cfg);
  const auto id = f.service->submit("dataset", {100 * MiB, 100 * MiB, 400 * MiB},
                                    f.tmpl());
  // First two files finish (~0.21 s each, concurrent); the third is
  // in flight when the process dies.
  f.sim.run_until(0.4);
  ASSERT_EQ(f.service->status(id).files_done, 2u);
  TaskStatus final_status;
  const std::size_t restored = f.service->crash_and_recover(
      f.tmpl(), [&](const TaskStatus& s) { final_status = s; });
  EXPECT_EQ(restored, 1u);
  EXPECT_EQ(f.service->epoch(), 1u);
  EXPECT_EQ(f.service->tasks_recovered(), 1u);
  // The restored task kept its id and checkpointed progress; only the
  // unfinished file is re-run.
  EXPECT_EQ(f.service->status(id).files_done, 2u);
  f.sim.run();
  EXPECT_EQ(final_status.state, TaskState::kSucceeded);
  EXPECT_EQ(final_status.id, id);
  EXPECT_EQ(final_status.files_done, 3u);
  EXPECT_EQ(final_status.bytes_done, 600 * MiB);
}

TEST(TransferServiceRecovery, FinishedTasksDoNotComeBack) {
  recovery::Journal journal;
  TransferServiceConfig cfg;
  cfg.journal = &journal;
  Fixture f(cfg);
  f.service->submit("done", {64 * MiB}, f.tmpl());
  f.sim.run();
  // The task completed and was tombstoned: a crash restores nothing.
  EXPECT_EQ(f.service->crash_and_recover(f.tmpl()), 0u);
  EXPECT_EQ(f.service->tasks_recovered(), 0u);
  EXPECT_EQ(f.service->statuses().size(), 0u);
}

TEST(TransferServiceRecovery, CrashWithoutJournalIsRejected) {
  Fixture f;
  EXPECT_THROW(f.service->crash_and_recover(f.tmpl()), gridvc::PreconditionError);
}

// A crash restores every unfinished task, queued or active, under its
// original id and in id order; both then run to completion.
TEST(TransferServiceRecovery, CrashRecoversActiveAndQueuedTasks) {
  recovery::Journal journal;
  TransferServiceConfig cfg;
  cfg.journal = &journal;
  cfg.max_active_tasks = 1;
  Fixture f(cfg);
  const auto active = f.service->submit("active", {4 * GiB}, f.tmpl());
  const auto queued = f.service->submit("queued", {64 * MiB}, f.tmpl());
  f.sim.run_until(0.5);
  ASSERT_EQ(f.service->status(active).state, TaskState::kActive);
  ASSERT_EQ(f.service->status(queued).state, TaskState::kQueued);
  EXPECT_EQ(f.service->crash_and_recover(f.tmpl()), 2u);
  EXPECT_EQ(f.service->tasks_recovered(), 2u);
  const auto all = f.service->statuses();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].id, active);
  EXPECT_EQ(all[1].id, queued);
  EXPECT_EQ(f.service->status(active).state, TaskState::kActive);
  EXPECT_EQ(f.service->status(queued).state, TaskState::kQueued);
  f.sim.run();
  EXPECT_EQ(f.service->status(active).state, TaskState::kSucceeded);
  EXPECT_EQ(f.service->status(queued).state, TaskState::kSucceeded);
}

// The journal keeps a task's label and deadline exactly: a label with
// leading spaces and a newline, and an infinite deadline, come back from
// a crash as they were submitted.
TEST(TransferServiceRecovery, LabelAndInfiniteDeadlineSurviveCrash) {
  recovery::Journal journal;
  TransferServiceConfig cfg;
  cfg.journal = &journal;
  cfg.max_active_tasks = 1;
  Fixture f(cfg);
  const std::string label = "  two words\nsecond line";
  const Seconds never = std::numeric_limits<Seconds>::infinity();
  f.service->submit("active", {4 * GiB}, f.tmpl());
  const auto queued = f.service->submit(label, {64 * MiB}, f.tmpl(), nullptr, never);
  f.sim.run_until(0.5);
  ASSERT_EQ(f.service->status(queued).state, TaskState::kQueued);
  EXPECT_EQ(f.service->crash_and_recover(f.tmpl()), 2u);
  EXPECT_EQ(f.service->status(queued).label, label);
  EXPECT_EQ(f.service->status(queued).deadline, never);
  f.sim.run();
  EXPECT_EQ(f.service->status(queued).state, TaskState::kSucceeded);
}

// A task record cut short, with a byte too many, or counting more files
// than it holds is refused, the oversized count before the file list is
// sized from it; the intact record still replays afterwards.
TEST(TransferServiceRecovery, MalformedTaskRecordIsRefused) {
  recovery::Journal journal;
  TransferServiceConfig cfg;
  cfg.journal = &journal;
  Fixture f(cfg);
  const auto id = f.service->submit("dataset", {100 * MiB, 400 * MiB}, f.tmpl());
  const auto records = journal.replay("task");
  ASSERT_EQ(records.size(), 1u);
  const std::string good = records[0].payload;
  const auto refused = [&](std::string payload) {
    journal.append("task", id, std::move(payload));
    EXPECT_THROW(f.service->crash_and_recover(f.tmpl()), gridvc::PreconditionError);
  };
  for (std::size_t n = 0; n < good.size(); ++n) {
    SCOPED_TRACE("prefix of " + std::to_string(n) + " bytes");
    refused(good.substr(0, n));
  }
  refused(good + '\0');
  // The file count follows the deadline, submitted_at and files_done.
  constexpr std::size_t kCountAt = 3 * sizeof(std::uint64_t);
  std::uint64_t count = 0;
  std::memcpy(&count, good.data() + kCountAt, sizeof count);
  ASSERT_EQ(count, 2u);
  std::string oversized = good;
  const std::uint64_t huge = std::uint64_t{1} << 60;
  std::memcpy(oversized.data() + kCountAt, &huge, sizeof huge);
  refused(oversized);

  journal.append("task", id, good);
  EXPECT_EQ(f.service->crash_and_recover(f.tmpl()), 1u);
  f.sim.run();
  EXPECT_EQ(f.service->status(id).state, TaskState::kSucceeded);
  EXPECT_EQ(f.service->status(id).bytes_done, 500 * MiB);
}

}  // namespace
}  // namespace gridvc::gridftp
