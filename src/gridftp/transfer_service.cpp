#include "gridftp/transfer_service.hpp"

#include <algorithm>
#include <memory>
#include <numeric>
#include <utility>

#include "common/error.hpp"
#include "obs/profiler.hpp"
#include "recovery/record.hpp"

namespace gridvc::gridftp {

namespace {
constexpr const char* kMalformedTask = "malformed task journal payload";
}  // namespace

TransferService::TransferService(sim::Simulator& sim, TransferEngine& engine,
                                 TransferServiceConfig config)
    : sim_(sim), engine_(engine), config_(config) {
  GRIDVC_REQUIRE(config_.max_active_tasks >= 1, "service needs at least one task slot");
  GRIDVC_REQUIRE(config_.per_task_concurrency >= 1,
                 "service needs at least one transfer lane per task");

  obs::MetricsRegistry& reg = sim_.obs().registry();
  id_tasks_submitted_ = reg.counter("gridvc_gridftp_tasks_submitted",
                                    "Tasks queued with the managed service");
  id_tasks_completed_ = reg.counter("gridvc_gridftp_tasks_completed",
                                    "Tasks that moved every file");
  id_tasks_cancelled_ = reg.counter("gridvc_gridftp_tasks_cancelled",
                                    "Tasks cancelled before completion");
  id_tasks_shed_ = reg.counter("gridvc_gridftp_tasks_shed",
                               "Queued/active tasks dropped by a missed deadline");
  id_tasks_recovered_ = reg.counter("gridvc_gridftp_tasks_recovered",
                                    "Tasks rebuilt from the journal after a crash");
  id_queued_gauge_ = reg.gauge("gridvc_gridftp_tasks_queued",
                               "Tasks waiting for an active slot");
  id_active_gauge_ = reg.gauge("gridvc_gridftp_tasks_active",
                               "Tasks currently holding an active slot");
  id_queue_wait_hist_ = reg.log_histogram(
      "gridvc_gridftp_task_queue_wait_seconds",
      "Task submit -> first transfer start (slot wait)");
}

std::uint64_t TransferService::submit(std::string label, std::vector<Bytes> files,
                                      TransferSpec transfer_template, TaskDoneFn on_done,
                                      Seconds deadline) {
  GRIDVC_REQUIRE(!files.empty(), "task needs at least one file");
  GRIDVC_REQUIRE(deadline >= 0.0, "task deadline must be non-negative");

  const std::uint64_t id = next_id_++;
  Task task;
  task.status.id = id;
  task.status.label = std::move(label);
  task.status.files_total = files.size();
  task.status.bytes_total =
      std::accumulate(files.begin(), files.end(), Bytes{0});
  task.status.submitted_at = sim_.now();
  task.status.deadline = deadline;
  task.files = std::move(files);
  task.transfer_template = std::move(transfer_template);
  task.on_done = std::move(on_done);
  obs::Observability& obs = sim_.obs();
  obs.registry().add(id_tasks_submitted_);
  obs.emit({sim_.now(), obs::TraceEventType::kTaskSubmitted, id,
            static_cast<std::uint64_t>(task.status.files_total),
            static_cast<double>(task.status.bytes_total), 0.0});
  auto [it, inserted] = tasks_.emplace(id, std::move(task));
  journal_task(it->second);
  if (deadline > 0.0) {
    it->second.deadline_event = sim_.schedule_in(deadline, [this, id] { on_deadline(id); });
  }
  queue_.push_back(id);
  sync_queue_gauge();
  maybe_start_next();
  return id;
}

void TransferService::drop_queued(Task& task, TaskState state) {
  task.status.state = state;
  task.status.finished_at = sim_.now();
  task.deadline_event.cancel();
  const auto it = std::find(queue_.begin(), queue_.end(), task.status.id);
  GRIDVC_REQUIRE(it != queue_.end(), "queued task missing from the queue");
  queue_.erase(it);
  sync_queue_gauge();
  if (config_.journal) config_.journal->tombstone("task", task.status.id);
  obs::Observability& obs = sim_.obs();
  if (state == TaskState::kShed) {
    ++tasks_shed_;
    obs.registry().add(id_tasks_shed_);
    obs.emit({sim_.now(), obs::TraceEventType::kTaskShed, task.status.id, kShedDeadline,
              static_cast<double>(queue_.size()), 0.0});
  } else {
    obs.registry().add(id_tasks_cancelled_);
    obs.emit({sim_.now(), obs::TraceEventType::kTaskFinished, task.status.id, 0, 0.0, 0.0});
  }
  if (task.on_done) task.on_done(task.status);
}

void TransferService::on_deadline(std::uint64_t task_id) {
  Task& task = tasks_.at(task_id);
  switch (task.status.state) {
    case TaskState::kQueued:
      drop_queued(task, TaskState::kShed);
      return;
    case TaskState::kActive:
      // Too late to finish in time: stop feeding the engine; in-flight
      // transfers drain and the task terminates as kShed.
      task.shed = true;
      ++tasks_shed_;
      sim_.obs().registry().add(id_tasks_shed_);
      sim_.obs().emit({sim_.now(), obs::TraceEventType::kTaskShed, task_id, kShedDeadline,
                       static_cast<double>(queue_.size()), 1.0});
      if (task.in_flight == 0) {
        // Deadline landed between the last completion and the next pump.
        finish_task(task, TaskState::kShed);
      }
      return;
    case TaskState::kSucceeded:
    case TaskState::kCancelled:
    case TaskState::kShed:
      return;  // already terminal; the deadline raced the finish
  }
}

void TransferService::journal_task(const Task& task) {
  if (!config_.journal) return;
  // Field order (DESIGN §6) is the one crash_and_recover reads back.
  recovery::RecordWriter out(journal_buffer_);
  out.put<Seconds>(task.status.deadline);
  out.put<Seconds>(task.status.submitted_at);
  out.put<std::uint64_t>(task.status.files_done);
  out.put_count(task.files.size());
  for (const Bytes f : task.files) out.put<Bytes>(f);
  out.put_string(task.status.label);
  config_.journal->append("task", task.status.id, journal_buffer_);
}

void TransferService::sync_queue_gauge() {
  sim_.obs().registry().set(id_queued_gauge_, static_cast<double>(queue_.size()));
}

void TransferService::maybe_start_next() {
  while (active_ < static_cast<std::size_t>(config_.max_active_tasks) && !queue_.empty()) {
    const std::uint64_t id = queue_.front();
    queue_.pop_front();
    Task& task = tasks_.at(id);
    task.status.state = TaskState::kActive;
    task.status.started_at = sim_.now();
    ++active_;
    obs::Observability& obs = sim_.obs();
    const Seconds wait = task.status.started_at - task.status.submitted_at;
    obs.registry().observe(id_queue_wait_hist_, wait);
    obs.registry().set(id_queued_gauge_, static_cast<double>(queue_.size()));
    obs.registry().set(id_active_gauge_, static_cast<double>(active_));
    obs.emit({sim_.now(), obs::TraceEventType::kTaskStarted, id, 0, wait, 0.0});
    pump(id);
  }
}

void TransferService::pump(std::uint64_t task_id) {
  Task& task = tasks_.at(task_id);
  if (task.status.state != TaskState::kActive) return;
  while (!task.cancelled && !task.shed && task.next_file < task.files.size() &&
         task.in_flight < static_cast<std::size_t>(config_.per_task_concurrency)) {
    TransferSpec spec = task.transfer_template;
    spec.size = task.files[task.next_file];
    ++task.next_file;
    ++task.in_flight;
    // The epoch guard drops completions of transfers a *dead* service
    // incarnation started: after crash_and_recover the engine still
    // finishes them, but they belong to nobody. The id box closes the
    // submit-returns-id / callback-needs-id cycle.
    const std::uint64_t epoch = epoch_;
    const auto tid_box = std::make_shared<std::uint64_t>(0);
    const std::uint64_t tid =
        engine_.submit(spec, [this, task_id, epoch, tid_box](const TransferRecord& record) {
          if (epoch != epoch_) return;
          on_transfer_done(task_id, *tid_box, record);
        });
    *tid_box = tid;
    task.live_transfers.push_back(tid);
  }
  if (task.in_flight == 0) {
    finish_task(task, task.shed        ? TaskState::kShed
                      : task.cancelled ? TaskState::kCancelled
                                       : TaskState::kSucceeded);
  }
}

void TransferService::on_transfer_done(std::uint64_t task_id, std::uint64_t transfer_id,
                                       const TransferRecord& record) {
  Task& task = tasks_.at(task_id);
  GRIDVC_REQUIRE(task.in_flight > 0, "task in-flight underflow");
  --task.in_flight;
  const auto live = std::find(task.live_transfers.begin(), task.live_transfers.end(),
                              transfer_id);
  if (live != task.live_transfers.end()) task.live_transfers.erase(live);
  if (record.failed) {
    ++task.status.files_failed;
  } else {
    ++task.status.files_done;
    task.status.bytes_done += record.size;
    // Checkpoint progress so a crash resumes from the completed-file
    // count instead of re-moving the whole task.
    journal_task(task);
  }
  pump(task_id);
}

void TransferService::finish_task(Task& task, TaskState state) {
  task.status.state = state;
  task.status.finished_at = sim_.now();
  task.deadline_event.cancel();
  if (config_.journal) config_.journal->tombstone("task", task.status.id);
  GRIDVC_REQUIRE(active_ > 0, "active task underflow");
  --active_;
  obs::Observability& obs = sim_.obs();
  if (state != TaskState::kShed) {
    // Shed tasks were already counted when the deadline fired.
    obs.registry().add(state == TaskState::kSucceeded ? id_tasks_completed_
                                                      : id_tasks_cancelled_);
  }
  obs.registry().set(id_active_gauge_, static_cast<double>(active_));
  obs.emit({sim_.now(), obs::TraceEventType::kTaskFinished, task.status.id,
            static_cast<std::uint64_t>(task.status.files_done),
            task.status.finished_at - task.status.submitted_at,
            static_cast<double>(task.status.bytes_done)});
  if (task.on_done) task.on_done(task.status);
  maybe_start_next();
}

bool TransferService::cancel(std::uint64_t task_id) {
  const auto it = tasks_.find(task_id);
  GRIDVC_REQUIRE(it != tasks_.end(), "cancel of unknown task");
  Task& task = it->second;
  switch (task.status.state) {
    case TaskState::kQueued:
      drop_queued(task, TaskState::kCancelled);
      return true;
    case TaskState::kActive:
      if (task.cancelled) return false;
      task.cancelled = true;  // in-flight transfers drain; no new starts
      return true;
    case TaskState::kSucceeded:
    case TaskState::kCancelled:
    case TaskState::kShed:
      return false;
  }
  return false;
}

void TransferService::set_task_guarantee(std::uint64_t task_id, BitsPerSecond guarantee) {
  const auto it = tasks_.find(task_id);
  if (it == tasks_.end()) return;
  Task& task = it->second;
  task.transfer_template.guarantee = guarantee;
  // Unknown/finished ids are ignored by the engine, so a transfer that
  // completed between our bookkeeping and this call is harmless.
  for (const std::uint64_t tid : task.live_transfers) {
    engine_.set_guarantee(tid, guarantee);
  }
}

const TaskStatus& TransferService::status(std::uint64_t task_id) const {
  const auto it = tasks_.find(task_id);
  if (it == tasks_.end()) throw NotFoundError("unknown transfer task");
  return it->second.status;
}

std::vector<TaskStatus> TransferService::statuses() const {
  std::vector<TaskStatus> out;
  out.reserve(tasks_.size());
  for (const auto& [id, task] : tasks_) out.push_back(task.status);
  return out;
}

std::size_t TransferService::crash_and_recover(const TransferSpec& transfer_template,
                                               TaskDoneFn on_done) {
  GRIDVC_PROF_ZONE("recovery.service_replay");
  GRIDVC_REQUIRE(config_.journal != nullptr, "crash_and_recover needs a journal");
  // Crash: every in-memory structure of the old incarnation dies. The
  // epoch bump makes completions of transfers the old process started
  // (the engine keeps running them — they are remote server/network
  // state) fall on deaf ears.
  ++epoch_;
  for (auto& [id, task] : tasks_) task.deadline_event.cancel();
  tasks_.clear();
  queue_.clear();
  active_ = 0;
  obs::Observability& obs = sim_.obs();
  sync_queue_gauge();
  obs.registry().set(id_active_gauge_, 0.0);

  const Seconds now = sim_.now();
  std::size_t restored = 0;
  for (const recovery::JournalRecord& rec : config_.journal->replay("task")) {
    recovery::RecordReader in(rec.payload, kMalformedTask);
    Task task;
    task.status.deadline = in.get<Seconds>();
    const Seconds submitted_at = in.get<Seconds>();
    const std::size_t cursor = in.get<std::uint64_t>();
    const std::size_t nfiles = in.count(sizeof(Bytes));
    task.files.resize(nfiles);
    for (Bytes& f : task.files) f = in.get<Bytes>();
    task.status.label = in.string();
    in.finish();
    GRIDVC_REQUIRE(task.status.deadline >= 0.0 && cursor <= nfiles, kMalformedTask);

    next_id_ = std::max(next_id_, rec.key + 1);
    task.status.id = rec.key;
    task.status.files_total = nfiles;
    task.status.bytes_total = std::accumulate(task.files.begin(), task.files.end(), Bytes{0});
    task.status.submitted_at = submitted_at;
    // Files past the checkpoint cursor restart from scratch: the journal
    // records completed files, not the in-flight transfers the crash
    // killed. bytes_done is the checkpointed prefix.
    task.status.files_done = cursor;
    task.next_file = cursor;
    task.status.bytes_done = std::accumulate(task.files.begin(),
                                             task.files.begin() +
                                                 static_cast<std::ptrdiff_t>(cursor),
                                             Bytes{0});
    task.transfer_template = transfer_template;
    task.on_done = on_done;
    const std::uint64_t id = rec.key;
    auto [it, inserted] = tasks_.emplace(id, std::move(task));
    GRIDVC_REQUIRE(inserted, "duplicate task id in journal replay");
    queue_.push_back(id);
    if (it->second.status.deadline > 0.0) {
      // The deadline clock kept running through the crash.
      const Seconds remaining = submitted_at + it->second.status.deadline - now;
      it->second.deadline_event =
          sim_.schedule_in(std::max(remaining, 0.0), [this, id] { on_deadline(id); });
    }
    ++restored;
    ++tasks_recovered_;
    obs.registry().add(id_tasks_recovered_);
  }
  sync_queue_gauge();
  // aux=0 tags the transfer service's replay (aux=1 is the IDC's).
  obs.emit({now, obs::TraceEventType::kJournalReplay,
            static_cast<std::uint64_t>(restored), 0, 0.0, 0.0});
  maybe_start_next();
  return restored;
}

}  // namespace gridvc::gridftp
