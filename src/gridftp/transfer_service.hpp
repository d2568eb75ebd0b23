// Managed transfer service, in the spirit of Globus Online (§V).
//
// The paper's users drive GridFTP from hand-rolled scripts (the sessions
// of §VI-A); the hosted-service successor queues *tasks* — a named batch
// of files between two endpoints — schedules them with bounded
// concurrency, rides out failures via the engine's restart-marker
// retries, and exposes queryable progress. This layer is what converts
// "sessions" from an emergent artifact of user scripts into a first-class
// scheduling unit — exactly the entity a VC-aware service would request
// circuits for.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "gridftp/transfer_engine.hpp"
#include "recovery/journal.hpp"
#include "sim/simulator.hpp"

namespace gridvc::gridftp {

struct TransferServiceConfig {
  /// Tasks running at once; excess submissions queue FIFO. The queue is
  /// unbounded: bounded waiting, overload policy and tenancy belong to
  /// the admission front-end (frontend::FrontEnd).
  int max_active_tasks = 4;
  /// Transfers in flight per task.
  int per_task_concurrency = 2;
  /// Optional write-ahead journal for task state. When set, submissions
  /// are appended, per-file progress checkpointed, and terminal tasks
  /// tombstoned, so crash_and_recover() can rebuild the queue after a
  /// service crash. Must outlive the service.
  recovery::Journal* journal = nullptr;
};

enum class TaskState : std::uint8_t {
  kQueued,
  kActive,
  kSucceeded,
  kCancelled,
  /// Dropped by a missed deadline — terminal like kCancelled but
  /// distinguishable.
  kShed,
};

struct TaskStatus {
  std::uint64_t id = 0;
  std::string label;
  TaskState state = TaskState::kQueued;
  std::size_t files_total = 0;
  std::size_t files_done = 0;
  std::size_t files_failed = 0;  ///< permanently-failed transfers (not in files_done)
  Bytes bytes_total = 0;
  Bytes bytes_done = 0;
  Seconds submitted_at = 0.0;
  Seconds started_at = 0.0;
  Seconds finished_at = 0.0;
  /// Scheduler churn over the task's active window: simulator counter
  /// deltas between start and finish. Zero until the task finishes;
  /// overlapping tasks share the simulator, so attribution is approximate
  /// when tasks run concurrently.
  std::uint64_t events_scheduled = 0;
  std::uint64_t events_cancelled = 0;
  std::uint64_t events_dispatched = 0;

  double progress() const {
    return bytes_total > 0
               ? static_cast<double>(bytes_done) / static_cast<double>(bytes_total)
               : 0.0;
  }
};

class TransferService {
 public:
  using TaskDoneFn = std::function<void(const TaskStatus&)>;

  TransferService(sim::Simulator& sim, TransferEngine& engine,
                  TransferServiceConfig config = {});
  TransferService(const TransferService&) = delete;
  TransferService& operator=(const TransferService&) = delete;

  /// Queue a task: move `files` using `transfer_template` (size filled
  /// per file). Requires at least one file. Returns the task id.
  /// `on_done` fires once, synchronously, when the task turns terminal.
  /// `deadline` (0 = none) is a whole-task timeout from submission: a
  /// task not finished by then is shed — a queued one at once, an active
  /// one stops submitting files and terminates as kShed when its
  /// in-flight transfers drain. It sits above the engine's own
  /// per-transfer retry bounds in the timeout hierarchy.
  std::uint64_t submit(std::string label, std::vector<Bytes> files,
                       TransferSpec transfer_template, TaskDoneFn on_done = nullptr,
                       Seconds deadline = 0.0);

  /// Simulate a service process crash followed by a restart that replays
  /// the configured journal. All in-memory task state dies (completions
  /// of transfers the dead process started are ignored); every journaled
  /// non-terminal task is rebuilt with its original id, label, deadline,
  /// and the files its progress checkpoint says are still unmoved, and
  /// re-queued in id order. `transfer_template` supplies the engine spec
  /// for resumed work (endpoint/path wiring is process state, not journal
  /// state); `on_done`, if set, is attached to every recovered task —
  /// original callbacks do not survive a crash. Returns tasks restored.
  std::size_t crash_and_recover(const TransferSpec& transfer_template,
                                TaskDoneFn on_done = nullptr);

  /// Cancel a task. Queued tasks never start; active tasks stop
  /// submitting new files (in-flight transfers drain and are counted).
  /// Completed tasks are left untouched; returns whether the cancel had
  /// any effect.
  bool cancel(std::uint64_t task_id);

  /// Update the rate guarantee attached to a task's transfers: files not
  /// yet started inherit it through the task's transfer template, and
  /// transfers already in flight are re-pinned via
  /// TransferEngine::set_guarantee. This is how a shaped (malleable)
  /// circuit's stepwise profile is driven into the data plane — callers
  /// invoke it at each profile step boundary. Unknown ids are ignored (a
  /// profile step may outlive its task).
  void set_task_guarantee(std::uint64_t task_id, BitsPerSecond guarantee);

  /// Current status snapshot. Throws NotFoundError for unknown ids.
  const TaskStatus& status(std::uint64_t task_id) const;

  std::size_t queued_tasks() const { return queue_.size(); }
  std::size_t active_tasks() const { return active_; }

  /// The configuration the service was built with (the admission
  /// front-end reads max_active_tasks to size its dispatch window).
  const TransferServiceConfig& config() const { return config_; }

  /// Snapshot of every task the service knows about, id order.
  std::vector<TaskStatus> statuses() const;

  /// Deadline/recovery accounting across the service's lifetime.
  std::uint64_t tasks_shed() const { return tasks_shed_; }
  std::uint64_t tasks_recovered() const { return tasks_recovered_; }

  /// Crash epoch: bumped by crash_and_recover. Mostly for tests.
  std::uint64_t epoch() const { return epoch_; }

 private:
  struct Task {
    TaskStatus status;
    std::vector<Bytes> files;
    TransferSpec transfer_template;
    Seconds deadline = 0.0;  ///< from submit(); 0 = none
    std::size_t next_file = 0;
    std::size_t in_flight = 0;
    /// Engine ids of this task's in-flight transfers, so a guarantee
    /// change (circuit activation, shaped-profile step) reaches work
    /// already submitted.
    std::vector<std::uint64_t> live_transfers;
    bool cancelled = false;
    bool shed = false;  ///< deadline fired while active; terminal state kShed
    sim::Simulator::Counters counters_at_start;
    sim::EventHandle deadline_event;
    TaskDoneFn on_done;
  };

  void maybe_start_next();
  void pump(std::uint64_t task_id);
  void on_transfer_done(std::uint64_t task_id, std::uint64_t transfer_id,
                        const TransferRecord& record);
  /// kTaskShed trace aux for a missed deadline, the service's only shed
  /// cause; 3 keeps the trace schema stable for its consumers.
  static constexpr std::uint64_t kShedDeadline = 3;

  void finish_task(Task& task, TaskState state);
  /// Terminate a task that never held an active slot (client cancel or
  /// missed deadline): it leaves the queue and the journal, and on_done
  /// fires synchronously.
  void drop_queued(Task& task, TaskState state);
  void on_deadline(std::uint64_t task_id);
  void journal_task(const Task& task);
  void sync_queue_gauge();

  sim::Simulator& sim_;
  TransferEngine& engine_;
  TransferServiceConfig config_;
  std::map<std::uint64_t, Task> tasks_;
  std::deque<std::uint64_t> queue_;
  std::size_t active_ = 0;
  std::uint64_t next_id_ = 1;
  std::uint64_t epoch_ = 0;
  std::uint64_t tasks_shed_ = 0;
  std::uint64_t tasks_recovered_ = 0;
  obs::MetricId id_tasks_submitted_;
  obs::MetricId id_tasks_completed_;
  obs::MetricId id_tasks_cancelled_;
  obs::MetricId id_tasks_shed_;
  obs::MetricId id_tasks_recovered_;
  obs::MetricId id_queued_gauge_;
  obs::MetricId id_active_gauge_;
  obs::MetricId id_queue_wait_hist_;
};

}  // namespace gridvc::gridftp
