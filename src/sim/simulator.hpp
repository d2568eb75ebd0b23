// Discrete-event simulation engine.
//
// All dynamic subsystems (the flow-level network, the GridFTP transfer
// engine, the virtual-circuit controller, cross-traffic sources, SNMP
// samplers) are driven by one Simulator. Events are (time, callback)
// pairs; ties are broken by insertion order so runs are deterministic.
//
// Scheduled events can be cancelled through the returned EventHandle —
// flow completions are rescheduled every time the fair-share allocator
// changes a flow's rate, so schedule/cancel is the hot path. Event
// records live in a slab: the binary heap holds only small POD entries
// {when, seq, slot, generation}, a cancel is a generation bump (no heap
// surgery), and stale heap entries are skipped at pop time and compacted
// away in bulk once dead entries outnumber live ones.
//
// A callback may also defer work to its own end (Simulator::defer): the
// network marks its allocation stale on every flow-set change and runs
// one fair-share pass once the callback that made the changes returns,
// before the next event — same-timestamp ones included — is popped.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/id_slab.hpp"
#include "common/inline_function.hpp"
#include "common/units.hpp"
#include "obs/observability.hpp"

namespace gridvc::sim {

class Simulator;

/// Cancellation token for a scheduled event. Copyable; all copies refer to
/// the same scheduled occurrence. Handles must not outlive the Simulator
/// that issued them.
class EventHandle {
 public:
  EventHandle() = default;

  /// Prevent the event from firing. Idempotent; safe after the event fired.
  void cancel();

  /// True if the event has neither fired nor been cancelled. For periodic
  /// events, true until the series is cancelled or its callback stops it.
  bool pending() const;

 private:
  friend class Simulator;
  EventHandle(Simulator* sim, std::uint32_t slot, std::uint64_t generation)
      : sim_(sim), slot_(slot), generation_(generation) {}
  Simulator* sim_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint64_t generation_ = 0;
};

/// Work a callback hands to its own end (see Simulator::defer). The
/// owner keeps the task as a member, next to the state it reads, and
/// destroying a queued task takes it off the queue, so a queued task
/// never outlives its owner. The queue links the tasks themselves, so
/// deferring allocates nothing.
class DeferredTask {
 public:
  explicit DeferredTask(InlineFunction<void()> fn) : fn_(std::move(fn)) {}
  ~DeferredTask();
  DeferredTask(const DeferredTask&) = delete;
  DeferredTask& operator=(const DeferredTask&) = delete;

  /// True while the task waits for the running callback to return.
  bool queued() const { return queued_on_ != nullptr; }

 private:
  friend class Simulator;
  InlineFunction<void()> fn_;
  Simulator* queued_on_ = nullptr;
  DeferredTask* next_ = nullptr;  ///< next in queued_on_'s queue
};

/// The event loop.
class Simulator {
 public:
  /// Event payloads live inline in the event slab (no heap per event);
  /// a closure larger than kInlineCallbackBytes does not compile.
  using Callback = InlineFunction<void()>;
  /// A periodic payload: returns true to keep the series going.
  using PeriodicCallback = InlineFunction<bool()>;

  Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// The simulation's observability context (metrics registry + trace
  /// sink). Every subsystem that holds the simulator instruments itself
  /// through this.
  obs::Observability& obs() { return obs_; }
  const obs::Observability& obs() const { return obs_; }

  /// Current simulation time (seconds since epoch 0).
  Seconds now() const { return now_; }

  /// Schedule `fn` at absolute time `when`. Scheduling in the past (before
  /// now()) is a precondition violation.
  EventHandle schedule_at(Seconds when, Callback fn);

  /// Schedule `fn` after `delay` seconds. Requires delay >= 0.
  EventHandle schedule_in(Seconds delay, Callback fn);

  /// Schedule `fn` every `period` seconds, first firing at `start`.
  /// The callback returns true to continue, false to stop.
  EventHandle schedule_periodic(Seconds start, Seconds period, PeriodicCallback fn);

  /// Run `task` once the callback being dispatched returns, before the
  /// next event is popped (same-timestamp events of its batch included)
  /// and before a periodic series re-arms. Tasks run in the order they
  /// were deferred; one that defers another runs it in the same drain.
  /// Deferring a task that is already queued does nothing. Outside any
  /// callback (outside run(), run_until() and step()) the task runs at
  /// once. A callback or task that throws drops every queued task.
  void defer(DeferredTask& task);

  /// Run until the queue is empty. Events sharing a timestamp are popped
  /// from the heap as one batch and dispatched back to back (in seq
  /// order, so FIFO tie-breaking is unchanged) — the heap is touched
  /// once per batch instead of being re-examined between every pair of
  /// simultaneous events. Not reentrant: callbacks must not call run().
  void run();

  /// Run events with time <= `deadline`; afterwards now() == max(now, deadline).
  /// Uses the same batched dispatch as run().
  void run_until(Seconds deadline);

  /// Process exactly one event if any is queued; returns false when empty.
  bool step();

  /// Timestamp of the earliest live event, or nothing when idle. Drops
  /// cancelled tombstones off the heap top as a side effect; O(1) amortized.
  /// Conservative lookahead scheduling (src/shard/) polls this every
  /// barrier round to pick the next epoch horizon.
  std::optional<Seconds> next_event_time();

  /// Number of events dispatched so far (diagnostics).
  std::uint64_t dispatched() const { return obs_.registry().counter_value(id_dispatched_); }

  /// Number of queue pushes so far, periodic re-arms included.
  std::uint64_t scheduled() const { return obs_.registry().counter_value(id_scheduled_); }

  /// Number of events cancelled before they could fire.
  std::uint64_t cancelled() const { return obs_.registry().counter_value(id_cancelled_); }

  /// Events currently scheduled and neither fired nor cancelled.
  std::size_t live_events() const { return live_; }

  /// True when no live (non-cancelled) events remain. Exact: cancelled
  /// tombstones still sitting in the heap do not count as busy.
  bool idle() const { return live_ == 0; }

 private:
  friend class EventHandle;
  friend class DeferredTask;

  /// One slab record. A slot is live while its event awaits dispatch (or,
  /// for periodic series, for the whole series); the generation is bumped
  /// on every release so stale heap entries and stale handles miss.
  struct Slot {
    Callback fn;  // one-shot payload; a periodic one lives in repeats_
    std::uint64_t generation = 1;
    Seconds period = 0.0;
    bool live = false;
    bool periodic = false;
  };

  /// Heap entry: POD only; the callback stays in the slab.
  struct QueuedEvent {
    Seconds when;
    std::uint64_t seq;  // FIFO tie-break for equal timestamps
    std::uint32_t slot;
    std::uint64_t generation;
  };
  struct Later {
    bool operator()(const QueuedEvent& a, const QueuedEvent& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot);
  void push_entry(Seconds when, std::uint32_t slot, std::uint64_t generation);
  bool entry_live(const QueuedEvent& e) const;
  // Pops stale entries (released or re-armed-elsewhere slots) off the top.
  void drop_dead_events();
  // Rebuilds the heap without tombstones once they outnumber live events.
  void maybe_compact();
  // Pops every live entry sharing the earliest timestamp <= deadline into
  // batch_ (seq order preserved). Returns false when nothing qualifies.
  bool collect_batch(Seconds deadline);
  // Runs one popped entry: advances now_, counts the dispatch, fires the
  // callback and then what it deferred (re-arming periodic series). The
  // entry must be live.
  void dispatch_entry(const QueuedEvent& e);
  // Pops the deferred queue in order, tasks deferred meanwhile included.
  void run_deferred();
  // Takes a task that is being destroyed off the queue.
  void unqueue(DeferredTask& task);
  // Forgets every queued task and leaves the dispatching state.
  void drop_deferred();
  // Holds the dispatching state for one run(), run_until() or step().
  class DispatchScope;

  void cancel_event(std::uint32_t slot, std::uint64_t generation);
  bool event_pending(std::uint32_t slot, std::uint64_t generation) const;

  void set_live(std::size_t live) {
    live_ = live;
    obs_.registry().set(id_live_, static_cast<double>(live));
  }

  obs::Observability obs_;  // first: metric ids below are registered from it
  obs::MetricId id_scheduled_;
  obs::MetricId id_cancelled_;
  obs::MetricId id_dispatched_;
  obs::MetricId id_compactions_;
  obs::MetricId id_batches_;
  obs::MetricId id_live_;
  std::vector<QueuedEvent> heap_;
  std::vector<QueuedEvent> batch_;  // same-timestamp dispatch buffer
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  /// Payloads of the (few, long-lived) periodic series, by slot, so the
  /// slab's records carry one callback each.
  IdSlab<std::uint32_t, PeriodicCallback> repeats_;
  Seconds now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::size_t live_ = 0;
  /// Tasks the running callback deferred, linked through DeferredTask::next_.
  DeferredTask* deferred_head_ = nullptr;
  DeferredTask* deferred_tail_ = nullptr;
  bool dispatching_ = false;  ///< inside run(), run_until() or step()
};

}  // namespace gridvc::sim
