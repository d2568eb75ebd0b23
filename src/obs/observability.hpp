// The per-simulation observability context: one MetricsRegistry plus an
// optional TraceSink, owned by sim::Simulator so every layer that holds
// the simulator (network, engine, service, IDC) reaches it without extra
// plumbing. The sink is the only place a trace event goes.
#pragma once

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace gridvc::obs {

class Observability {
 public:
  Observability() = default;
  Observability(const Observability&) = delete;
  Observability& operator=(const Observability&) = delete;

  MetricsRegistry& registry() { return registry_; }
  const MetricsRegistry& registry() const { return registry_; }

  /// Attach (or detach, with nullptr) the trace sink. Non-owning; the
  /// sink must outlive the simulation it records.
  void set_trace_sink(TraceSink* sink) { sink_ = sink; }
  TraceSink* trace_sink() const { return sink_; }

  bool tracing() const { return sink_ != nullptr; }
  /// One null-check when no sink is attached — cheap enough to call
  /// unconditionally from instrumented hot paths.
  void emit(const TraceEvent& event) {
    if (sink_) sink_->emit(event);
  }

 private:
  MetricsRegistry registry_;
  TraceSink* sink_ = nullptr;
};

}  // namespace gridvc::obs
