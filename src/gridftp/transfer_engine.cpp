#include "gridftp/transfer_engine.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "obs/profiler.hpp"

namespace gridvc::gridftp {

TransferEngine::TransferEngine(net::Network& network, UsageStatsCollector& collector,
                               TransferEngineConfig config, Rng rng)
    : network_(network),
      collector_(collector),
      config_(config),
      tcp_(config.tcp),
      rng_(rng) {
  GRIDVC_REQUIRE(config_.server_noise_sigma >= 0.0, "noise sigma must be non-negative");

  obs::MetricsRegistry& reg = network_.simulator().obs().registry();
  id_submitted_ = reg.counter("gridvc_gridftp_transfers_submitted",
                              "Transfers accepted by the engine");
  id_completed_ = reg.counter("gridvc_gridftp_transfers_completed",
                              "Transfers that delivered every byte");
  id_attempts_ = reg.counter("gridvc_gridftp_attempts",
                             "Transfer attempts, restarts included");
  id_failures_ = reg.counter("gridvc_gridftp_failures",
                             "Attempts that died mid-transfer and were retried");
  id_aborted_ = reg.counter("gridvc_gridftp_aborted_attempts",
                            "Attempts killed by a link failure on the path");
  id_failed_ = reg.counter("gridvc_gridftp_transfers_failed",
                           "Transfers abandoned after max_aborts link-failure aborts");
  id_bytes_moved_ = reg.counter("gridvc_gridftp_bytes_moved",
                                "Payload bytes of completed transfers");
  id_active_ = reg.gauge("gridvc_gridftp_active_transfers",
                         "Transfers currently in flight");
  id_waiting_ = reg.gauge("gridvc_gridftp_waiting_transfers",
                          "Transfers parked on an offline endpoint server");
  id_crashes_ = reg.counter("gridvc_gridftp_server_crashes",
                            "Server crash events handled by the engine");
  id_stripes_hist_ = reg.histogram("gridvc_gridftp_stripes", {1, 2, 4, 8, 16},
                                   "Stripe count per submitted transfer");
  id_streams_hist_ = reg.histogram("gridvc_gridftp_streams", {1, 2, 4, 8, 16, 32},
                                   "Parallel TCP streams per submitted transfer");
  id_start_delay_hist_ = reg.log_histogram(
      "gridvc_gridftp_start_delay_seconds",
      "Submit -> first bytes on the wire (slow-start ramp, queueing)");
  id_duration_hist_ = reg.log_histogram(
      "gridvc_gridftp_transfer_seconds",
      "Submit -> last byte, retries included");
}

void TransferEngine::attach_listener(Server* server) {
  if (listened_.contains(server)) return;
  listened_.insert(server);
  server->set_change_listener([this, server] { refresh_caps(*server); });
}

void TransferEngine::register_endpoints(Active& t) {
  t.spec.src.server->add_transfer(t.id, t.spec.stripes,
                                  t.spec.src.io == IoMode::kMemory ? IoMode::kMemory
                                                                   : IoMode::kDiskRead);
  t.spec.dst.server->add_transfer(t.id, t.spec.stripes,
                                  t.spec.dst.io == IoMode::kMemory ? IoMode::kMemory
                                                                   : IoMode::kDiskWrite);
  t.registered = true;
}

bool TransferEngine::endpoints_online(const Active& t) const {
  return t.spec.src.server->online() && t.spec.dst.server->online();
}

void TransferEngine::set_waiting_gauge() {
  network_.simulator().obs().registry().set(id_waiting_,
                                            static_cast<double>(waiting_.size()));
}

std::uint64_t TransferEngine::submit(const TransferSpec& spec, DoneFn on_done) {
  GRIDVC_PROF_ZONE("gridftp.engine.submit");
  GRIDVC_REQUIRE(spec.src.server != nullptr && spec.dst.server != nullptr,
                 "transfer endpoints need servers");
  GRIDVC_REQUIRE(!spec.path.empty(), "transfer needs a network path");
  GRIDVC_REQUIRE(spec.size > 0, "transfer size must be positive");
  GRIDVC_REQUIRE(spec.streams >= 1 && spec.stripes >= 1, "streams/stripes must be >= 1");
  GRIDVC_REQUIRE(spec.rtt > 0.0, "RTT must be positive");

  const std::uint64_t id = next_id_++;
  Active t;
  t.id = id;
  t.spec = spec;
  t.submit_time = network_.simulator().now();
  t.lifetime = obs::SimSpan::begin(t.submit_time);
  // Lognormal efficiency factor clamped at 1: CPU/disk jitter can only
  // degrade a transfer below the configured hardware ceilings, never
  // exceed them.
  const double sigma = config_.server_noise_sigma;
  t.noise =
      sigma > 0.0 ? std::min(rng_.lognormal(-sigma * sigma / 2.0, sigma), 1.0) : 1.0;
  t.on_done = std::move(on_done);

  attach_listener(spec.src.server);
  attach_listener(spec.dst.server);
  const bool online = spec.src.server->online() && spec.dst.server->online();
  t.registered = online;

  auto [it, inserted] = transfers_.emplace(id, std::move(t));
  Active& active = it->second;
  if (online) register_endpoints(active);

  // The loss haircut and Slow Start penalty are computed against the
  // steady rate the transfer would get if alone on its current caps.
  const BitsPerSecond expected = std::max(1.0, transfer_cap(active));
  active.loss_factor =
      tcp_.loss_factor(spec.size, spec.streams, spec.rtt, expected, rng_);
  const Bytes per_stripe = stripe_chunk(spec.size, spec.stripes);
  const Seconds penalty = tcp_.slow_start_penalty(
      per_stripe, spec.streams, spec.rtt,
      std::max(1.0, expected / static_cast<double>(spec.stripes)));

  obs::Observability& obs = network_.simulator().obs();
  obs.registry().add(id_submitted_);
  obs.registry().set(id_active_, static_cast<double>(transfers_.size()));
  obs.registry().observe(id_stripes_hist_, static_cast<double>(spec.stripes));
  obs.registry().observe(id_streams_hist_, static_cast<double>(spec.streams));
  obs.emit({active.submit_time, obs::TraceEventType::kTransferSubmitted, id,
            static_cast<std::uint64_t>(spec.stripes), static_cast<double>(spec.size),
            static_cast<double>(spec.streams)});

  if (online) {
    active.injection =
        network_.simulator().schedule_in(penalty, [this, id] { begin_attempt(id); });
  } else {
    // An endpoint is down right now: park until handle_server_up resumes
    // us (the penalty is re-derived then — slow start restarts anyway).
    waiting_.insert(id);
    set_waiting_gauge();
  }
  return id;
}

BitsPerSecond TransferEngine::transfer_cap(const Active& t) const {
  const BitsPerSecond window =
      tcp_.window_cap(t.spec.streams, t.spec.rtt) * static_cast<double>(t.spec.stripes);
  // Between a crash and the next attempt the transfer holds no server
  // registrations, so shares are unqueryable; the window cap alone is a
  // sane planning estimate for backoff/penalty math (no flows exist yet).
  if (!t.registered) return std::max(1.0, window * t.noise * t.loss_factor);
  // Which side does disk I/O was fixed at registration, so share()
  // already reflects it.
  const BitsPerSecond src_share = t.spec.src.server->share(t.id);
  const BitsPerSecond dst_share = t.spec.dst.server->share(t.id);
  return std::max(1.0, std::min({src_share, dst_share, window}) * t.noise * t.loss_factor);
}

void TransferEngine::begin_attempt(std::uint64_t id) {
  GRIDVC_PROF_ZONE("gridftp.engine.begin_attempt");
  Active& t = transfers_.at(id);
  if (!endpoints_online(t)) {
    // A server crashed while our backoff/injection timer ran. Park; no
    // attempt is consumed — the client never got a control channel.
    waiting_.insert(id);
    set_waiting_gauge();
    return;
  }
  if (!t.registered) register_endpoints(t);
  const Bytes remaining = t.spec.size - t.bytes_done;
  ++t.attempts;
  ++stats_.attempts;

  obs::Observability& obs = network_.simulator().obs();
  obs.registry().add(id_attempts_);
  if (!t.started) {
    t.started = true;
    const Seconds wait = network_.simulator().now() - t.submit_time;
    obs.registry().observe(id_start_delay_hist_, wait);
    obs.emit({network_.simulator().now(), obs::TraceEventType::kTransferStarted, id, 0,
              wait, 0.0});
  }

  // Decide up front whether this attempt dies partway; the final allowed
  // attempt always goes through (GridFTP clients retry until done).
  t.attempt_fails = config_.failure_probability > 0.0 &&
                    t.attempts < config_.max_attempts &&
                    rng_.bernoulli(config_.failure_probability);
  if (t.attempt_fails) {
    const double fraction = rng_.uniform(0.05, 0.95);
    t.attempt_bytes = std::max<Bytes>(
        1, static_cast<Bytes>(static_cast<double>(remaining) * fraction));
  } else {
    t.attempt_bytes = remaining;
  }

  const BitsPerSecond cap = transfer_cap(t);
  const int stripes = t.spec.stripes;
  const Bytes per_stripe = stripe_chunk(t.attempt_bytes, stripes);
  t.flows.clear();
  t.attempt_delivered = 0;
  t.attempt_aborted = false;
  for (int s = 0; s < stripes; ++s) {
    net::FlowOptions opts;
    opts.cap = cap / static_cast<double>(stripes);
    opts.guarantee = t.spec.guarantee / static_cast<double>(stripes);
    opts.fail_on_link_down = true;  // data channels see the outage as an error
    const net::FlowId fid = network_.start_flow(
        t.spec.path, per_stripe, opts,
        [this, id](const net::FlowRecord& flow) { on_flow_complete(id, flow); });
    t.flows.push_back(fid);
  }
}

void TransferEngine::on_flow_complete(std::uint64_t id, const net::FlowRecord& flow) {
  Active& t = transfers_.at(id);
  const auto it = std::find(t.flows.begin(), t.flows.end(), flow.id);
  GRIDVC_REQUIRE(it != t.flows.end(), "flow completion for unknown stripe");
  t.flows.erase(it);
  if (!t.flows.empty()) resplit_.push_back(id);
  t.attempt_delivered += flow.delivered;
  if (flow.outcome == net::FlowOutcome::kFailed) {
    t.attempt_aborted = true;
  } else {
    network_.simulator().obs().emit(
        {network_.simulator().now(), obs::TraceEventType::kTransferStripeCompleted, id,
         static_cast<std::uint64_t>(t.flows.size()), 0.0, 0.0});
  }
  if (t.flows.empty()) attempt_complete(id);
}

void TransferEngine::attempt_complete(std::uint64_t id) {
  GRIDVC_PROF_ZONE("gridftp.engine.attempt_complete");
  Active& t = transfers_.at(id);
  // Restart-marker semantics: bytes any stripe delivered survive the
  // attempt, whether it completed, was cut short by the stochastic
  // failure model, or died with the link. Credit at most the planned
  // attempt size so stripe ceil-padding never inflates logical progress.
  t.bytes_done += std::min(t.attempt_delivered, t.attempt_bytes);
  const bool aborted = t.attempt_aborted;
  if (t.bytes_done >= t.spec.size) {
    finish(id);
    return;
  }
  obs::Observability& obs = network_.simulator().obs();
  if (aborted) {
    ++t.aborts;
    ++stats_.aborted_attempts;
    obs.registry().add(id_aborted_);
    const bool terminal = config_.max_aborts > 0 && t.aborts >= config_.max_aborts;
    obs.emit({network_.simulator().now(), obs::TraceEventType::kTransferAborted, id,
              static_cast<std::uint64_t>(t.attempts), static_cast<double>(t.bytes_done),
              terminal ? 1.0 : 0.0});
    if (terminal) {
      fail_permanently(id);
      return;
    }
    schedule_retry(id);
    return;
  }
  // This attempt failed partway: restart from the marker after a backoff
  // (plus a fresh Slow Start ramp for the new connections).
  GRIDVC_REQUIRE(t.attempt_fails, "attempt fell short without a failure");
  ++stats_.failures;
  obs.registry().add(id_failures_);
  schedule_retry(id);
}

void TransferEngine::schedule_retry(std::uint64_t id) {
  Active& t = transfers_.at(id);
  // Every scheduled restart announces itself, whatever ended the previous
  // attempt (stochastic failure, link abort, server crash): the trace
  // checker pairs each non-terminal transfer_aborted with the retry that
  // resolves it. v2 carries the abort count, omitted-when-zero keeps the
  // classic failure-only traces byte-identical.
  network_.simulator().obs().emit(
      {network_.simulator().now(), obs::TraceEventType::kTransferRetry, id,
       static_cast<std::uint64_t>(t.attempts), static_cast<double>(t.bytes_done),
       static_cast<double>(t.aborts)});
  const Bytes remaining = t.spec.size - t.bytes_done;
  const Seconds penalty = tcp_.slow_start_penalty(
      std::max<Bytes>(stripe_chunk(remaining, t.spec.stripes), 1),
      t.spec.streams, t.spec.rtt,
      std::max(1.0, transfer_cap(t) / static_cast<double>(t.spec.stripes)));
  const Seconds backoff = config_.backoff.delay(std::max(t.attempts, 1), rng_);
  t.injection = network_.simulator().schedule_in(backoff + penalty,
                                                 [this, id] { begin_attempt(id); });
}

void TransferEngine::finish(std::uint64_t id) {
  GRIDVC_PROF_ZONE("gridftp.engine.finish");
  auto node = transfers_.extract(id);
  Active& t = node.mapped();
  const Seconds now = network_.simulator().now();

  TransferRecord record;
  record.type = t.spec.type;
  record.size = t.spec.size;
  record.start_time = t.submit_time;
  record.duration = now - t.submit_time;
  record.server_host = t.spec.type == TransferType::kRetrieve ? t.spec.src.server->name()
                                                              : t.spec.dst.server->name();
  record.remote_host = t.spec.remote_host;
  record.streams = t.spec.streams;
  record.stripes = t.spec.stripes;
  record.tcp_buffer = tcp_.config().stream_buffer;
  record.block_size = t.spec.block_size;

  if (t.registered) {
    t.spec.src.server->remove_transfer(id);
    t.spec.dst.server->remove_transfer(id);
  }
  if (waiting_.erase(id) > 0) set_waiting_gauge();

  ++stats_.completed;
  obs::Observability& obs = network_.simulator().obs();
  obs.registry().add(id_completed_);
  obs.registry().add(id_bytes_moved_, t.spec.size);
  obs.registry().set(id_active_, static_cast<double>(transfers_.size()));
  t.lifetime.end_observe(obs.registry(), id_duration_hist_, now);
  obs.emit({now, obs::TraceEventType::kTransferFinished, id,
            static_cast<std::uint64_t>(t.attempts), record.duration,
            static_cast<double>(t.spec.size)});
  collector_.report(record);
  if (t.on_done) t.on_done(record);
}

void TransferEngine::fail_permanently(std::uint64_t id) {
  auto node = transfers_.extract(id);
  Active& t = node.mapped();
  const Seconds now = network_.simulator().now();
  GRIDVC_REQUIRE(t.flows.empty(), "permanent failure with flows still in flight");

  TransferRecord record;
  record.type = t.spec.type;
  record.size = t.spec.size;
  record.start_time = t.submit_time;
  record.duration = now - t.submit_time;
  record.server_host = t.spec.type == TransferType::kRetrieve ? t.spec.src.server->name()
                                                              : t.spec.dst.server->name();
  record.remote_host = t.spec.remote_host;
  record.streams = t.spec.streams;
  record.stripes = t.spec.stripes;
  record.tcp_buffer = tcp_.config().stream_buffer;
  record.block_size = t.spec.block_size;
  record.failed = true;

  if (t.registered) {
    t.spec.src.server->remove_transfer(id);
    t.spec.dst.server->remove_transfer(id);
  }
  if (waiting_.erase(id) > 0) set_waiting_gauge();

  ++stats_.failed_transfers;
  obs::Observability& obs = network_.simulator().obs();
  obs.registry().add(id_failed_);
  obs.registry().set(id_active_, static_cast<double>(transfers_.size()));
  collector_.report(record);
  if (t.on_done) t.on_done(record);
}

void TransferEngine::handle_server_down(Server* server) {
  GRIDVC_REQUIRE(server != nullptr, "handle_server_down needs a server");
  if (server->online()) server->set_online(false);
  const Seconds now = network_.simulator().now();
  obs::Observability& obs = network_.simulator().obs();
  ++stats_.server_crashes;
  obs.registry().add(id_crashes_);

  // Phase 1 — collect the transfers that touch the dead server and are
  // not already parked. transfers_ is id-ordered, so the abort order (and
  // with it every downstream event) is deterministic.
  std::vector<std::uint64_t> affected;
  for (auto& [id, t] : transfers_) {
    if ((t.spec.src.server == server || t.spec.dst.server == server) &&
        !waiting_.contains(id)) {
      affected.push_back(id);
    }
  }
  obs.emit({now, obs::TraceEventType::kServerDown, server->config().id,
            static_cast<std::uint64_t>(affected.size()), 0.0, 0.0});

  // Phase 2 — kill the data plane. Settle each live flow's delivered
  // bytes first (they survive as GridFTP restart markers), then abort it;
  // abort_flow fires no completion callback, so attempt_complete never
  // runs for these.
  for (std::uint64_t id : affected) {
    Active& t = transfers_.at(id);
    t.injection.cancel();
    if (!t.flows.empty()) {
      for (net::FlowId fid : t.flows) {
        t.attempt_delivered += network_.sent_bytes(fid);
        network_.abort_flow(fid);
      }
      t.flows.clear();
      t.attempt_aborted = true;
    }
  }

  // Phase 3 — drop the survivors' registrations at their other endpoint
  // (the dead server already cleared its own). Safe now: every affected
  // transfer has empty flows, so each notify -> refresh_caps skips them
  // and never queries a share the dead server no longer has.
  for (std::uint64_t id : affected) {
    Active& t = transfers_.at(id);
    if (!t.registered) continue;
    Server* other = t.spec.src.server == server ? t.spec.dst.server : t.spec.src.server;
    if (other != server && other->online()) other->remove_transfer(id);
    t.registered = false;
  }

  // Phase 4 — settle outcomes: credit restart markers, charge the killed
  // attempt as an abort (terminal after max_aborts), park the rest.
  for (std::uint64_t id : affected) {
    Active& t = transfers_.at(id);
    const bool killed_attempt = t.attempt_aborted;
    t.attempt_aborted = false;
    if (killed_attempt) {
      t.bytes_done += std::min(t.attempt_delivered, t.attempt_bytes);
      t.attempt_delivered = 0;
    }
    if (t.bytes_done >= t.spec.size) {
      finish(id);
      continue;
    }
    if (killed_attempt) {
      ++t.aborts;
      ++stats_.aborted_attempts;
      obs.registry().add(id_aborted_);
      const bool terminal = config_.max_aborts > 0 && t.aborts >= config_.max_aborts;
      obs.emit({now, obs::TraceEventType::kTransferAborted, id,
                static_cast<std::uint64_t>(t.attempts), static_cast<double>(t.bytes_done),
                terminal ? 1.0 : 0.0});
      if (terminal) {
        fail_permanently(id);
        continue;
      }
    }
    waiting_.insert(id);
  }
  set_waiting_gauge();
}

void TransferEngine::handle_server_up(Server* server) {
  GRIDVC_REQUIRE(server != nullptr, "handle_server_up needs a server");
  if (!server->online()) server->set_online(true);
  const Seconds now = network_.simulator().now();
  obs::Observability& obs = network_.simulator().obs();
  obs.emit({now, obs::TraceEventType::kServerUp, server->config().id, 0, 0.0, 0.0});

  std::vector<std::uint64_t> resumable;
  for (std::uint64_t id : waiting_) {
    if (endpoints_online(transfers_.at(id))) resumable.push_back(id);
  }
  for (std::uint64_t id : resumable) {
    waiting_.erase(id);
    Active& t = transfers_.at(id);
    if (t.attempts == 0) {
      // Submitted while an endpoint was down: this is its first injection,
      // so pay the normal Slow Start ramp rather than a retry backoff.
      const Seconds penalty = tcp_.slow_start_penalty(
          stripe_chunk(t.spec.size, t.spec.stripes), t.spec.streams, t.spec.rtt,
          std::max(1.0, transfer_cap(t) / static_cast<double>(t.spec.stripes)));
      const std::uint64_t id_copy = id;
      t.injection = network_.simulator().schedule_in(
          penalty, [this, id_copy] { begin_attempt(id_copy); });
    } else {
      schedule_retry(id);
    }
  }
  set_waiting_gauge();
}

void TransferEngine::set_guarantee(std::uint64_t transfer_id, BitsPerSecond guarantee) {
  const auto it = transfers_.find(transfer_id);
  // Circuit callbacks legitimately outlive the transfers they fed (the
  // transfer finished or failed while its circuit was still active).
  if (it == transfers_.end()) return;
  Active& t = it->second;
  t.spec.guarantee = guarantee;
  // During a retry backoff there are no flows; the stored spec value
  // applies when the next attempt starts. Otherwise split across the
  // attempt's live flows — completed stripes have already left t.flows.
  if (t.flows.empty()) return;
  const BitsPerSecond share = guarantee / static_cast<double>(t.flows.size());
  for (net::FlowId fid : t.flows) {
    network_.update_guarantee(fid, share);
  }
}

void TransferEngine::refresh_caps(const Server& changed) {
  // Server callbacks fire inside add/remove_transfer, including from our
  // own submit/finish paths; the guard prevents re-entrant refresh storms.
  if (refreshing_) return;
  refreshing_ = true;
  // A change at one server moves only the shares registered there; every
  // other transfer's pushed cap is still current (update_caps would skip
  // it). The exception is a transfer whose stripe finished since its
  // last push: its cap re-splits over fewer live flows. One batched push
  // runs a single allocator pass. A link failure removes all the flows it
  // kills before their callbacks fire, so a flow listed here may already
  // be gone; its own callback settles its transfer.
  caps_.clear();
  const auto push = [this](std::uint64_t id) {
    const auto it = transfers_.find(id);
    if (it == transfers_.end() || it->second.flows.empty()) return;
    const Active& t = it->second;
    const BitsPerSecond cap = transfer_cap(t);
    for (net::FlowId fid : t.flows) {
      if (!network_.has_flow(fid)) continue;
      caps_.emplace_back(fid, cap / static_cast<double>(t.flows.size()));
    }
  };
  changed.for_each_transfer(push);
  for (std::uint64_t id : resplit_) push(id);
  resplit_.clear();
  network_.update_caps(caps_);
  refreshing_ = false;
}

}  // namespace gridvc::gridftp
