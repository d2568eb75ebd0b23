#include "shard/sharded_simulation.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <limits>
#include <utility>

#include "common/error.hpp"
#include "common/id_slab.hpp"
#include "exec/rng_stream.hpp"
#include "gridftp/server.hpp"
#include "gridftp/transfer_engine.hpp"
#include "gridftp/usage_stats.hpp"
#include "net/network.hpp"
#include "obs/profiler.hpp"
#include "sim/simulator.hpp"
#include "vc/idc.hpp"

namespace gridvc::shard {

namespace {

using SegKey = std::pair<std::uint64_t, std::uint32_t>;  // (transfer, leg)

/// A world's cached next event time when it has no events.
constexpr Seconds kNever = std::numeric_limits<Seconds>::infinity();

vc::IdcConfig world_idc_config() {
  vc::IdcConfig config;
  // Chain segments use the paper's 50 ms immediate-signaling scenario:
  // hop-by-hop booking latency comes from the gateway channels, not from
  // batch boundaries.
  config.mode = vc::SignalingMode::kImmediate;
  config.immediate_setup_delay = 0.05;
  config.reservable_fraction = 0.5;
  return config;
}

}  // namespace

struct ShardedSimulation::DomainWorld {
  struct HostState {
    net::NodeId global = 0;
    std::unique_ptr<gridftp::Server> server;
    /// This host's users, (arrival time, user id), arrival order.
    std::vector<std::pair<Seconds, std::uint64_t>> arrivals;
    std::size_t next_arrival = 0;
    /// Users with a file ready to start, FIFO behind the concurrency cap:
    /// a ring with one slot per user of the host, who has at most one
    /// file ready or running at a time. Sized in set-up, so run() never
    /// grows it.
    std::vector<std::pair<std::uint64_t, std::uint32_t>> ready;  // (user, file)
    std::size_t ready_head = 0;
    std::size_t ready_count = 0;
    int active = 0;

    void push_ready(std::uint64_t user, std::uint32_t file) {
      GRIDVC_REQUIRE(ready_count < ready.size(), "a user has two files ready at once");
      ready[(ready_head + ready_count++) % ready.size()] = {user, file};
    }
    std::pair<std::uint64_t, std::uint32_t> pop_ready() {
      const auto front = ready[ready_head];
      ready_head = (ready_head + 1) % ready.size();
      --ready_count;
      return front;
    }
  };
  struct SegmentWork {
    Route route;
    Bytes bytes = 0;
  };
  struct ChainSegment {
    std::uint64_t circuit = 0;
    BitsPerSecond rate = 0.0;
    bool active = false;    ///< activation fired (release vs cancel choice)
    bool released = false;  ///< any terminal transition already happened
  };
  struct OriginFlight {
    std::uint64_t user = 0;
    std::uint32_t file = 0;
    std::uint32_t host = 0;  ///< index into hosts
    Bytes bytes = 0;
    Route route;
  };

  ShardedSimulation& owner;
  const std::uint32_t index;
  const DomainPartition::Domain& dom;
  sim::Simulator sim;
  net::Network net;
  vc::Idc idc;
  gridftp::UsageStatsCollector collector;
  gridftp::TransferEngine engine;
  std::unique_ptr<gridftp::Server> relay_in;   ///< ingress border DTNs
  std::unique_ptr<gridftp::Server> relay_out;  ///< egress border DTNs
  std::vector<HostState> hosts;
  /// Local node id -> index into hosts (kNoHost for routers and proxies):
  /// a final leg finds its destination host in O(1).
  std::vector<std::uint32_t> host_of_local;
  static constexpr std::uint32_t kNoHost = 0xffffffffu;

  std::vector<ShardMessage> outbox;
  /// Messages delivered at a barrier and not yet handled; the delivery
  /// event carries the slot. Slots are reused, so the inbox holds at most
  /// the peak number of undelivered messages.
  std::vector<ShardMessage> inbox;
  std::vector<std::uint32_t> inbox_free;
  std::uint64_t send_seq = 0;
  std::uint64_t next_transfer = 1;

  IdSlab<SegKey, SegmentWork> segments;
  IdSlab<SegKey, ChainSegment> chains;
  IdSlab<std::uint64_t, OriginFlight> inflight;
  /// Reused buffers: the global path of the file being started, and the
  /// spec of the leg being submitted (copied by the engine).
  net::Path path_scratch;
  gridftp::TransferSpec spec_scratch;

  /// Time of this world's next event, kNever when it has none; the
  /// barrier reads this instead of the heap (see the header). Next to
  /// open_sessions, the other field every barrier reads.
  Seconds next_time = kNever;
  // Per-world accounting, merged serially after the run.
  std::uint64_t open_sessions = 0;
  std::uint64_t transfers_started = 0;
  std::uint64_t transfers_completed = 0;
  std::uint64_t segments_completed = 0;
  std::uint64_t chains_requested = 0;
  std::uint64_t chains_granted = 0;
  std::uint64_t chains_rejected = 0;
  Bytes bytes_planned = 0;
  Bytes bytes_delivered = 0;

  DomainWorld(ShardedSimulation& owner_, std::uint32_t index_)
      : owner(owner_),
        index(index_),
        dom(owner_.partition_.domain(index_)),
        sim(),
        net(sim, dom.topo),
        idc(sim, dom.topo, world_idc_config()),
        collector(),
        engine(net, collector, gridftp::TransferEngineConfig{},
               exec::stream_rng(owner_.scenario_.seed ^ 0x5A4D0ULL, index_)) {
    collector.set_keep_log(false);
    const auto& config = owner.scenario_.config;
    relay_in = std::make_unique<gridftp::Server>(gridftp::ServerConfig{
        dom.name + ".relay.in", 100000 + index, config.relay_nic, 0.0, 0.0,
        config.relay_pool});
    relay_out = std::make_unique<gridftp::Server>(gridftp::ServerConfig{
        dom.name + ".relay.out", 200000 + index, config.relay_nic, 0.0, 0.0,
        config.relay_pool});

    // Hosts + their user arrival schedules. A host's users are the
    // arithmetic sequence {host ordinal + j * total hosts}; their arrival
    // times are pure functions of (seed, user), sorted here once.
    const std::uint64_t total_hosts =
        static_cast<std::uint64_t>(config.sites) * config.hosts_per_site;
    host_of_local.assign(dom.topo.node_count(), kNoHost);
    hosts.reserve(dom.global_hosts.size());
    for (net::NodeId global_host : dom.global_hosts) {
      host_of_local[owner.partition_.local_node(global_host)] =
          static_cast<std::uint32_t>(hosts.size());
      HostState& h = hosts.emplace_back();
      h.global = global_host;
      h.server = std::make_unique<gridftp::Server>(gridftp::ServerConfig{
          owner.partition_.global().node(global_host).name, global_host,
          config.host_nic, 0.0, 0.0, 1});
    }
    const auto& scenario = owner.scenario_;
    for (std::uint32_t hi = 0; hi < hosts.size(); ++hi) {
      HostState& h = hosts[hi];
      const std::uint64_t first = scenario.host_ordinal[h.global];
      GRIDVC_REQUIRE(first != workload::FederationScenario::kNotAHost,
                     "host not found in any federation site");
      const std::uint64_t users =
          first < config.users ? (config.users - 1 - first) / total_hosts + 1 : 0;
      h.arrivals.reserve(users);
      h.ready.resize(users);
      for (std::uint64_t u = first; u < config.users; u += total_hosts) {
        h.arrivals.emplace_back(scenario.arrival_time(u), u);
      }
      std::sort(h.arrivals.begin(), h.arrivals.end());
      pump_arrivals(hi);
    }
  }

  void pump_arrivals(std::uint32_t hi) {
    HostState& h = hosts[hi];
    if (h.next_arrival >= h.arrivals.size()) return;
    sim.schedule_at(h.arrivals[h.next_arrival].first, [this, hi] {
      HostState& host = hosts[hi];
      const auto [when, user] = host.arrivals[host.next_arrival++];
      (void)when;
      host.push_ready(user, 0);
      ++open_sessions;
      dispatch(hi);
      pump_arrivals(hi);
    });
  }

  void dispatch(std::uint32_t hi) {
    HostState& h = hosts[hi];
    while (h.active < owner.scenario_.config.host_concurrency && h.ready_count != 0) {
      const auto [user, file] = h.pop_ready();
      ++h.active;
      start_file(hi, user, file);
    }
  }

  std::uint64_t make_transfer_id() {
    return (static_cast<std::uint64_t>(index + 1) << 44) | next_transfer++;
  }

  void start_file(std::uint32_t hi, std::uint64_t user, std::uint32_t file) {
    GRIDVC_PROF_ZONE("shard.start_file");
    const auto& scenario = owner.scenario_;
    const auto params = scenario.transfer_params(user, file);
    // The only cut of this transfer's path: every later leg, segment and
    // message shares this route.
    scenario.route(user, params, path_scratch);
    Route route = owner.partition_.cut_path(path_scratch);
    const std::uint64_t tid = make_transfer_id();
    ++transfers_started;
    bytes_planned += params.size;
    inflight.insert(tid) = OriginFlight{user, file, hi, params.size, route};

    if (params.wants_vc) {
      ++chains_requested;
      if (book_segment(tid, 0, route.front(), scenario.config.chain_rate,
                       scenario.config.chain_window)) {
        if (route.size() == 1) {
          ++chains_granted;
          start_leg(tid, 0, std::move(route), params.size);
        } else {
          // Forward the booking down the chain; data waits for the Ok.
          ShardMessage m;
          m.kind = MessageKind::kVcBook;
          m.transfer = tid;
          m.leg = 1;
          m.bytes = params.size;
          m.rate = scenario.config.chain_rate;
          m.window = scenario.config.chain_window;
          m.route = std::move(route);
          send_forward(std::move(m));
        }
        return;
      }
      ++chains_rejected;  // local admission failed: degrade to best effort
    }
    start_leg(tid, 0, std::move(route), params.size);
  }

  /// The chain segment of transfer `tid` booked as `circuit`, or nullptr
  /// once it is gone. Circuit callbacks find their segment this way, so
  /// their closures hold only (this, tid) and stay within std::function's
  /// inline buffer.
  ChainSegment* chain_of(std::uint64_t tid, std::uint64_t circuit) {
    ChainSegment* found = nullptr;
    chains.for_each_in(SegKey{tid, 0}, SegKey{tid, ~std::uint32_t{0}},
                       [&](const SegKey&, ChainSegment& c) {
                         if (c.circuit == circuit) found = &c;
                       });
    return found;
  }

  bool book_segment(std::uint64_t tid, std::uint32_t leg,
                    const DomainPartition::Leg& cut, BitsPerSecond rate,
                    Seconds window) {
    GRIDVC_PROF_ZONE("shard.vc.book_segment");
    if (cut.local_path.empty()) return true;  // zero-hop leg: nothing to book
    const auto mark_released = [this, tid](const vc::Circuit& c) {
      if (ChainSegment* chain = chain_of(tid, c.id)) chain->released = true;
    };
    const auto result = idc.request_immediate(
        cut.local_src, cut.local_dst, rate, window,
        [this, tid](const vc::Circuit& c) {
          if (ChainSegment* chain = chain_of(tid, c.id)) chain->active = true;
        },
        mark_released, mark_released);
    if (!result.accepted()) return false;
    chains.insert(SegKey{tid, leg}) = ChainSegment{*result.circuit_id, rate, false, false};
    return true;
  }

  void release_chain(std::uint64_t tid, std::uint32_t leg) {
    const ChainSegment* chain = chains.find({tid, leg});
    if (chain == nullptr) return;
    if (!chain->released) {
      if (chain->active) {
        idc.release_now(chain->circuit);
      } else {
        idc.cancel(chain->circuit);
      }
    }
    chains.erase({tid, leg});
  }

  BitsPerSecond chain_guarantee(std::uint64_t tid, std::uint32_t leg) const {
    const ChainSegment* chain = chains.find({tid, leg});
    return chain != nullptr && !chain->released ? chain->rate : 0.0;
  }

  void start_leg(std::uint64_t tid, std::uint32_t leg_index, Route route, Bytes bytes) {
    GRIDVC_PROF_ZONE("shard.start_leg");
    // The segment record keeps the route (and so `leg.local_path`) alive
    // until segment_done; nothing below reads `leg` after that.
    const DomainPartition::Leg leg = route[leg_index];
    segments.insert(SegKey{tid, leg_index}) = SegmentWork{std::move(route), bytes};
    if (leg.local_path.empty()) {
      // The path ends exactly on this domain's entry node: nothing to move.
      segment_done(tid, leg_index);
      return;
    }
    // Filled here and copied by submit before anything can start another
    // leg, so one buffer serves every submission.
    gridftp::TransferSpec& spec = spec_scratch;
    if (leg_index == 0) {
      const OriginFlight* fl = inflight.find(tid);
      GRIDVC_REQUIRE(fl != nullptr, "origin leg without an origin record");
      spec.src.server = hosts[fl->host].server.get();
    } else {
      spec.src.server = relay_in.get();
    }
    if (leg.exit_gateway == DomainPartition::kNoGateway) {
      const std::uint32_t dst = host_of_local[leg.local_dst];
      GRIDVC_REQUIRE(dst != kNoHost, "final leg must end at a host");
      spec.dst.server = hosts[dst].server.get();
    } else {
      spec.dst.server = relay_out.get();
    }
    spec.path.assign(leg.local_path.begin(), leg.local_path.end());
    spec.rtt = std::max(2.0 * dom.topo.path_delay(leg.local_path), 1e-3);
    spec.size = bytes;
    spec.streams = owner.scenario_.config.streams;
    spec.stripes = 1;
    spec.guarantee = chain_guarantee(tid, leg_index);
    engine.submit(spec, [this, tid, leg_index](const gridftp::TransferRecord&) {
      segment_done(tid, leg_index);
    });
  }

  void segment_done(std::uint64_t tid, std::uint32_t leg_index) {
    GRIDVC_PROF_ZONE("shard.segment_done");
    SegmentWork* found = segments.find({tid, leg_index});
    GRIDVC_REQUIRE(found != nullptr, "segment completion without a record");
    SegmentWork work = std::move(*found);
    segments.erase({tid, leg_index});
    ++segments_completed;

    if (work.route[leg_index].exit_gateway != DomainPartition::kNoGateway) {
      ShardMessage m;
      m.kind = MessageKind::kSegmentHandoff;
      m.transfer = tid;
      m.leg = leg_index + 1;
      m.bytes = work.bytes;
      m.route = std::move(work.route);
      send_forward(std::move(m));
      return;
    }
    // Final leg: the file has fully arrived.
    bytes_delivered += work.bytes;
    ++transfers_completed;
    if (leg_index == 0) {
      complete_origin(tid);
      return;
    }
    release_chain(tid, leg_index);  // the relay below walks legs n-2..0
    ShardMessage m;
    m.kind = MessageKind::kCompletionRelay;
    m.transfer = tid;
    m.leg = leg_index - 1;
    m.bytes = work.bytes;
    m.route = std::move(work.route);
    send_backward(std::move(m));
  }

  void complete_origin(std::uint64_t tid) {
    release_chain(tid, 0);
    OriginFlight& record = inflight.at(tid);
    const OriginFlight fl = std::move(record);
    inflight.erase(tid);
    HostState& h = hosts[fl.host];
    --h.active;
    if (fl.file + 1 < owner.scenario_.config.transfers_per_user) {
      sim.schedule_in(owner.scenario_.config.think_time,
                      [this, hi = fl.host, user = fl.user, next = fl.file + 1] {
                        hosts[hi].push_ready(user, next);
                        dispatch(hi);
                      });
    } else {
      --open_sessions;
    }
    dispatch(fl.host);
  }

  /// Queue `m` towards its target leg m.leg, over the gateway the
  /// previous leg exits through.
  void send_forward(ShardMessage m) {
    GRIDVC_REQUIRE(m.leg > 0, "no upstream leg to forward from");
    const auto& gw = owner.partition_.gateways()[m.route[m.leg - 1].exit_gateway];
    m.dst_domain = gw.dst_domain;
    post(std::move(m), gw.delay);
  }

  /// Queue `m` back towards its target leg m.leg, over the reverse of the
  /// gateway that leg exits through (the one that brought the transfer
  /// here).
  void send_backward(ShardMessage m) {
    const auto& forward = owner.partition_.gateways()[m.route[m.leg].exit_gateway];
    GRIDVC_REQUIRE(forward.reverse != DomainPartition::kNoGateway,
                   "backward channel requires a duplex inter-domain link");
    const auto& gw = owner.partition_.gateways()[forward.reverse];
    m.dst_domain = gw.dst_domain;
    post(std::move(m), gw.delay);
  }

  void post(ShardMessage m, Seconds delay) {
    m.src_domain = index;
    m.send_time = sim.now();
    m.deliver_time = sim.now() + delay;
    m.seq = send_seq++;
    outbox.push_back(std::move(m));
  }

  /// Park a message delivered at the barrier and schedule its handling
  /// at its delivery time; the event carries only the inbox slot.
  void deliver(ShardMessage&& m) {
    std::uint32_t slot;
    if (!inbox_free.empty()) {
      slot = inbox_free.back();
      inbox_free.pop_back();
      inbox[slot] = std::move(m);
    } else {
      slot = static_cast<std::uint32_t>(inbox.size());
      inbox.push_back(std::move(m));
    }
    sim.schedule_at(inbox[slot].deliver_time, [this, slot] {
      // Only exchange() grows the inbox, and it runs between epochs.
      handle(inbox[slot]);
      inbox[slot].route = Route();
      inbox_free.push_back(slot);
    });
  }

  void handle(const ShardMessage& m) {
    GRIDVC_PROF_ZONE("shard.handle_message");
    switch (m.kind) {
      case MessageKind::kSegmentHandoff:
        start_leg(m.transfer, m.leg, m.route, m.bytes);
        return;
      case MessageKind::kVcBook: {
        const DomainPartition::Leg leg = m.route[m.leg];
        if (book_segment(m.transfer, m.leg, leg, m.rate, m.window)) {
          if (leg.exit_gateway == DomainPartition::kNoGateway) {
            ShardMessage ok;
            ok.kind = MessageKind::kVcBookOk;
            ok.transfer = m.transfer;
            ok.leg = m.leg - 1;
            ok.bytes = m.bytes;
            ok.route = m.route;
            send_backward(std::move(ok));
          } else {
            ShardMessage fwd = m;
            fwd.leg = m.leg + 1;
            send_forward(std::move(fwd));
          }
        } else {
          ShardMessage reject;
          reject.kind = MessageKind::kVcBookReject;
          reject.transfer = m.transfer;
          reject.leg = m.leg - 1;
          reject.bytes = m.bytes;
          reject.route = m.route;
          send_backward(std::move(reject));
        }
        return;
      }
      case MessageKind::kVcBookOk: {
        if (m.leg > 0) {
          ShardMessage fwd = m;
          fwd.leg = m.leg - 1;
          send_backward(std::move(fwd));
          return;
        }
        ++chains_granted;
        const OriginFlight* fl = inflight.find(m.transfer);
        GRIDVC_REQUIRE(fl != nullptr, "chain grant for unknown transfer");
        start_leg(m.transfer, 0, fl->route, fl->bytes);
        return;
      }
      case MessageKind::kVcBookReject: {
        release_chain(m.transfer, m.leg);
        if (m.leg > 0) {
          ShardMessage fwd = m;
          fwd.leg = m.leg - 1;
          send_backward(std::move(fwd));
          return;
        }
        ++chains_rejected;
        const OriginFlight* fl = inflight.find(m.transfer);
        GRIDVC_REQUIRE(fl != nullptr, "chain reject for unknown transfer");
        start_leg(m.transfer, 0, fl->route, fl->bytes);
        return;
      }
      case MessageKind::kCompletionRelay: {
        release_chain(m.transfer, m.leg);
        if (m.leg == 0) {
          complete_origin(m.transfer);
          return;
        }
        ShardMessage fwd = m;
        fwd.leg = m.leg - 1;
        send_backward(std::move(fwd));
        return;
      }
    }
    GRIDVC_REQUIRE(false, "unknown shard message kind");
  }
};

ShardedSimulation::ShardedSimulation(const workload::FederationScenario& scenario,
                                     unsigned shards)
    : scenario_(scenario),
      partition_(scenario.topo),
      shards_(static_cast<unsigned>(
          std::max<std::size_t>(1, std::min<std::size_t>(shards, partition_.domain_count())))),
      pool_(shards_),
      lanes_(shards_) {
  GRIDVC_REQUIRE(partition_.domain_count() >= 1, "partition produced no domains");
  GRIDVC_REQUIRE(partition_.lookahead() > 0.0,
                 "federation needs inter-domain links (positive lookahead)");
  worlds_.reserve(partition_.domain_count());
  for (std::uint32_t d = 0; d < partition_.domain_count(); ++d) {
    worlds_.push_back(std::make_unique<DomainWorld>(*this, d));
  }
}

ShardedSimulation::~ShardedSimulation() = default;

void ShardedSimulation::set_trace_sink(std::uint32_t d, obs::TraceSink* sink) {
  worlds_.at(d)->sim.obs().set_trace_sink(sink);
}

void ShardedSimulation::exchange() {
  GRIDVC_PROF_ZONE("shard.exchange");
  pending_.clear();
  for (auto& w : worlds_) {
    for (auto& m : w->outbox) pending_.push_back(std::move(m));
    w->outbox.clear();
  }
  std::sort(pending_.begin(), pending_.end(),
            [](const ShardMessage& a, const ShardMessage& b) {
              return message_before(a, b);
            });
  for (auto& m : pending_) {
    ++stats_.messages;
    stats_.message_hash = fold_message(stats_.message_hash, m);
    GRIDVC_REQUIRE(m.deliver_time >= m.send_time + partition_.lookahead() - 1e-12,
                   "shard message beat the lookahead");
    DomainWorld* dst = worlds_[m.dst_domain].get();
    // schedule_at counts into the destination's metrics registry, and the
    // barrier hands world ownership back to this thread; re-pin the
    // single-writer assert before touching it (the pool join ordered the
    // lane's writes before ours).
    dst->sim.obs().registry().rebind_owner();
    dst->next_time = std::min(dst->next_time, m.deliver_time);
    dst->deliver(std::move(m));
  }
  pending_.clear();
}

void ShardedSimulation::run() {
  const Seconds lookahead = partition_.lookahead();
  for (auto& w : worlds_) w->next_time = w->sim.next_event_time().value_or(kNever);
  horizon_ = -kNever;
  for (;;) {
    exchange();
    Seconds t_star = kNever;
    for (const auto& w : worlds_) t_star = std::min(t_star, w->next_time);
    if (t_star == kNever) break;
    // Every world that ran is past the last horizon and every message
    // lands at or after it; an earlier t* means a due world never ran.
    GRIDVC_REQUIRE(t_star >= horizon_, "a world due last epoch did not run");
    horizon_ = t_star + lookahead;
    ++stats_.barriers;
    stats_.world_epoch_slots += worlds_.size();

    for (auto& lane : lanes_) {
      lane.due.clear();
      lane.next.store(0, std::memory_order_relaxed);
    }
    std::uint64_t sessions = 0;
    std::size_t due = 0;
    DomainWorld* last_due = nullptr;
    for (std::size_t d = 0; d < worlds_.size(); ++d) {
      DomainWorld& w = *worlds_[d];
      sessions += w.open_sessions;
      if (w.next_time == kNever) continue;
      if (w.next_time <= horizon_) {
        lanes_[d % lanes_.size()].due.push_back(&w);
        last_due = &w;
        ++due;
      } else {
        ++stats_.stalled_world_epochs;
      }
    }
    stats_.peak_open_sessions = std::max(stats_.peak_open_sessions, sessions);

    GRIDVC_PROF_ZONE("shard.epoch");
    if (due == 1) {
      run_world(*last_due);
    } else {
      pool_.run_on_lanes([this](unsigned lane) { run_epoch(lane); });
    }
  }

  for (auto& w : worlds_) {
    stats_.transfers_started += w->transfers_started;
    stats_.transfers_completed += w->transfers_completed;
    stats_.segments_completed += w->segments_completed;
    stats_.chains_requested += w->chains_requested;
    stats_.chains_granted += w->chains_granted;
    stats_.chains_rejected += w->chains_rejected;
    stats_.bytes_planned += w->bytes_planned;
    stats_.bytes_delivered += w->bytes_delivered;
    stats_.events_dispatched += w->sim.dispatched();
    stats_.end_time = std::max(stats_.end_time, w->sim.now());
  }
  audit();
}

void ShardedSimulation::run_epoch(unsigned lane) {
  const std::size_t lanes = lanes_.size();
  for (std::size_t k = 0; k < lanes; ++k) {
    LaneQueue& q = lanes_[(lane + k) % lanes];
    for (std::size_t i = q.next.fetch_add(1, std::memory_order_relaxed); i < q.due.size();
         i = q.next.fetch_add(1, std::memory_order_relaxed)) {
      run_world(*q.due[i]);
    }
  }
}

void ShardedSimulation::run_world(DomainWorld& w) {
  // A world may run on a different lane than last epoch (its owner's,
  // or one that claimed it once its own list was empty); re-pin its
  // registry's single-writer assert to this lane. The pool's region
  // handoff orders the previous lane's writes before ours.
  w.sim.obs().registry().rebind_owner();
  w.sim.run_until(horizon_);
  // Refreshed here, while the world's heap is still in this core's cache.
  w.next_time = w.sim.next_event_time().value_or(kNever);
}

void ShardedSimulation::audit() {
  const auto violation = [this](const std::string& invariant, const std::string& detail) {
    violations_.push_back(invariant + ": " + detail);
  };
  const std::uint64_t expected = scenario_.total_transfers();
  if (stats_.transfers_started != expected) {
    violation("all-transfers-started", std::to_string(stats_.transfers_started) +
                                           " of " + std::to_string(expected));
  }
  if (stats_.transfers_completed != expected) {
    violation("all-transfers-completed", std::to_string(stats_.transfers_completed) +
                                             " of " + std::to_string(expected));
  }
  if (stats_.bytes_delivered != stats_.bytes_planned) {
    violation("byte-conservation", std::to_string(stats_.bytes_delivered) +
                                       " delivered of " +
                                       std::to_string(stats_.bytes_planned) + " planned");
  }
  for (const auto& w : worlds_) {
    const std::string who = "domain " + w->dom.name;
    if (!w->sim.idle()) violation("simulator-drained", who);
    if (!w->outbox.empty()) violation("channels-drained", who);
    if (w->engine.active_transfers() != 0 || w->engine.waiting_transfers() != 0) {
      violation("engine-drained", who);
    }
    if (!w->segments.empty()) violation("segments-drained", who);
    if (!w->chains.empty()) violation("chains-drained", who);
    if (!w->inflight.empty()) violation("origin-flights-drained", who);
    if (w->open_sessions != 0) violation("sessions-closed", who);
    if (w->idc.live_circuit_count() != 0) violation("circuits-released", who);
    for (const auto& h : w->hosts) {
      if (h.active != 0 || h.ready_count != 0 || h.next_arrival != h.arrivals.size()) {
        violation("hosts-drained", who + " host " + h.server->name());
        break;
      }
    }
  }
}

std::string ShardedSimulation::digest() const {
  char buf[256];
  std::snprintf(
      buf, sizeof(buf),
      "seed=%" PRIu64 " domains=%zu transfers=%" PRIu64 "/%" PRIu64 " segments=%" PRIu64
      " msgs=%" PRIu64 " hash=%016" PRIx64 " chains=%" PRIu64 "/%" PRIu64 "/%" PRIu64
      " events=%" PRIu64 " barriers=%" PRIu64 " bytes=%" PRIu64 " end=%.6f violations=%zu",
      scenario_.seed, partition_.domain_count(), stats_.transfers_completed,
      scenario_.total_transfers(), stats_.segments_completed, stats_.messages,
      stats_.message_hash, stats_.chains_granted, stats_.chains_rejected,
      stats_.chains_requested, stats_.events_dispatched, stats_.barriers,
      stats_.bytes_delivered, stats_.end_time, violations_.size());
  return buf;
}

}  // namespace gridvc::shard
