// GridFTP transfer execution over the flow-level network.
//
// The engine turns a TransferSpec into data-plane flows and a usage-stats
// record:
//
//   * striping: k stripes become k parallel flows of size/k bytes each,
//     engaging up to k hosts at each server cluster (Table IX mechanism);
//   * parallel TCP streams: bound each stripe's demand by the TCP window
//     cap, and delay injection by the analytic Slow Start penalty
//     (Figs 3-5 mechanism);
//   * server contention: each transfer's aggregate demand is capped by
//     min(source share, destination share) — shares shrink as concurrent
//     transfers register, which is eq. (2)'s regime — multiplied by a
//     per-transfer lognormal noise factor modelling CPU/disk jitter;
//   * rare loss: a per-transfer multiplicative haircut from the TCP model;
//   * virtual circuits: a transfer may carry a rate guarantee, which is
//     split across its stripe flows.
//
// When the last stripe finishes, the engine reports a TransferRecord to
// the UsageStatsCollector and fires the submitter's callback.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/id_slab.hpp"
#include "common/inline_function.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "obs/span.hpp"
#include "gridftp/backoff.hpp"
#include "gridftp/server.hpp"
#include "gridftp/transfer_log.hpp"
#include "gridftp/usage_stats.hpp"
#include "net/network.hpp"
#include "net/tcp_model.hpp"

namespace gridvc::gridftp {

/// One side of a transfer.
struct EndpointSpec {
  Server* server = nullptr;  ///< non-owning; must outlive the engine
  IoMode io = IoMode::kMemory;
};

struct TransferSpec {
  EndpointSpec src;
  EndpointSpec dst;
  net::Path path;        ///< network path from src to dst
  Seconds rtt = 0.05;    ///< end-to-end round-trip time
  Bytes size = 0;
  int streams = 1;
  int stripes = 1;
  TransferType type = TransferType::kRetrieve;
  std::string remote_host;            ///< logged as the other end
  Bytes block_size = 256 * 1024;
  BitsPerSecond guarantee = 0.0;      ///< VC rate guarantee (0 = best effort)
};

/// Ceil-division split of a byte count across stripes: every stripe
/// carries ceil(size/stripes) so no byte is dropped; the engine uses this
/// everywhere a per-stripe size is needed (injection penalty, flow sizes,
/// retry penalty).
constexpr Bytes stripe_chunk(Bytes size, int stripes) {
  return (size + static_cast<Bytes>(stripes) - 1) / static_cast<Bytes>(stripes);
}

struct TransferEngineConfig {
  net::TcpConfig tcp;
  /// Log-space sigma of the per-transfer server-share noise (CPU/disk
  /// jitter). The factor has mean 1.
  double server_noise_sigma = 0.30;
  /// Probability that any given attempt fails partway (connection reset,
  /// server hiccup). GridFTP supports restart markers (§II "recovery from
  /// failures during transfers"), so a failed attempt resumes from the
  /// bytes already moved after `backoff`. Attempt
  /// TransferEngine::kMaxAttempts never fails.
  double failure_probability = 0.0;
  /// Pause between a failure (or a link-failure abort) and the restart.
  /// Defaults to a fixed 5 s; see BackoffPolicy for exponential/jitter.
  BackoffPolicy backoff;
  /// Link-failure aborts after which the transfer is declared permanently
  /// failed (reported with TransferRecord::failed set). Unlike the
  /// stochastic attempt failures above, aborts come from real outages and
  /// can recur indefinitely, so the engine gives up rather than retrying
  /// forever. <= 0 means never give up.
  int max_aborts = 8;
};

class TransferEngine {
 public:
  /// Stored inline in the transfer record (no heap per transfer).
  using DoneFn = InlineFunction<void(const TransferRecord&)>;

  /// Attempts after which a transfer is forced through (the operator's
  /// patience): the last one never fails stochastically.
  static constexpr int kMaxAttempts = 5;

  TransferEngine(net::Network& network, UsageStatsCollector& collector,
                 TransferEngineConfig config, Rng rng);
  TransferEngine(const TransferEngine&) = delete;
  TransferEngine& operator=(const TransferEngine&) = delete;

  /// Start a transfer now. Requires a valid spec (servers set, non-empty
  /// path, size > 0, streams/stripes >= 1). Returns the transfer id.
  std::uint64_t submit(const TransferSpec& spec, DoneFn on_done = nullptr);

  /// Process-level fault model: crash the server cluster. Marks the
  /// server offline (clearing its registrations), settles and aborts the
  /// in-flight flows of every transfer touching it — bytes already on the
  /// wire survive as restart markers — charges each killed attempt as a
  /// link-style abort (terminal after max_aborts), deregisters the
  /// survivors from their other endpoint, and parks them in a waiting set
  /// until both endpoints are back online.
  void handle_server_down(Server* server);

  /// Restart the server. Parked transfers whose endpoints are now all
  /// online resume: started ones through the retry/backoff path (from
  /// their restart markers), never-started ones through the normal
  /// injection path.
  void handle_server_up(Server* server);

  /// Transfers parked because an endpoint server is offline.
  std::size_t waiting_transfers() const { return waiting_.size(); }

  /// Attach or replace the rate guarantee of an in-flight transfer (its
  /// circuit activated mid-transfer, or was lost — guarantee 0 degrades
  /// to best-effort). The new value is split across the attempt's *live*
  /// stripe flows; during a retry backoff (no flows in flight) it is
  /// stored and applied to the next attempt. Unknown ids are ignored:
  /// circuit callbacks legitimately outlive the transfers they fed.
  void set_guarantee(std::uint64_t transfer_id, BitsPerSecond guarantee);

  std::size_t active_transfers() const { return transfers_.size(); }

  const net::TcpModel& tcp_model() const { return tcp_; }

  /// Failure/retry accounting across the engine's lifetime. Every attempt
  /// ends exactly one way, so
  ///   attempts == completed-transfer attempts + failures + aborted_attempts
  /// holds at quiescence.
  struct Stats {
    std::uint64_t completed = 0;
    std::uint64_t attempts = 0;
    std::uint64_t failures = 0;  ///< attempts that ended in a mid-transfer failure
    std::uint64_t aborted_attempts = 0;  ///< attempts killed by a link failure or crash
    std::uint64_t failed_transfers = 0;  ///< gave up after max_aborts aborts
    std::uint64_t server_crashes = 0;    ///< handle_server_down invocations
  };
  const Stats& stats() const { return stats_; }

 private:
  struct Active {
    std::uint64_t id = 0;
    TransferSpec spec;
    Seconds submit_time = 0.0;
    obs::SimSpan lifetime;     ///< submit -> finish (gridvc_gridftp_transfer_seconds)
    bool started = false;      ///< first attempt has put bytes on the wire
    double noise = 1.0;        ///< lognormal server-share factor
    double loss_factor = 1.0;  ///< TCP loss haircut
    Bytes bytes_done = 0;        ///< delivered by completed attempts
    Bytes attempt_bytes = 0;     ///< planned size of the in-flight attempt
    Bytes attempt_delivered = 0; ///< bytes its flows actually moved
    bool attempt_fails = false;
    bool attempt_aborted = false;  ///< a stripe died with a link failure
    int attempts = 0;
    int aborts = 0;  ///< link-failure/crash aborts across all attempts
    /// Whether the transfer currently holds registrations at both
    /// endpoint servers. Cleared when a crash wipes an endpoint's
    /// resource state; re-established by the next attempt.
    bool registered = true;
    /// Flows of the in-flight attempt that have not finished yet; stripes
    /// are removed as they complete so guarantee/cap splits always divide
    /// across live flows only.
    std::vector<net::FlowId> flows;
    DoneFn on_done;
    sim::EventHandle injection;
  };

  void attach_listener(Server* server);
  void register_endpoints(Active& t);
  /// Enter/leave the streaming lists of both endpoints (see streaming_).
  void mark_streaming(const Active& t);
  void unmark_streaming(const Active& t);
  bool endpoints_online(const Active& t) const;
  void set_waiting_gauge();
  void begin_attempt(std::uint64_t id);
  void on_flow_complete(std::uint64_t id, const net::FlowRecord& flow);
  void attempt_complete(std::uint64_t id);
  void schedule_retry(std::uint64_t id);
  void finish(std::uint64_t id);
  void fail_permanently(std::uint64_t id);
  /// The terminal step both share: report the record, free the record
  /// and registrations, fire on_done.
  void close(std::uint64_t id, bool failed);
  /// Aggregate demand cap of a transfer right now.
  BitsPerSecond transfer_cap(const Active& t) const;
  /// Push refreshed caps into the network after a change at `changed`:
  /// for the transfers streaming there (the only pushed caps the change
  /// can move) and for every transfer that lost a stripe since its caps
  /// were last pushed (its cap re-splits over the live stripes).
  void refresh_caps(const Server& changed);

  net::Network& network_;
  UsageStatsCollector& collector_;
  TransferEngineConfig config_;
  net::TcpModel tcp_;
  Rng rng_;
  /// Id-ordered (determinism); records are reused across transfers.
  IdSlab<std::uint64_t, Active> transfers_;
  /// Id-ordered (determinism) set of transfers parked on an offline
  /// endpoint server.
  std::set<std::uint64_t> waiting_;
  /// One entry per server this engine listens to: the ids of its
  /// transfers registered there that have flows in flight, in no
  /// particular order. Only their caps can move when the server's shares
  /// change; a transfer without flows has nothing to push.
  std::unordered_map<const Server*, std::vector<std::uint64_t>> streaming_;
  /// Transfers whose stripe count dropped since their caps were pushed.
  std::vector<std::uint64_t> resplit_;
  /// refresh_caps' batch, reused across calls.
  std::vector<std::pair<net::FlowId, BitsPerSecond>> caps_;
  /// close()'s record, reused while no outer close() is handing it out.
  TransferRecord record_;
  bool record_in_use_ = false;
  std::uint64_t next_id_ = 1;
  bool refreshing_ = false;
  Stats stats_;
  obs::MetricId id_submitted_;
  obs::MetricId id_completed_;
  obs::MetricId id_attempts_;
  obs::MetricId id_failures_;
  obs::MetricId id_aborted_;
  obs::MetricId id_failed_;
  obs::MetricId id_bytes_moved_;
  obs::MetricId id_active_;
  obs::MetricId id_waiting_;
  obs::MetricId id_crashes_;
  obs::MetricId id_stripes_hist_;
  obs::MetricId id_streams_hist_;
  obs::MetricId id_start_delay_hist_;
  obs::MetricId id_duration_hist_;
};

}  // namespace gridvc::gridftp
