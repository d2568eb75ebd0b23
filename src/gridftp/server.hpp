// Data-transfer-node (GridFTP server) resource model.
//
// The paper's finding (v): throughput variance traces to "competition for
// server resources rather than network resources … competition for CPU and
// disk I/O resources". This model makes that competition explicit:
//
//   * A server endpoint is a *cluster* of `pool_size` hosts, each with an
//     aggregate NIC/CPU ceiling of `nic_rate` (the NCAR "frost" cluster
//     shrank from 3 servers in 2009 to 1 in 2011 — Table VIII's year
//     effect).
//   * A transfer with k stripes engages w = min(k, pool_size) hosts, so
//     its ceiling scales with stripes (Table IX) but never beyond the
//     pool.
//   * Concurrent transfers share the cluster ceiling in proportion to
//     their host engagement w (eq. (2)'s R/n regime when all transfers
//     are single-striped).
//   * Disk endpoints are further capped by per-host disk read/write
//     rates; NERSC's disk subsystem is the bottleneck behind Fig 1's
//     lower mem→disk and disk→disk medians.
//
// The model is control-state only; the TransferEngine queries shares and
// pushes them into the flow-level network as demand caps, re-querying
// whenever registration changes.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "common/id_slab.hpp"
#include "common/units.hpp"

namespace gridvc::gridftp {

struct ServerConfig {
  std::string name;
  /// Stable numeric id used in server_down/server_up trace events (the
  /// trace schema carries integer subject ids only). 0 is fine for
  /// scenarios that never crash servers.
  std::uint64_t id = 0;
  /// Per-host NIC/CPU aggregate ceiling.
  BitsPerSecond nic_rate = 0.0;
  /// Per-host sequential disk read ceiling (source-side disk I/O).
  BitsPerSecond disk_read_rate = 0.0;
  /// Per-host disk write ceiling (destination-side disk I/O; typically
  /// lower than read).
  BitsPerSecond disk_write_rate = 0.0;
  /// Number of physical hosts behind this endpoint.
  int pool_size = 1;
};

/// The disk involvement of one side of a transfer.
enum class IoMode : std::uint8_t { kMemory, kDiskRead, kDiskWrite };

class Server {
 public:
  explicit Server(ServerConfig config);

  const ServerConfig& config() const { return config_; }
  const std::string& name() const { return config_.name; }

  /// Change the pool size (models hardware retirement over the years).
  /// Notifies the change listener.
  void set_pool_size(int pool_size);

  /// Change the per-host NIC/CPU ceiling (models slow drift of the
  /// host's deliverable capacity: competing daemons, cache state, cooling
  /// throttles). Notifies the change listener.
  void set_nic_rate(BitsPerSecond nic_rate);

  /// Process-level fault model: crash (false) or restart (true) the whole
  /// cluster. Crashing clears every registration — server resource state
  /// does not survive a restart — and deliberately does NOT notify the
  /// change listener: the caller must immediately follow with
  /// TransferEngine::handle_server_down(), which aborts the affected
  /// transfers and then refreshes shares safely. Coming back online
  /// notifies normally. Idempotent per state.
  void set_online(bool online);
  bool online() const { return online_; }

  /// Register an active transfer that uses `stripes` stripes and the
  /// given disk mode on this side. Requires the server to be online.
  /// Notifies the change listener.
  void add_transfer(std::uint64_t transfer_id, int stripes, IoMode io);

  /// Deregister. Notifies the change listener.
  void remove_transfer(std::uint64_t transfer_id);

  /// This server's current ceiling for the given transfer (NIC share and
  /// disk ceiling combined), before any engine-applied noise.
  BitsPerSecond share(std::uint64_t transfer_id) const;

  /// Number of concurrent transfers currently registered.
  std::size_t concurrency() const { return transfers_.size(); }

  /// Cluster-wide NIC ceiling: pool_size * nic_rate.
  BitsPerSecond cluster_nic_rate() const;

  /// One listener (the TransferEngine) is notified whenever shares may
  /// have changed.
  void set_change_listener(std::function<void()> listener);

 private:
  struct Registered {
    int engaged_hosts = 1;  // w = min(stripes, pool_size)
    IoMode io = IoMode::kMemory;
  };

  void notify();

  ServerConfig config_;
  bool online_ = true;
  IdSlab<std::uint64_t, Registered> transfers_;
  /// Sum of engaged_hosts over transfers_, kept in step with every
  /// registration change so share() is O(1). A sum of small integers
  /// converts exactly to a double, so shares match a fresh summation.
  std::int64_t total_engaged_ = 0;
  std::function<void()> listener_;
};

}  // namespace gridvc::gridftp
