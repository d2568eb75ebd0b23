#include "gridftp/server.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace gridvc::gridftp {

Server::Server(ServerConfig config) : config_(std::move(config)) {
  GRIDVC_REQUIRE(!config_.name.empty(), "server needs a name");
  GRIDVC_REQUIRE(config_.nic_rate > 0.0, "server NIC rate must be positive");
  GRIDVC_REQUIRE(config_.pool_size >= 1, "server pool must have at least one host");
}

void Server::set_pool_size(int pool_size) {
  GRIDVC_REQUIRE(pool_size >= 1, "server pool must have at least one host");
  if (config_.pool_size == pool_size) return;
  config_.pool_size = pool_size;
  // Transfers registered with more stripes than the new pool shrink their
  // engagement.
  total_engaged_ = 0;
  transfers_.for_each([this, pool_size](std::uint64_t, Registered& reg) {
    reg.engaged_hosts = std::min(reg.engaged_hosts, pool_size);
    total_engaged_ += reg.engaged_hosts;
  });
  notify();
}

void Server::set_nic_rate(BitsPerSecond nic_rate) {
  GRIDVC_REQUIRE(nic_rate > 0.0, "server NIC rate must be positive");
  if (config_.nic_rate == nic_rate) return;
  config_.nic_rate = nic_rate;
  notify();
}

void Server::set_online(bool online) {
  if (online_ == online) return;
  online_ = online;
  if (!online_) {
    // Crash semantics: every registration is resource state of the dead
    // process and is gone. No notify here — shares of the still-running
    // transfers are meaningless until the engine has aborted them (see
    // TransferEngine::handle_server_down), and a listener firing first
    // would query shares for ids this server no longer knows.
    transfers_.clear();
    total_engaged_ = 0;
    return;
  }
  notify();
}

void Server::add_transfer(std::uint64_t transfer_id, int stripes, IoMode io) {
  GRIDVC_REQUIRE(online_, "cannot register a transfer with an offline server");
  GRIDVC_REQUIRE(stripes >= 1, "transfer needs at least one stripe");
  Registered& reg = transfers_.insert(transfer_id);  // requires: not yet registered
  reg.engaged_hosts = std::min(stripes, config_.pool_size);
  reg.io = io;
  total_engaged_ += reg.engaged_hosts;
  notify();
}

void Server::remove_transfer(std::uint64_t transfer_id) {
  const Registered* reg = transfers_.find(transfer_id);
  GRIDVC_REQUIRE(reg != nullptr, "transfer not registered");
  total_engaged_ -= reg->engaged_hosts;
  transfers_.erase(transfer_id);
  notify();
}

BitsPerSecond Server::cluster_nic_rate() const {
  return static_cast<double>(config_.pool_size) * config_.nic_rate;
}

BitsPerSecond Server::share(std::uint64_t transfer_id) const {
  const Registered* found = transfers_.find(transfer_id);
  GRIDVC_REQUIRE(found != nullptr, "transfer not registered");
  const Registered& reg = *found;

  // NIC/CPU: cluster capacity shared in proportion to host engagement,
  // never exceeding the engaged hosts' own NICs.
  const auto total_weight = static_cast<double>(total_engaged_);
  const double weight = static_cast<double>(reg.engaged_hosts);
  const double proportional = cluster_nic_rate() * weight / std::max(total_weight, weight);
  BitsPerSecond ceiling = std::min(proportional, weight * config_.nic_rate);

  // Disk: per-host rate times engaged hosts (a striped transfer reads
  // from several hosts' disks in parallel).
  if (reg.io == IoMode::kDiskRead && config_.disk_read_rate > 0.0) {
    ceiling = std::min(ceiling, weight * config_.disk_read_rate);
  } else if (reg.io == IoMode::kDiskWrite && config_.disk_write_rate > 0.0) {
    ceiling = std::min(ceiling, weight * config_.disk_write_rate);
  }
  return ceiling;
}

void Server::set_change_listener(std::function<void()> listener) {
  listener_ = std::move(listener);
}

void Server::notify() {
  if (listener_) listener_();
}

}  // namespace gridvc::gridftp
