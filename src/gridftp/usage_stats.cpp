#include "gridftp/usage_stats.hpp"

#include <utility>

namespace gridvc::gridftp {

void UsageStatsCollector::report(const TransferRecord& record) {
  if (record.failed) {
    ++failed_;
    return;
  }
  ++received_;
  received_bytes_ += record.size;
  if (keep_log_) log_.push_back(record);
}

TransferLog UsageStatsCollector::take_log() {
  TransferLog out = std::move(log_);
  log_.clear();
  received_ = 0;
  received_bytes_ = 0;
  return out;
}

}  // namespace gridvc::gridftp
