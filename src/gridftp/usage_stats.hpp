// Usage-statistics collection.
//
// §II: "GridFTP servers send usage statistics in UDP packets at the end of
// each transfer to a server maintained by the Globus organization." The
// collector is that sink: the transfer engine reports each finished
// transfer here, and analyses read the accumulated log.
#pragma once

#include "gridftp/transfer_log.hpp"

namespace gridvc::gridftp {

class UsageStatsCollector {
 public:
  /// Report one finished transfer (called by the engine).
  void report(const TransferRecord& record);

  /// Counting-only mode: when retention is off, report() still counts
  /// received records and accumulates byte/duration totals but does not
  /// append to the log. Multi-million-transfer runs (bench_shard_scale,
  /// the sharded federation) keep memory flat this way; the paper's
  /// per-record analyses keep the default retention. Toggling does not
  /// clear records already retained.
  void set_keep_log(bool keep) { keep_log_ = keep; }
  bool keep_log() const { return keep_log_; }

  /// All received records in arrival order (empty while retention is off).
  const TransferLog& log() const { return log_; }

  /// Move the log out (collector resets to empty).
  TransferLog take_log();

  std::size_t received() const { return received_; }

  /// Sum of TransferRecord::size over received reports; maintained in
  /// counting-only mode too.
  Bytes received_bytes() const { return received_bytes_; }

  /// Permanently-failed transfers reported by the engine. Counted here,
  /// never appended to the log: the paper's analyses (throughput CDFs,
  /// session grouping) are defined over completed transfers only.
  std::size_t failed() const { return failed_; }

 private:
  TransferLog log_;
  bool keep_log_ = true;
  std::size_t received_ = 0;
  Bytes received_bytes_ = 0;
  std::size_t failed_ = 0;
};

}  // namespace gridvc::gridftp
