// Profile serialization and reporting.
//
// write_chrome_trace emits a Chrome trace-event JSON file loadable in
// Perfetto / chrome://tracing: one "X" (complete) event per retained
// zone sample, tid = exec lane, plus a "gridvcProfile" top-level key
// carrying the merged per-zone aggregate table so tooling never has to
// re-derive it from the sample timeline. read_profile_* parse that file
// back (with common/json's strict reader; throws ParseError on malformed
// input), and the write_* helpers render the hotspot table, the
// thread-count-invariant digest, and a diff between two profiles.
#pragma once

#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "obs/profiler.hpp"

namespace gridvc::obs {

void write_chrome_trace(std::ostream& out, const ProfileReport& report);

ProfileReport read_profile_json(const std::string& text);
/// Throws ParseError (parse failure) or PreconditionError (unreadable file).
ProfileReport read_profile_file(const std::string& path);

/// Flat top-N hotspot table, self-time descending (ties by name).
void write_hotspots(std::ostream& out, const ProfileReport& report,
                    std::size_t top_n = 20);

/// One "name count" line per zone, sorted by name. Call counts are
/// thread-count-invariant under the exec determinism contract, so this
/// digest is byte-identical across --threads for the same workload.
void write_profile_digest(std::ostream& out, const ProfileReport& report);

/// Signed per-zone deltas (after - before), largest |self| change first.
void write_profile_diff(std::ostream& out, const ProfileReport& before,
                        const ProfileReport& after, std::size_t top_n = 20);

/// Collect the live profiler state and write it to `path`; reports a
/// one-line summary (or the failure) on `diag`. Returns success.
bool dump_profile(const std::string& path, std::ostream& diag);

/// Tool helper: arm() enables the profiler; the destructor (or an early
/// finish()) collects and writes the file. Safe to destroy unarmed.
class ProfileScope {
 public:
  ProfileScope() = default;
  ~ProfileScope() { finish(); }
  ProfileScope(const ProfileScope&) = delete;
  ProfileScope& operator=(const ProfileScope&) = delete;

  void arm(std::string path) {
    path_ = std::move(path);
    Profiler::enable();
  }
  bool finish();

 private:
  std::string path_;
};

}  // namespace gridvc::obs
