// Correctness checks of the serving benchmark. Each one judges the
// program's output against a reference made without it: an analytic
// trajectory, the simulator's ground truth, a separately served fleet or
// the in-process run recorded at set-up. Every check returns an empty
// string when the output passes and a reason when it does not.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/tracker.h"
#include "daemon/protocol.h"

namespace servebench::checks {

/// fleet_moving: every estimate of the tick is valid and within
/// `bound_deg` of the analytic head angle. Appends each error (deg).
[[nodiscard]] std::string analytic_tick(
    std::span<const vihot::core::TrackResult> results,
    std::span<const double> truth_rad, double bound_deg,
    std::vector<double>* errors_deg);

/// Canonical wire/log bytes of one result (replay::encode_track_result).
[[nodiscard]] std::vector<unsigned char> encode(
    const vihot::core::TrackResult& result);

/// fleet_moving: a session served alone in a one-shard fleet produced
/// the same bytes as inside the sharded fleet.
[[nodiscard]] std::string bit_identical(const vihot::core::TrackResult& alone,
                                        const vihot::core::TrackResult& fleet);

/// daemon_churn: one occupant's error quantiles against the simulator's
/// ground truth stay inside a pack's accuracy envelope, over at least
/// `min_samples` evaluations.
[[nodiscard]] std::string envelope(const std::vector<double>& errors_deg,
                                   double max_median_deg, double max_p90_deg,
                                   std::size_t min_samples);

/// daemon_churn: an occupant who entered mid-run got its first valid
/// estimate (`relock_s` after its session opened; < 0 = never) within
/// the pack's relock bound.
[[nodiscard]] std::string relock(double relock_s, double max_relock_s);

/// One tick of the in-process run recorded at set-up: the serving time
/// and, in result order, the recorded session ids and result bytes.
struct ExpectedTick {
  double t_now = 0.0;
  std::vector<std::uint64_t> rec_ids;
  std::vector<std::vector<unsigned char>> bytes;
};

/// daemon_churn: a streamed kResults frame carries exactly the recorded
/// tick — same serving time, same sessions (recorded id -> daemon id via
/// `rec2gid`) in the same order, byte-equal results.
[[nodiscard]] std::string streamed_tick(
    const vihot::daemon::ResultsFrame& frame, const ExpectedTick& expected,
    const std::unordered_map<std::uint64_t, std::uint64_t>& rec2gid);

/// daemon_churn: sessions opened minus sessions closed equals the
/// sessions the daemon reports live.
[[nodiscard]] std::string session_accounting(std::uint64_t opened,
                                             std::uint64_t closed,
                                             std::uint64_t live);

}  // namespace servebench::checks
