#include "checks.h"

#include <bit>
#include <cmath>

#include "common.h"
#include "replay/vrlog.h"
#include "sim/metrics.h"

namespace servebench::checks {

std::string analytic_tick(std::span<const vihot::core::TrackResult> results,
                          std::span<const double> truth_rad, double bound_deg,
                          std::vector<double>* errors_deg) {
  if (results.size() != truth_rad.size()) {
    return "tick returned " + std::to_string(results.size()) +
           " results for " + std::to_string(truth_rad.size()) + " sessions";
  }
  std::string why;
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (!results[i].valid) {
      if (why.empty()) why = "session " + std::to_string(i) + " invalid";
      continue;
    }
    const double err =
        vihot::sim::angular_error_deg(results[i].theta_rad, truth_rad[i]);
    if (errors_deg != nullptr) errors_deg->push_back(err);
    if (!(err <= bound_deg) && why.empty()) {
      why = "session " + std::to_string(i) + " off the trajectory by " +
            std::to_string(err) + " deg";
    }
  }
  return why;
}

std::vector<unsigned char> encode(const vihot::core::TrackResult& result) {
  std::vector<unsigned char> out;
  vihot::replay::encode_track_result(out, result);
  return out;
}

std::string bit_identical(const vihot::core::TrackResult& alone,
                          const vihot::core::TrackResult& fleet) {
  return encode(alone) == encode(fleet)
             ? std::string()
             : "result served alone differs from the sharded fleet's";
}

std::string envelope(const std::vector<double>& errors_deg,
                     double max_median_deg, double max_p90_deg,
                     std::size_t min_samples) {
  if (errors_deg.size() < min_samples) {
    return "only " + std::to_string(errors_deg.size()) +
           " evaluated estimates, need " + std::to_string(min_samples);
  }
  const double med = quantile(errors_deg, 0.5);
  const double p90 = quantile(errors_deg, 0.9);
  if (!(med <= max_median_deg)) {
    return "median error " + std::to_string(med) + " deg exceeds " +
           std::to_string(max_median_deg);
  }
  if (!(p90 <= max_p90_deg)) {
    return "p90 error " + std::to_string(p90) + " deg exceeds " +
           std::to_string(max_p90_deg);
  }
  return {};
}

std::string relock(double relock_s, double max_relock_s) {
  if (relock_s < 0.0) return "never locked";
  if (!(relock_s <= max_relock_s)) {
    return "relock " + std::to_string(relock_s) + " s exceeds " +
           std::to_string(max_relock_s);
  }
  return {};
}

std::string streamed_tick(
    const vihot::daemon::ResultsFrame& frame, const ExpectedTick& expected,
    const std::unordered_map<std::uint64_t, std::uint64_t>& rec2gid) {
  if (std::bit_cast<std::uint64_t>(frame.t_now) !=
      std::bit_cast<std::uint64_t>(expected.t_now)) {
    return "tick time " + std::to_string(frame.t_now) + " vs recorded " +
           std::to_string(expected.t_now);
  }
  if (frame.ids.size() != expected.rec_ids.size() ||
      frame.results.size() != expected.rec_ids.size()) {
    return "tick carries " + std::to_string(frame.ids.size()) +
           " results, recorded " + std::to_string(expected.rec_ids.size());
  }
  for (std::size_t i = 0; i < expected.rec_ids.size(); ++i) {
    const auto it = rec2gid.find(expected.rec_ids[i]);
    if (it == rec2gid.end() || it->second != frame.ids[i]) {
      return "session order differs at " + std::to_string(i);
    }
    if (encode(frame.results[i]) != expected.bytes[i]) {
      return "result bytes of recorded session " +
             std::to_string(expected.rec_ids[i]) + " differ";
    }
  }
  return {};
}

std::string session_accounting(std::uint64_t opened, std::uint64_t closed,
                               std::uint64_t live) {
  if (opened < closed || opened - closed != live) {
    return "opened " + std::to_string(opened) + " - closed " +
           std::to_string(closed) + " != live " + std::to_string(live);
  }
  return {};
}

}  // namespace servebench::checks
