// The serving workloads. Each builds its inputs from the seed,
// serves them in a closed loop (one tick in flight; the next starts when
// the previous tick's results are in hand) for opts.seconds, checks the
// outputs and fills the report. One operation is one tick.
#pragma once

#include "common.h"

namespace servebench {

/// Synthetic worst case: every session of a large sharded fleet moves
/// along an analytic trajectory, so every estimate is a hinted match.
Report run_fleet_moving(const Options& opts);

/// A real vihotd fed one recorded rideshare-churn fleet over its socket
/// by one feeder connection, with two subscribers.
Report run_daemon_churn(const Options& opts);

}  // namespace servebench
