// servebench: the serving benchmark of the ViHOT stack.
//
//   servebench --workload fleet_moving|daemon_churn
//              --seed N --seconds S --trace 0|1
//              --out-dir DIR [--vihotd PATH]
//
// Prints a host fingerprint line, then as its last line one JSON object:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics of a
// traced run (--trace 1). Exit 0 when the run completed (the verdict is
// in "correct"), 2 on bad usage, 1 when the run could not be carried out.
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>

#include "common.h"
#include "workloads.h"

namespace {

using servebench::Metric;

// Taken during static initialization: set-up time runs from (nearly)
// the process's start, not from main().
const servebench::Clock::time_point kProcessStart = servebench::Clock::now();

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},           {"tick_ms_p50", "ms"},
    {"tick_ms_p90", "ms"},      {"estimates_per_s", "1/s"},
    {"cpu_us_per_estimate", "us"}, {"err_deg_p50", "deg"},
    {"err_deg_p90", "deg"},     {"peak_rss_mb", "MB"},
};

// Every per-layer metric, emitted by every traced run (0 where the
// workload does not exercise the layer).
constexpr MetricSpec kPerLayer[] = {
    {"dsp.candidates_per_estimate", "count/est"},
    {"dsp.lb_endpoint_pruned", "count/est"},
    {"dsp.lb_band_pruned", "count/est"},
    {"dsp.dtw_abandoned", "count/est"},
    {"dsp.dtw_evaluated_per_estimate", "count/est"},
    {"dsp.prune_ratio", "ratio"},
    {"core.window_flat", "count/est"},
    {"core.window_hinted", "count/est"},
    {"core.window_global", "count/est"},
    {"core.match_attempts", "count/est"},
    {"core.relock_widen", "count/est"},
    {"core.relock_global", "count/est"},
    {"core.tie_break_applied", "count/est"},
    {"core.stale_window_relocks", "count/est"},
    {"core.stable_phase_locks", "count/est"},
    {"engine.push_csi_us", "us"},
    {"engine.push_imu_us", "us"},
    {"engine.tick_ms", "ms"},
    {"engine.worker_items_max_over_mean", "ratio"},
    {"engine.create_session_us", "us"},
    {"engine.destroy_session_us", "us"},
    {"daemon.open_ack_ms", "ms"},
    {"daemon.close_ack_ms", "ms"},
    {"ingest.drained_csi", "count/tick"},
    {"ingest.drain_batch_mean", "count"},
    {"ingest.queue_depth_csi_max", "count"},
    {"ingest.dropped", "count"},
    {"daemon.feed_send_us", "us"},
    {"daemon.bytes_rx_per_tick", "B/tick"},
    {"daemon.bytes_tx_per_tick", "B/tick"},
    {"daemon.results_fanned_out", "count/tick"},
    {"daemon.sub_queue_depth_max", "count"},
    {"daemon.engine_batch_us_mean", "us"},
    {"setup.profile_s", "s"},
    {"setup.inputs_s", "s"},
    {"setup.sessions_s", "s"},
    {"profile_store.interned", "count"},
    {"profile_store.dedup_hits", "count"},
    {"trace.overhead_pct", "%"},
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload fleet_moving|daemon_churn "
               "--seed N --seconds S --trace 0|1 --out-dir DIR "
               "[--vihotd PATH]\n",
               argv0);
  std::exit(2);
}

/// The metrics named in `specs`, in that order, taken from `have`
/// (0 for any the run did not produce).
template <std::size_t N>
std::string render_metrics(const MetricSpec (&specs)[N],
                           const std::vector<Metric>& have) {
  std::ostringstream os;
  os.precision(std::numeric_limits<double>::max_digits10);
  os << '{';
  for (std::size_t i = 0; i < N; ++i) {
    double value = 0.0;
    for (const Metric& m : have) {
      if (m.name == specs[i].name) value = m.value;
    }
    os << (i > 0 ? ", " : "") << '"' << specs[i].name
       << "\": {\"value\": " << value << ", \"unit\": \"" << specs[i].unit
       << "\"}";
  }
  os << '}';
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  servebench::Options opts;
  opts.process_start = kProcessStart;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(argv[0]);
    const std::string v = argv[++i];
    if (a == "--workload") {
      opts.workload = v;
    } else if (a == "--seed") {
      opts.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      opts.seconds = std::atof(v.c_str());
    } else if (a == "--trace") {
      trace = (v == "1") ? 1 : (v == "0") ? 0 : -1;
    } else if (a == "--out-dir") {
      opts.out_dir = v;
    } else if (a == "--vihotd") {
      opts.vihotd = v;
    } else {
      usage(argv[0]);
    }
  }
  if (trace < 0 || !(opts.seconds > 0.0) || opts.out_dir.empty()) {
    usage(argv[0]);
  }
  opts.trace = trace == 1;

  // A forced kernel table would benchmark something other than what a
  // deployment runs.
  if (std::getenv("VIHOT_SIMD") != nullptr) {
    std::fprintf(stderr, "servebench: unset VIHOT_SIMD before benchmarking\n");
    return 2;
  }
  const servebench::Host host = servebench::host_fingerprint();
  std::cout << "servebench: workload=" << opts.workload
            << " seed=" << opts.seed << " seconds=" << opts.seconds
            << " trace=" << trace << " " << servebench::to_string(host)
            << std::endl;

  servebench::Report report;
  if (opts.workload == "fleet_moving") {
    report = servebench::run_fleet_moving(opts);
  } else if (opts.workload == "daemon_churn") {
    if (opts.vihotd.empty()) usage(argv[0]);
    report = servebench::run_daemon_churn(opts);
  } else {
    usage(argv[0]);
  }
  for (const std::string& p : report.problems) {
    std::fprintf(stderr, "servebench: %s\n", p.c_str());
  }
  if (report.attempted == 0) {
    std::fprintf(stderr, "servebench: no operation was attempted\n");
    return 1;
  }

  std::cout << "{\"correct\": " << (report.correct ? "true" : "false")
            << ", \"attempted\": " << report.attempted
            << ", \"failed\": " << report.failed << ", \"metrics\": "
            << (opts.trace ? render_metrics(kPerLayer, report.per_layer)
                           : render_metrics(kEndToEnd, report.end_to_end))
            << '}' << std::endl;
  return 0;
}
