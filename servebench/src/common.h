// Shared plumbing of the serving benchmark: run options, the report a
// workload fills, quantiles, the in-memory span trace, metric snapshots
// read from an obs::Registry JSON rendering (in process or from vihotd's
// health report), and the host fingerprint.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace vihot::obs {
class Registry;
}

namespace servebench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
[[nodiscard]] inline double s_between(Clock::time_point a,
                                      Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;  ///< traces, recorded logs, the daemon socket
  std::string vihotd;   ///< vihotd binary (daemon_churn)
  Clock::time_point process_start{};
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run prints: the operation accounting, the correctness
/// verdict and both metric families (main() picks one by --trace).
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::string> problems;  ///< first check failures, for stderr

  /// One failed operation (a tick) with the reason. `correct` speaks of
  /// the operations that did not fail, so it stays as it is.
  void fail_op(const std::string& why);
  /// A run-level check failed: the verdict is false.
  void fail_run(const std::string& why);
  void e2e(const std::string& name, double value, const std::string& unit) {
    end_to_end.push_back({name, value, unit});
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    per_layer.push_back({name, value, unit});
  }
};

/// Linear-interpolation quantile (q in [0, 1]) of an unsorted sample;
/// 0 for an empty one.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] double mean(const std::vector<double>& values);

/// CPU seconds (user + system) of this process, all threads.
[[nodiscard]] double process_cpu_s();
/// Peak resident set of this process, MB.
[[nodiscard]] double self_peak_rss_mb();
/// Current resident set of this process, MB.
[[nodiscard]] double self_rss_mb();
/// A "<key> <n> kB" line of a /proc/<pid>/status file, in MB (0 when
/// absent), e.g. proc_status_mb("/proc/self/status", "VmRSS:").
[[nodiscard]] double proc_status_mb(const std::string& path,
                                    const std::string& key);

/// Host fingerprint: nproc, 1-minute load, active SIMD kernel table and
/// whether the build is optimised.
struct Host {
  unsigned nproc = 0;
  double load1 = 0.0;
  std::string simd;
  bool optimised = false;
  std::string build_type;
};
[[nodiscard]] Host host_fingerprint();
[[nodiscard]] std::string to_string(const Host& host);

/// A flattened obs::Registry JSON rendering: counters under their own
/// names, histogram fields as "<name>.count|sum|min|max".
using Snapshot = std::map<std::string, double>;

/// Parses the registry JSON ({"counters": {...}, "histograms": {...}}),
/// alone or nested under a "metrics" key as in vihotd's health report.
/// Empty on malformed input.
[[nodiscard]] Snapshot parse_registry_json(const std::string& json);
/// Value of `key` in `s`, 0 when absent.
[[nodiscard]] double at(const Snapshot& s, const std::string& key);

/// Counter deltas of the serving process summed over the traced ticks
/// of a run, plus its latest snapshot (for high-water marks and set-up
/// totals).
struct TracedCounters {
  Snapshot deltas;
  Snapshot latest;
  double ticks = 0.0;

  void add(const Snapshot& before, const Snapshot& after);
};

/// Per-layer metrics every run derives the same way from the counters
/// (tracker.*, engine.*, ingest.*, daemon.*, profile_store.*).
void add_counter_layers(Report& report, const TracedCounters& counters);

class Trace;
/// In-process runs: engine.push_csi_us / engine.push_imu_us, the wall
/// time of the "push_csi" / "push_imu" spans per accepted sample.
void add_feed_layers(Report& report, const Trace& trace,
                     const TracedCounters& counters);

/// In-memory spans recorded by the benchmark around its calls into the
/// library and the daemon. Spans of one tick share its id; a span's
/// parent is the index of the span that encloses it (-1 for a root).
class Trace {
 public:
  explicit Trace(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Opens a span; returns its index (or -1 while disabled).
  int begin(const char* name, std::uint64_t tick, int parent = -1);
  void end(int span);
  /// Records a counter delta observed over one tick.
  void counter(std::uint64_t tick, const std::string& name, double delta);

  /// Total duration (ms) of closed spans named `name`.
  [[nodiscard]] double total_ms(const std::string& name) const;
  /// Durations (ms) of closed spans named `name`.
  [[nodiscard]] std::vector<double> durations_ms(
      const std::string& name) const;

  /// Writes every span and counter as Chrome trace-event JSON (load it
  /// in Perfetto or chrome://tracing). False on I/O failure.
  bool write(const std::string& path, const std::string& header) const;

  /// Switches recording on or off (the traced run alternates blocks).
  void set_enabled(bool enabled) noexcept { enabled_ = enabled; }

 private:
  struct SpanRec {
    const char* name;
    std::uint64_t tick;
    int parent;
    Clock::time_point start;
    Clock::time_point end;
  };
  struct CounterRec {
    std::uint64_t tick;
    std::string name;
    double delta;
    Clock::time_point at;
  };
  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::vector<SpanRec> spans_;
  std::vector<CounterRec> counters_;
};

/// RAII span (a no-op while the trace is disabled).
class Span {
 public:
  Span(Trace& trace, const char* name, std::uint64_t tick, int parent = -1)
      : trace_(trace), id_(trace.begin(name, tick, parent)) {}
  ~Span() { trace_.end(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  [[nodiscard]] int id() const noexcept { return id_; }

 private:
  Trace& trace_;
  int id_;
};

/// Snapshot of an in-process registry (rendered and parsed the same way
/// as the daemon's health report, so both sides share one reader).
[[nodiscard]] Snapshot snapshot_of(const vihot::obs::Registry& registry);
/// Records every counter that moved between `a` and `b` as a tick delta.
void trace_deltas(Trace& trace, std::uint64_t tick, const Snapshot& a,
                  const Snapshot& b);

/// The traced run alternates blocks of traced and untraced ticks so it
/// can price its own tracing: tick k is traced when this is true.
[[nodiscard]] inline bool traced_tick(std::uint64_t k) {
  return (k / 16) % 2 == 0;
}

/// Bookkeeping of the closed serve loop. Serving time is the sum of tick
/// latencies: the harness's own work between ticks (staging the next
/// inputs, checking results) is not charged to the stack.
struct ServeLog {
  std::vector<double> tick_ms;      ///< every tick
  std::vector<double> traced_ms;    ///< traced run: ticks with spans on
  std::vector<double> untraced_ms;  ///< traced run: ticks with spans off
  std::uint64_t estimates = 0;      ///< session results delivered
  double cpu_s = 0.0;               ///< serving process CPU in the ticks

  void add_tick(double ms, bool traced) {
    tick_ms.push_back(ms);
    (traced ? traced_ms : untraced_ms).push_back(ms);
  }
};

/// Fills the end-to-end metrics of a run.
void add_end_to_end(Report& report, const ServeLog& log, double setup_s,
                    const std::vector<double>& errors_deg,
                    double peak_rss_mb);

/// Adds trace.overhead_pct: median latency of traced ticks over that of
/// untraced ticks, minus one, in percent.
void add_trace_overhead(Report& report, const ServeLog& log);

/// SplitMix64: derives independent per-purpose seeds from --seed.
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

}  // namespace servebench
