#include "common.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <sstream>
#include <thread>

#include <sys/resource.h>

#include "dsp/simd.h"
#include "obs/metrics.h"

namespace servebench {

void Report::fail_op(const std::string& why) {
  failed += 1;
  if (problems.size() < 8) problems.push_back(why);
}

void Report::fail_run(const std::string& why) {
  correct = false;
  if (problems.size() < 8) problems.push_back(why);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double self_peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double self_rss_mb() { return proc_status_mb("/proc/self/status", "VmRSS:"); }

double proc_status_mb(const std::string& path, const std::string& key) {
  std::ifstream in(path);
  std::string field;
  while (in >> field) {
    if (field == key) {
      double kb = 0.0;
      in >> kb;
      return kb / 1024.0;
    }
    std::string rest;
    std::getline(in, rest);
  }
  return 0.0;
}

Host host_fingerprint() {
  Host h;
  h.nproc = std::thread::hardware_concurrency();
  double load[3] = {0.0, 0.0, 0.0};
  if (getloadavg(load, 3) > 0) h.load1 = load[0];
  h.simd = vihot::dsp::simd::to_string(vihot::dsp::simd::active_level());
#if defined(__OPTIMIZE__) && defined(NDEBUG)
  h.optimised = true;
#endif
  h.build_type = SERVEBENCH_BUILD_TYPE;
  return h;
}

std::string to_string(const Host& host) {
  std::ostringstream os;
  os << "nproc=" << host.nproc << " load1=" << host.load1
     << " simd=" << host.simd << " optimised=" << (host.optimised ? 1 : 0)
     << " build=" << host.build_type;
  return os.str();
}

// --- Registry JSON --------------------------------------------------------

namespace {

/// Minimal recursive-descent reader for the registry's JSON: objects
/// flatten into the snapshot, arrays (histogram buckets) are skipped.
class JsonFlattener {
 public:
  explicit JsonFlattener(const std::string& s) : s_(s) {}

  bool run(Snapshot* out) {
    out_ = out;
    skip_ws();
    return value("") && (skip_ws(), i_ == s_.size());
  }

 private:
  void skip_ws() {
    while (i_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[i_])))
      ++i_;
  }
  bool string(std::string* out) {
    if (i_ >= s_.size() || s_[i_] != '"') return false;
    ++i_;
    out->clear();
    while (i_ < s_.size() && s_[i_] != '"') {
      if (s_[i_] == '\\' && i_ + 1 < s_.size()) ++i_;
      out->push_back(s_[i_++]);
    }
    if (i_ >= s_.size()) return false;
    ++i_;
    return true;
  }
  bool value(const std::string& path) {
    skip_ws();
    if (i_ >= s_.size()) return false;
    const char c = s_[i_];
    if (c == '{') return object(path);
    if (c == '[') return array();
    if (c == '"') {
      std::string ignored;
      return string(&ignored);
    }
    if (s_.compare(i_, 4, "true") == 0) {
      i_ += 4;
      (*out_)[path] = 1.0;
      return true;
    }
    if (s_.compare(i_, 5, "false") == 0) {
      i_ += 5;
      (*out_)[path] = 0.0;
      return true;
    }
    const char* begin = s_.c_str() + i_;
    char* end = nullptr;
    const double v = std::strtod(begin, &end);
    if (end == begin) return false;
    i_ += static_cast<std::size_t>(end - begin);
    (*out_)[path] = v;
    return true;
  }
  bool object(const std::string& path) {
    ++i_;  // '{'
    skip_ws();
    if (i_ < s_.size() && s_[i_] == '}') {
      ++i_;
      return true;
    }
    while (true) {
      skip_ws();
      std::string key;
      if (!string(&key)) return false;
      skip_ws();
      if (i_ >= s_.size() || s_[i_] != ':') return false;
      ++i_;
      if (!value(path.empty() ? key : path + "/" + key)) return false;
      skip_ws();
      if (i_ < s_.size() && s_[i_] == ',') {
        ++i_;
        continue;
      }
      if (i_ < s_.size() && s_[i_] == '}') {
        ++i_;
        return true;
      }
      return false;
    }
  }
  bool array() {
    int depth = 0;
    bool in_string = false;
    for (; i_ < s_.size(); ++i_) {
      const char c = s_[i_];
      if (in_string) {
        if (c == '\\') ++i_;
        else if (c == '"') in_string = false;
      } else if (c == '"') {
        in_string = true;
      } else if (c == '[') {
        ++depth;
      } else if (c == ']' && --depth == 0) {
        ++i_;
        return true;
      }
    }
    return false;
  }

  const std::string& s_;
  std::size_t i_ = 0;
  Snapshot* out_ = nullptr;
};

}  // namespace

Snapshot parse_registry_json(const std::string& json) {
  Snapshot raw;
  if (!JsonFlattener(json).run(&raw)) return {};
  // "[metrics/]counters/<name>" -> <name>;
  // "[metrics/]histograms/<name>/<field>" -> <name>.<field>.
  Snapshot out;
  for (const auto& [path, v] : raw) {
    std::string p = path;
    if (p.rfind("metrics/", 0) == 0) p = p.substr(8);
    if (p.rfind("counters/", 0) == 0) {
      out[p.substr(9)] = v;
    } else if (p.rfind("histograms/", 0) == 0) {
      std::string rest = p.substr(11);
      const std::size_t slash = rest.rfind('/');
      if (slash != std::string::npos) rest[slash] = '.';
      out[rest] = v;
    } else {
      out[p] = v;  // e.g. "daemon/sessions" from the health header
    }
  }
  return out;
}

double at(const Snapshot& s, const std::string& key) {
  const auto it = s.find(key);
  return it == s.end() ? 0.0 : it->second;
}

void TracedCounters::add(const Snapshot& before, const Snapshot& after) {
  for (const auto& [key, value] : after) deltas[key] += value - at(before, key);
  latest = after;
  ticks += 1.0;
}

void add_counter_layers(Report& r, const TracedCounters& c) {
  const auto d = [&](const std::string& key) { return at(c.deltas, key); };
  const auto& b = c.latest;
  const double est = d("tracker.estimates");
  const auto per_est = [&](const std::string& key) {
    return est > 0.0 ? d(key) / est : 0.0;
  };
  const auto per_tick = [&](const std::string& key) {
    return c.ticks > 0.0 ? d(key) / c.ticks : 0.0;
  };
  const auto hist_mean = [&](const std::string& name) {
    const double n = d(name + ".count");
    return n > 0.0 ? d(name + ".sum") / n : 0.0;
  };

  const double cand = d("tracker.match_candidates");
  const double evaluated = d("tracker.match_dtw_evaluated");
  r.layer("dsp.candidates_per_estimate", per_est("tracker.match_candidates"),
          "count/est");
  r.layer("dsp.lb_endpoint_pruned", per_est("tracker.match_lb_endpoint_pruned"),
          "count/est");
  r.layer("dsp.lb_band_pruned", per_est("tracker.match_lb_band_pruned"),
          "count/est");
  r.layer("dsp.dtw_abandoned", per_est("tracker.match_dtw_abandoned"),
          "count/est");
  r.layer("dsp.dtw_evaluated_per_estimate",
          per_est("tracker.match_dtw_evaluated"), "count/est");
  r.layer("dsp.prune_ratio", cand > 0.0 ? 1.0 - evaluated / cand : 0.0,
          "ratio");

  for (const char* name :
       {"window_flat", "window_hinted", "window_global", "match_attempts",
        "relock_widen", "relock_global", "tie_break_applied",
        "stale_window_relocks", "stable_phase_locks"}) {
    r.layer(std::string("core.") + name,
            per_est(std::string("tracker.") + name), "count/est");
  }

  r.layer("ingest.drained_csi", per_tick("ingest.drained_csi"), "count/tick");
  r.layer("ingest.drain_batch_mean", hist_mean("ingest.drain_batch"),
          "count");
  r.layer("ingest.queue_depth_csi_max", at(b, "ingest.queue_depth_csi.max"),
          "count");
  r.layer("ingest.dropped",
          d("ingest.csi_dropped_newest") + d("ingest.csi_dropped_oldest") +
              d("ingest.imu_dropped_newest") + d("ingest.imu_dropped_oldest"),
          "count");

  r.layer("daemon.bytes_rx_per_tick", per_tick("daemon.bytes_rx"), "B/tick");
  r.layer("daemon.bytes_tx_per_tick", per_tick("daemon.bytes_tx"), "B/tick");
  r.layer("daemon.results_fanned_out", per_tick("daemon.results_fanned_out"),
          "count/tick");
  r.layer("daemon.sub_queue_depth_max", at(b, "daemon.sub_queue_depth.max"),
          "count");
  r.layer("daemon.engine_batch_us_mean", hist_mean("engine.batch_latency_us"),
          "us");

  r.layer("profile_store.interned", at(b, "profile_store.interned"), "count");
  r.layer("profile_store.dedup_hits", at(b, "profile_store.dedup_hits"),
          "count");
}

void add_feed_layers(Report& report, const Trace& trace,
                     const TracedCounters& counters) {
  const double csi = at(counters.deltas, "engine.csi_frames");
  const double imu = at(counters.deltas, "engine.imu_samples");
  report.layer("engine.push_csi_us",
               csi > 0.0 ? 1000.0 * trace.total_ms("push_csi") / csi : 0.0,
               "us");
  report.layer("engine.push_imu_us",
               imu > 0.0 ? 1000.0 * trace.total_ms("push_imu") / imu : 0.0,
               "us");
}

// --- Trace ----------------------------------------------------------------

int Trace::begin(const char* name, std::uint64_t tick, int parent) {
  if (!enabled_) return -1;
  spans_.push_back({name, tick, parent, Clock::now(), Clock::time_point{}});
  return static_cast<int>(spans_.size() - 1);
}

void Trace::end(int span) {
  if (span < 0) return;
  spans_[static_cast<std::size_t>(span)].end = Clock::now();
}

void Trace::counter(std::uint64_t tick, const std::string& name,
                    double delta_value) {
  if (!enabled_) return;
  counters_.push_back({tick, name, delta_value, Clock::now()});
}

std::vector<double> Trace::durations_ms(const std::string& name) const {
  std::vector<double> out;
  for (const SpanRec& s : spans_) {
    if (name == s.name && s.end != Clock::time_point{}) {
      out.push_back(ms_between(s.start, s.end));
    }
  }
  return out;
}

double Trace::total_ms(const std::string& name) const {
  double sum = 0.0;
  for (const double d : durations_ms(name)) sum += d;
  return sum;
}

bool Trace::write(const std::string& path, const std::string& header) const {
  std::ofstream os(path);
  if (!os) return false;
  const auto us = [&](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  };
  os.precision(15);
  os << "{\"otherData\": {\"host\": \"" << header << "\"},\n"
     << " \"traceEvents\": [";
  bool first = true;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRec& s = spans_[i];
    if (s.end == Clock::time_point{}) continue;
    os << (first ? "\n" : ",\n") << "  {\"name\": \"" << s.name
       << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": " << us(s.start)
       << ", \"dur\": " << us(s.end) - us(s.start) << ", \"args\": {\"id\": "
       << i << ", \"parent\": " << s.parent << ", \"tick\": " << s.tick
       << "}}";
    first = false;
  }
  for (const CounterRec& c : counters_) {
    os << (first ? "\n" : ",\n") << "  {\"name\": \"" << c.name
       << "\", \"ph\": \"C\", \"pid\": 1, \"ts\": " << us(c.at)
       << ", \"args\": {\"delta\": " << c.delta << ", \"tick\": " << c.tick
       << "}}";
    first = false;
  }
  os << "\n]}\n";
  return static_cast<bool>(os);
}

Snapshot snapshot_of(const vihot::obs::Registry& registry) {
  std::ostringstream os;
  registry.write_json(os);
  return parse_registry_json(os.str());
}

void trace_deltas(Trace& trace, std::uint64_t tick, const Snapshot& a,
                  const Snapshot& b) {
  if (!trace.enabled()) return;
  for (const auto& [key, value] : b) {
    const double d = value - at(a, key);
    if (d != 0.0) trace.counter(tick, key, d);
  }
}

void add_end_to_end(Report& report, const ServeLog& log, double setup_s,
                    const std::vector<double>& errors_deg,
                    double peak_rss_mb) {
  double serving_s = 0.0;
  for (const double ms : log.tick_ms) serving_s += ms / 1000.0;
  const auto est = static_cast<double>(log.estimates);
  report.e2e("setup_s", setup_s, "s");
  report.e2e("tick_ms_p50", quantile(log.tick_ms, 0.5), "ms");
  report.e2e("tick_ms_p90", quantile(log.tick_ms, 0.9), "ms");
  report.e2e("estimates_per_s", serving_s > 0.0 ? est / serving_s : 0.0,
             "1/s");
  report.e2e("cpu_us_per_estimate", est > 0.0 ? log.cpu_s * 1e6 / est : 0.0,
             "us");
  report.e2e("err_deg_p50", quantile(errors_deg, 0.5), "deg");
  report.e2e("err_deg_p90", quantile(errors_deg, 0.9), "deg");
  report.e2e("peak_rss_mb", peak_rss_mb, "MB");
}

void add_trace_overhead(Report& report, const ServeLog& log) {
  const double plain = quantile(log.untraced_ms, 0.5);
  const double traced = quantile(log.traced_ms, 0.5);
  report.layer("trace.overhead_pct",
               plain > 0.0 ? 100.0 * (traced / plain - 1.0) : 0.0, "%");
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace servebench
