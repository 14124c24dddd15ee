// fleet_moving: the synthetic worst case of the fleet tier.
//
// A 4-shard FleetRouter serves kSessions sessions against the analytic
// phase curve and profile of bench_engine_throughput. Every session turns
// its head at its own seeded constant rate, so every estimate is a hinted
// match and the matcher does nearly all the work. A tick is the tick's
// CSI and IMU feeds (100 Hz each per session, 10 per tick; the car drives
// straight, so the IMU reads zero yaw) plus one estimate_all on a 10 Hz
// clock.
//
// The sweeps are monotone ramps over the steep stretch of the phase curve
// (|slope| >= 0.9 rad/rad). A turnaround cannot be used: its V-shaped
// phase window is indistinguishable from the head passing the curve's
// extremum, and the tracker rightly follows that twin branch. So the run
// is made of rounds: sessions are created facing forward, ramp through
// the stretch for kTicksPerRound ticks, and are destroyed.
//
// Checks per tick: every estimate is valid and within kBoundDeg of the
// analytic angle, and a seeded sample of sessions served alone in a
// one-shard fleet returns bit-identical results (session independence
// and shard-count invariance).
#include <algorithm>
#include <cmath>
#include <complex>
#include <memory>
#include <span>
#include <vector>

#include "checks.h"
#include "common.h"
#include "engine/fleet.h"
#include "imu/imu.h"
#include "obs/metrics.h"
#include "obs/sink.h"
#include "util/rng.h"
#include "workloads.h"

namespace servebench {

namespace {

using vihot::core::TrackResult;
using vihot::engine::FleetRouter;
using vihot::engine::SessionId;
using vihot::wifi::CsiMeasurement;

// The ROADMAP SLO row: 2000 sessions over 4 shards.
constexpr std::size_t kSessions = 2000;
constexpr std::size_t kShards = 4;
constexpr double kCsiDt = 0.01;        // 100 Hz CSI per session
constexpr std::int64_t kPerTick = 10;  // 10 Hz serving clock
// The first tick waits for 0.2 s of CSI (the matcher's longest window).
constexpr std::int64_t kFirstTickSamples = 20;
constexpr std::size_t kTicksPerRound = 11;
constexpr std::size_t kWarmTicks = 2;
// Ramp: theta(t) = kStart - rate * t, rate in [kMinRate, kMaxRate]; the
// fastest session ends the round at -0.7 rad, inside the steep stretch.
constexpr double kStart = 0.3;
constexpr double kMinRate = 0.6;
constexpr double kMaxRate = 0.8;
constexpr std::size_t kAloneSample = 8;
// Largest error any estimate may show (measured maxima stay below 1.5).
constexpr double kBoundDeg = 3.0;

// The non-injective phase curve of the core tests and
// bench_engine_throughput (Fig. 3 shape).
double phase_of(double theta) {
  return 0.8 * std::sin(1.3 * theta) + 0.35 * std::sin(2.6 * theta + 0.7);
}

vihot::core::CsiProfile make_profile() {
  vihot::core::PositionProfile pos;
  pos.position_index = 0;
  pos.fingerprint_phase = phase_of(0.0);
  pos.csi.t0 = 0.0;
  pos.csi.dt = 1.0 / 200.0;
  pos.orientation.t0 = 0.0;
  pos.orientation.dt = pos.csi.dt;
  const double period = 5.0;  // theta triangle [-2, 2] at 1.6 rad/s
  for (std::size_t k = 0; k < 2000; ++k) {
    const double t = pos.csi.time_at(k);
    const double u = std::fmod(t, period) / period;
    const double theta = (u < 0.5) ? (-2.0 + 8.0 * u) : (6.0 - 8.0 * u);
    pos.orientation.values.push_back(theta);
    pos.csi.values.push_back(phase_of(theta));
  }
  vihot::core::CsiProfile profile;
  profile.positions.push_back(std::move(pos));
  return profile;
}

CsiMeasurement measurement(double t, double phi) {
  CsiMeasurement m;
  m.t = t;
  m.h[0].assign(4, std::polar(1.0, phi));
  m.h[1].assign(4, {1.0, 0.0});
  return m;
}

double sample_time(std::int64_t k) { return static_cast<double>(k) * kCsiDt; }

/// A straight drive's IMU sample: no yaw, no lateral acceleration.
vihot::imu::ImuSample straight_imu(double t) {
  vihot::imu::ImuSample s;
  s.t = t;
  return s;
}

/// One session's feeds of a tick outside the timed region: its CSI, then
/// the IMU at the same instants (the order the timed tick feeds them in).
void feed_session(FleetRouter& router, SessionId id,
                  const std::vector<CsiMeasurement>& csi) {
  for (const auto& m : csi) router.push_csi(id, m);
  for (const auto& m : csi) router.push_imu(id, straight_imu(m.t));
}

/// Last sample index fed before tick `j` of a round.
std::int64_t last_sample(std::size_t j) {
  return kFirstTickSamples + kPerTick * static_cast<std::int64_t>(j);
}

}  // namespace

Report run_fleet_moving(const Options& opts) {
  Report report;
  Trace trace(opts.trace);
  vihot::obs::Sink sink;
  vihot::obs::Registry registry;
  sink.attach_to(registry);

  // --- Set-up -----------------------------------------------------------
  const auto t_profile = Clock::now();
  vihot::engine::FleetConfig fc;
  fc.shards = kShards;
  fc.threads_per_shard = 0;  // each shard's tick thread does its matching
  fc.parallel_shards = true;
  fc.sink = &sink;
  FleetRouter fleet(fc);
  const auto profile = fleet.add_profile(make_profile());
  vihot::engine::FleetConfig alone_fc;
  alone_fc.shards = 1;
  FleetRouter alone(alone_fc);
  const auto alone_profile = alone.add_profile(make_profile());

  // Every round replays the same inputs: feeds[j][s] are session s's CSI
  // samples for tick j, truth[j][s] its head angle at the tick.
  const auto t_inputs = Clock::now();
  vihot::util::Rng rng(mix_seed(opts.seed, 1));
  std::vector<double> rate(kSessions);
  for (double& r : rate) r = rng.uniform(kMinRate, kMaxRate);
  const std::size_t stride = kSessions / kAloneSample;
  const auto first = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(stride) - 1));
  std::vector<std::size_t> sample;  // sessions also served alone
  for (std::size_t i = 0; i < kAloneSample; ++i) {
    sample.push_back(first + i * stride);
  }
  std::vector<std::vector<std::vector<CsiMeasurement>>> feeds(kTicksPerRound);
  std::vector<std::vector<double>> truth(kTicksPerRound);
  for (std::size_t j = 0; j < kTicksPerRound; ++j) {
    const std::int64_t k_from = j == 0 ? 0 : last_sample(j - 1) + 1;
    feeds[j].resize(kSessions);
    for (std::size_t s = 0; s < kSessions; ++s) {
      for (std::int64_t k = k_from; k <= last_sample(j); ++k) {
        const double t = sample_time(k);
        feeds[j][s].push_back(measurement(t, phase_of(kStart - rate[s] * t)));
      }
      truth[j].push_back(kStart - rate[s] * sample_time(last_sample(j)));
    }
  }

  // The harness's own footprint (binary, both empty fleets, the staged
  // inputs), so peak_rss_mb charges the serving stack alone.
  const double harness_rss_mb = self_rss_mb();

  // Sessions of one round; create/destroy are timed as layer calls.
  std::vector<SessionId> ids;
  std::vector<SessionId> alone_ids;
  std::uint64_t tick = 0;
  const auto open_round = [&]() {
    ids.clear();
    for (std::size_t s = 0; s < kSessions; ++s) {
      Span span(trace, "create_session", tick);
      ids.push_back(fleet.create_session(profile));
    }
    alone_ids.clear();
    for (std::size_t i = 0; i < kAloneSample; ++i) {
      alone_ids.push_back(alone.create_session(alone_profile));
    }
  };
  const auto close_round = [&]() {
    for (const SessionId id : ids) {
      Span span(trace, "destroy_session", tick);
      fleet.destroy_session(id);
    }
    for (const SessionId id : alone_ids) alone.destroy_session(id);
  };

  // A short warm-up round (caches, first touch, allocator): untimed.
  const auto t_warm = Clock::now();
  trace.set_enabled(false);
  open_round();
  for (std::size_t j = 0; j < kWarmTicks; ++j) {
    for (std::size_t s = 0; s < kSessions; ++s) {
      feed_session(fleet, ids[s], feeds[j][s]);
    }
    (void)fleet.estimate_all(sample_time(last_sample(j)));
  }
  close_round();
  const auto t_serve = Clock::now();
  const double setup_s = s_between(opts.process_start, t_serve);

  // --- Serve loop: whole rounds until the run length is reached ----------
  ServeLog log;
  std::vector<double> errors;
  TracedCounters counters;
  std::vector<std::uint64_t> items_traced(kShards, 0);
  const auto shard_items = [&]() {
    std::vector<std::uint64_t> out;
    for (std::size_t s = 0; s < fleet.num_shards(); ++s) {
      std::uint64_t sum = 0;
      for (const auto x : fleet.shard(s).worker_items_drained()) sum += x;
      out.push_back(sum);
    }
    return out;
  };

  while (s_between(t_serve, Clock::now()) < opts.seconds) {
    trace.set_enabled(opts.trace && traced_tick(tick));
    open_round();
    for (std::size_t j = 0; j < kTicksPerRound; ++j, ++tick) {
      const double t_now = sample_time(last_sample(j));
      const bool traced = opts.trace && traced_tick(tick);
      trace.set_enabled(traced);
      Snapshot before;
      std::vector<std::uint64_t> items_before;
      if (traced) {
        before = snapshot_of(registry);
        items_before = shard_items();
      }

      const double cpu0 = process_cpu_s();
      const auto t0 = Clock::now();
      std::span<const TrackResult> results;
      {
        Span tick_span(trace, "tick", tick);
        {
          Span feed(trace, "push_csi", tick, tick_span.id());
          for (std::size_t s = 0; s < kSessions; ++s) {
            for (const auto& m : feeds[j][s]) fleet.push_csi(ids[s], m);
          }
        }
        {
          Span feed(trace, "push_imu", tick, tick_span.id());
          for (std::size_t s = 0; s < kSessions; ++s) {
            for (const auto& m : feeds[j][s]) {
              fleet.push_imu(ids[s], straight_imu(m.t));
            }
          }
        }
        Span est(trace, "estimate_all", tick, tick_span.id());
        results = fleet.estimate_all(t_now);
      }
      const auto t1 = Clock::now();
      log.cpu_s += process_cpu_s() - cpu0;
      log.add_tick(ms_between(t0, t1), traced);
      log.estimates += results.size();
      report.attempted += 1;

      if (traced) {
        const Snapshot after = snapshot_of(registry);
        trace_deltas(trace, tick, before, after);
        counters.add(before, after);
        const auto items_after = shard_items();
        for (std::size_t s = 0; s < kShards; ++s) {
          items_traced[s] += items_after[s] - items_before[s];
        }
      }

      // Checks (untimed).
      std::string why =
          checks::analytic_tick(results, truth[j], kBoundDeg, &errors);
      for (std::size_t i = 0; i < kAloneSample; ++i) {
        feed_session(alone, alone_ids[i], feeds[j][sample[i]]);
      }
      const auto alone_results = alone.estimate_all(t_now);
      for (std::size_t i = 0; i < kAloneSample && why.empty(); ++i) {
        why = checks::bit_identical(alone_results[i], results[sample[i]]);
      }
      if (!why.empty()) {
        report.fail_op("tick " + std::to_string(tick) + ": " + why);
      }
    }
    close_round();
  }

  add_end_to_end(report, log, setup_s, errors,
                 self_peak_rss_mb() - harness_rss_mb);
  if (opts.trace) {
    add_counter_layers(report, counters);
    add_feed_layers(report, trace, counters);
    report.layer("engine.tick_ms",
                 quantile(trace.durations_ms("estimate_all"), 0.5), "ms");
    double mx = 0.0;
    double sum = 0.0;
    for (const auto v : items_traced) {
      mx = std::max(mx, static_cast<double>(v));
      sum += static_cast<double>(v);
    }
    report.layer("engine.worker_items_max_over_mean",
                 sum > 0.0 ? mx / (sum / static_cast<double>(kShards)) : 0.0,
                 "ratio");
    report.layer("engine.create_session_us",
                 1000.0 * mean(trace.durations_ms("create_session")), "us");
    report.layer("engine.destroy_session_us",
                 1000.0 * mean(trace.durations_ms("destroy_session")), "us");
    report.layer("setup.profile_s", s_between(t_profile, t_inputs), "s");
    report.layer("setup.inputs_s", s_between(t_inputs, t_warm), "s");
    report.layer("setup.sessions_s", s_between(t_warm, t_serve), "s");
    add_trace_overhead(report, log);
    const std::string path = opts.out_dir + "/fleet_moving-" +
                             std::to_string(opts.seed) + ".trace.json";
    if (!trace.write(path, to_string(host_fingerprint()))) {
      report.fail_run("cannot write " + path);
    }
  }
  return report;
}

}  // namespace servebench
