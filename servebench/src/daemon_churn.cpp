// daemon_churn: a real vihotd serving a rideshare-churn fleet.
//
// Set-up records the rideshare_churn pack, scaled to kCabins cabins, in
// process (scenario::run_pack with a flight recorder), then starts
// vihotd on a private socket. The serve loop replays the recording over
// the wire with one feeder connection — sessions open and close mid-run
// — while two subscriber connections receive every tick's results. With
// few sessions the matcher is cheap: the work is frame parsing, ingest
// offer/drain, session churn, result encoding and subscriber fan-out.
// One feeder, because the daemon keeps one serving clock for all
// feeders.
//
// The cabins keep the pack's own seed: rider tracking is all-or-nothing
// per occupant, so re-seeded cabins would swing the error quantiles by
// half from seed to seed. --seed instead sets the order in which the
// feeder interleaves the sessions' frames within each tick (each
// session's own frames keep their order, so results must not change).
//
// A tick runs from the first feed frame of the tick to the moment both
// subscribers hold its kResults frame. The run is made of rounds, one
// pass over the recording each; a round ends with every session closed,
// which resets the daemon's clock, so every round must stream the
// recorded results again.
//
// Checks: the in-process run's cabin 0 (the cabin the pack's accuracy
// envelope was calibrated on) stays inside that envelope against the
// simulator's ground truth; every streamed tick is byte-equal to the
// in-process run (replay::encode_track_result on both sides) on both
// subscribers;
// sessions opened minus closed equals the daemon's live count, and the
// daemon counted exactly the churn that was sent; vihotd exits 0 on
// SIGTERM and unlinks its socket.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <unistd.h>
#include <unordered_map>
#include <vector>

#include "checks.h"
#include "common.h"
#include "daemon/client.h"
#include "daemon_proc.h"
#include "replay/recorder.h"
#include "replay/replayer.h"
#include "replay/vrlog.h"
#include "scenario/registry.h"
#include "scenario/runner.h"
#include "util/rng.h"
#include "workloads.h"

namespace servebench {

namespace {

namespace vd = vihot::daemon;
namespace vr = vihot::replay;

constexpr std::size_t kCabins = 8;
constexpr int kTimeoutMs = 10000;  // client timeout of every reply

/// The recording, decoded once so the serve loop only sends.
struct Recording {
  enum class Kind { kOpen, kClose, kCsi, kImu, kCamera, kTick, kTickEnd };
  struct Event {
    Kind kind;
    std::size_t index;  ///< into the vector of its kind
  };
  struct Open {
    std::uint64_t rec_id;
    std::size_t profile;
    vihot::core::TrackerConfig config;
  };
  template <typename T>
  struct Feed {
    std::uint64_t rec_id;
    T sample;
  };

  std::vector<Event> events;
  std::vector<vihot::core::CsiProfile> profiles;
  std::vector<Open> opens;
  std::vector<std::uint64_t> closes;
  std::vector<Feed<vihot::wifi::CsiMeasurement>> csi;
  std::vector<Feed<vihot::imu::ImuSample>> imu;
  std::vector<Feed<vihot::camera::CameraTracker::Estimate>> camera;
  std::vector<double> ticks;
  std::vector<checks::ExpectedTick> expected;

  bool load(const std::string& path, std::string* error);
  /// Reorders every run of feed frames between two other events into a
  /// seeded interleave of the sessions, keeping each session's order.
  void interleave(std::uint64_t seed);

 private:
  [[nodiscard]] std::uint64_t session_of(const Event& ev) const;
};

std::uint64_t Recording::session_of(const Event& ev) const {
  switch (ev.kind) {
    case Kind::kCsi:
      return csi[ev.index].rec_id;
    case Kind::kImu:
      return imu[ev.index].rec_id;
    case Kind::kCamera:
      return camera[ev.index].rec_id;
    default:
      return 0;
  }
}

void Recording::interleave(std::uint64_t seed) {
  vihot::util::Rng rng(seed);
  const auto is_feed = [](const Event& ev) {
    return ev.kind == Kind::kCsi || ev.kind == Kind::kImu ||
           ev.kind == Kind::kCamera;
  };
  std::size_t i = 0;
  while (i < events.size()) {
    if (!is_feed(events[i])) {
      ++i;
      continue;
    }
    std::size_t end = i;
    while (end < events.size() && is_feed(events[end])) ++end;
    // Per-session queues in first-appearance order, drained by seeded
    // draws weighted by what each session has left.
    std::vector<std::uint64_t> order;
    std::unordered_map<std::uint64_t, std::vector<Event>> queues;
    for (std::size_t k = i; k < end; ++k) {
      const std::uint64_t sid = session_of(events[k]);
      if (queues.find(sid) == queues.end()) order.push_back(sid);
      queues[sid].push_back(events[k]);
    }
    std::vector<std::size_t> head(order.size(), 0);
    for (std::size_t k = i, left = end - i; k < end; ++k, --left) {
      auto pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(left) - 1));
      std::size_t q = 0;
      for (;; ++q) {
        const std::size_t remaining = queues[order[q]].size() - head[q];
        if (pick < remaining) break;
        pick -= remaining;
      }
      events[k] = queues[order[q]][head[q]++];
    }
    i = end;
  }
}

bool Recording::load(const std::string& path, std::string* error) {
  const vr::LoadedLog log = vr::LoadedLog::load(path);
  if (!log.ok()) {
    *error = log.error();
    return false;
  }
  std::unordered_map<std::uint32_t, std::size_t> by_hash;
  const auto bad = [&](const char* what) {
    *error = std::string("malformed ") + what + " chunk";
    return false;
  };
  for (const vr::ChunkView& chunk : log.chunks()) {
    vr::Cursor in(chunk.payload, chunk.size);
    switch (chunk.type) {
      case vr::ChunkType::kHeader:
      case vr::ChunkType::kFooter:
        break;
      case vr::ChunkType::kProfile: {
        vihot::core::CsiProfile p;
        if (!vr::decode_profile(in, &p)) return bad("profile");
        by_hash[vr::crc32(chunk.payload, chunk.size)] = profiles.size();
        profiles.push_back(std::move(p));
        break;
      }
      case vr::ChunkType::kSessionStart: {
        Open o{};
        o.rec_id = in.get_u64();
        const auto it = by_hash.find(in.get_u32());
        if (it == by_hash.end() || !vr::decode_tracker_config(in, &o.config)) {
          return bad("session-start");
        }
        o.profile = it->second;
        events.push_back({Kind::kOpen, opens.size()});
        opens.push_back(std::move(o));
        break;
      }
      case vr::ChunkType::kSessionEnd:
        events.push_back({Kind::kClose, closes.size()});
        closes.push_back(in.get_u64());
        if (!in.ok()) return bad("session-end");
        break;
      case vr::ChunkType::kCsi: {
        Feed<vihot::wifi::CsiMeasurement> f{};
        bool offered = false;
        if (!vr::decode_csi_payload(in, &f.rec_id, &f.sample, &offered)) {
          return bad("CSI");
        }
        events.push_back({Kind::kCsi, csi.size()});
        csi.push_back(std::move(f));
        break;
      }
      case vr::ChunkType::kImu: {
        Feed<vihot::imu::ImuSample> f{};
        bool offered = false;
        if (!vr::decode_imu_payload(in, &f.rec_id, &f.sample, &offered)) {
          return bad("IMU");
        }
        events.push_back({Kind::kImu, imu.size()});
        imu.push_back(f);
        break;
      }
      case vr::ChunkType::kCamera: {
        Feed<vihot::camera::CameraTracker::Estimate> f{};
        if (!vr::decode_camera_payload(in, &f.rec_id, &f.sample)) {
          return bad("camera");
        }
        events.push_back({Kind::kCamera, camera.size()});
        camera.push_back(f);
        break;
      }
      case vr::ChunkType::kTickBegin:
        events.push_back({Kind::kTick, ticks.size()});
        ticks.push_back(in.get_f64());
        if (!in.ok()) return bad("tick-begin");
        break;
      case vr::ChunkType::kTickEnd: {
        checks::ExpectedTick e;
        e.t_now = in.get_f64();
        const std::uint64_t n = in.get_u64();
        for (std::uint64_t i = 0; i < n && in.ok(); ++i) {
          e.rec_ids.push_back(in.get_u64());
          vihot::core::TrackResult r;
          if (!vr::decode_track_result(in, &r)) return bad("tick-end");
          e.bytes.push_back(checks::encode(r));
        }
        if (!in.ok()) return bad("tick-end");
        events.push_back({Kind::kTickEnd, expected.size()});
        expected.push_back(std::move(e));
        break;
      }
    }
  }
  return true;
}

/// The daemon's registry as a snapshot (plus "daemon/sessions", the live
/// session count of the health header).
Snapshot health(vd::Client& control, Report& report) {
  const std::optional<std::string> json = control.health(kTimeoutMs);
  Snapshot s = json ? parse_registry_json(*json) : Snapshot{};
  if (s.empty()) report.fail_run("no health report: " + control.error());
  return s;
}

}  // namespace

Report run_daemon_churn(const Options& opts) {
  Report report;
  Trace trace(opts.trace);
  const auto abort_run = [&](const std::string& why) {
    report.fail_run(why);
    report.attempted = std::max<std::uint64_t>(report.attempted, 1);
    return report;
  };

  // --- Set-up: record the fleet in process ---------------------------------
  const auto t_profile = Clock::now();
  const vihot::scenario::ScenarioSpec* pack =
      vihot::scenario::find_pack("rideshare_churn");
  if (pack == nullptr) return abort_run("rideshare_churn pack missing");
  vihot::scenario::ScenarioSpec spec = *pack;
  spec.cabins = kCabins;
  const std::string log_path =
      opts.out_dir + "/daemon_churn-" + std::to_string(opts.seed) + ".vrlog";
  vihot::scenario::ScenarioOutcome outcome;
  {
    // Staging large enough that the writer never falls behind: a dropped
    // frame would truncate the log (run_pack feeds far faster than real
    // time).
    vr::Recorder recorder({log_path, std::size_t{64} << 20});
    vihot::scenario::RunOptions ro;
    ro.shards = 1;  // flight recording requires the single-engine fleet
    ro.tap = &recorder;
    outcome = vihot::scenario::run_pack(spec, ro);
    if (!recorder.close() || recorder.totals().truncated) {
      return abort_run("recording failed: " + recorder.error());
    }
  }
  // The pack's envelope is calibrated on its own single cabin. run_pack
  // seeds cabin c from the pack seed and c alone and shares the profiles
  // across cabins, so cabin 0 of the scaled fleet is exactly that cabin:
  // its tracked occupants are judged against the envelope (errors from
  // the simulator's ground truth, not the pack's own verdict). The other
  // cabins are drives the envelope was not fitted to; their breaches are
  // printed, not judged (README, "Checks").
  const vihot::scenario::AccuracyEnvelope& env = pack->envelope;
  std::size_t judged = 0;
  std::size_t others = 0;
  std::size_t others_breached = 0;
  for (const vihot::scenario::OccupantOutcome& oo : outcome.occupants) {
    if (!oo.tracked) continue;
    std::string why =
        checks::envelope(oo.errors.samples(), env.max_median_deg,
                         env.max_p90_deg, env.min_evaluated);
    if (why.empty() && env.max_relock_s > 0.0 && oo.enter_s > 0.0) {
      why = checks::relock(oo.relock_s, env.max_relock_s);
    }
    if (oo.cabin == 0) {
      judged += 1;
      if (!why.empty()) {
        report.fail_run("rideshare_churn cabin 0, " + oo.name + ": " + why);
      }
    } else {
      others += 1;
      others_breached += why.empty() ? 0 : 1;
    }
  }
  if (judged == 0) report.fail_run("rideshare_churn: no tracked occupant");
  std::fprintf(stderr,
               "servebench: rideshare_churn envelope: cabin 0 judged (%zu "
               "tracked occupants); other cabins: %zu of %zu tracked "
               "occupants outside it (not judged)\n",
               judged, others_breached, others);
  const auto t_inputs = Clock::now();
  Recording rec;
  std::string error;
  if (!rec.load(log_path, &error)) return abort_run("recording: " + error);
  rec.interleave(mix_seed(opts.seed, 3));
  ::unlink(log_path.c_str());

  // --- Set-up: daemon and connections ------------------------------------
  const auto t_sessions = Clock::now();
  const std::string socket = opts.out_dir + "/vihotd-" +
                             std::to_string(::getpid()) + ".sock";
  DaemonProcess daemon;
  if (!daemon.start(opts.vihotd, socket, {"--shards", "1"})) {
    return abort_run(daemon.error());
  }
  vd::Client control = vd::Client::connect(socket, vd::Role::kControl);
  vd::Client subs[2] = {vd::Client::connect(socket, vd::Role::kSubscriber),
                        vd::Client::connect(socket, vd::Role::kSubscriber)};
  vd::SubscribeRequest req;
  req.capacity = 4096;  // a policy drop would break the byte comparison
  for (vd::Client& sub : subs) {
    if (!sub.ok() || !sub.subscribe(req)) {
      return abort_run("subscriber: " + sub.error());
    }
  }
  vd::Client feeder = vd::Client::connect(socket, vd::Role::kFeeder);
  if (!control.ok() || !feeder.ok()) {
    return abort_run("connect: " + control.error() + feeder.error());
  }
  const auto t_serve = Clock::now();
  const double setup_s = s_between(opts.process_start, t_serve);

  // --- Serve loop: whole passes over the recording -------------------------
  ServeLog log;
  TracedCounters counters;
  std::uint64_t opened = 0;
  std::uint64_t closed = 0;
  double feed_send_ms = 0.0;
  std::uint64_t feeds_traced = 0;
  std::uint64_t tick = 0;
  bool broken = false;
  const Snapshot start = health(control, report);
  const double cpu_start = daemon.cpu_s();

  while (!broken && s_between(t_serve, Clock::now()) < opts.seconds) {
    std::unordered_map<std::uint64_t, std::uint64_t> rec2gid;
    bool in_tick = false;
    bool traced = opts.trace && traced_tick(tick);
    Snapshot before = traced ? health(control, report) : Snapshot{};
    Clock::time_point t0{};
    int tick_span = -1;
    int feeds_span = -1;
    const auto begin_tick = [&]() {
      if (in_tick) return;
      in_tick = true;
      trace.set_enabled(traced);
      t0 = Clock::now();
      tick_span = trace.begin("tick", tick);
      feeds_span = trace.begin("send_feeds", tick, tick_span);
    };
    const auto sent = [&](bool ok, Clock::time_point s0) {
      if (!ok) {
        report.fail_run("feeder: " + feeder.error());
        broken = true;
      }
      if (traced) {
        feed_send_ms += ms_between(s0, Clock::now());
        feeds_traced += 1;
      }
    };

    for (const Recording::Event& ev : rec.events) {
      if (broken) break;
      switch (ev.kind) {
        case Recording::Kind::kOpen: {
          const Recording::Open& o = rec.opens[ev.index];
          trace.set_enabled(opts.trace);
          Span span(trace, "open_session", tick);
          std::uint64_t gid = 0;
          if (!feeder.open_session(o.rec_id, rec.profiles[o.profile],
                                   o.config, &gid, kTimeoutMs)) {
            report.fail_run("open_session: " + feeder.error());
            broken = true;
            break;
          }
          rec2gid[o.rec_id] = gid;
          opened += 1;
          break;
        }
        case Recording::Kind::kClose: {
          trace.set_enabled(opts.trace);
          Span span(trace, "close_session", tick);
          const std::uint64_t id = rec.closes[ev.index];
          if (!feeder.close_session(id, kTimeoutMs)) {
            report.fail_run("close_session: " + feeder.error());
            broken = true;
            break;
          }
          rec2gid.erase(id);
          closed += 1;
          break;
        }
        case Recording::Kind::kCsi: {
          begin_tick();
          const auto& f = rec.csi[ev.index];
          const auto s0 = Clock::now();
          sent(feeder.send_csi(f.rec_id, f.sample), s0);
          break;
        }
        case Recording::Kind::kImu: {
          begin_tick();
          const auto& f = rec.imu[ev.index];
          const auto s0 = Clock::now();
          sent(feeder.send_imu(f.rec_id, f.sample), s0);
          break;
        }
        case Recording::Kind::kCamera: {
          begin_tick();
          const auto& f = rec.camera[ev.index];
          const auto s0 = Clock::now();
          sent(feeder.send_camera(f.rec_id, f.sample), s0);
          break;
        }
        case Recording::Kind::kTick: {
          begin_tick();
          trace.end(feeds_span);
          Span span(trace, "send_tick", tick, tick_span);
          if (!feeder.send_tick(rec.ticks[ev.index])) {
            report.fail_run("send_tick: " + feeder.error());
            broken = true;
          }
          break;
        }
        case Recording::Kind::kTickEnd: {
          begin_tick();
          std::optional<vd::ResultsFrame> frames[2];
          {
            Span span(trace, "await_results", tick, tick_span);
            for (int i = 0; i < 2; ++i) frames[i] = subs[i].next_results(kTimeoutMs);
          }
          const auto t1 = Clock::now();
          trace.end(tick_span);
          log.add_tick(ms_between(t0, t1), traced);
          report.attempted += 1;

          std::string why;
          for (int i = 0; i < 2 && why.empty(); ++i) {
            if (!frames[i]) {
              why = "subscriber " + std::to_string(i) + " got no results";
            } else {
              why = checks::streamed_tick(*frames[i], rec.expected[ev.index],
                                          rec2gid);
            }
          }
          if (why.empty()) {
            log.estimates += frames[0]->results.size();
          } else {
            report.fail_op("tick " + std::to_string(tick) + ": " + why);
          }
          if (traced) {
            const Snapshot after = health(control, report);
            trace_deltas(trace, tick, before, after);
            counters.add(before, after);
          }
          tick += 1;
          in_tick = false;
          traced = opts.trace && traced_tick(tick);
          if (traced) before = health(control, report);
          break;
        }
      }
    }
    // A recording ends with its drivers' sessions still open: close them,
    // which empties the fleet and resets the daemon's serving clock.
    trace.set_enabled(opts.trace);
    for (const auto& [rec_id, gid] : rec2gid) {
      Span span(trace, "close_session", tick);
      if (!feeder.close_session(rec_id, kTimeoutMs)) {
        report.fail_run("close_session: " + feeder.error());
        broken = true;
        break;
      }
      closed += 1;
    }
  }

  // --- Accounting, resources, shutdown -----------------------------------
  log.cpu_s = daemon.cpu_s() - cpu_start;
  const Snapshot end = health(control, report);
  const double peak_rss = daemon.peak_rss_mb();
  const std::string why = checks::session_accounting(
      static_cast<std::uint64_t>(at(end, "daemon.sessions_opened")),
      static_cast<std::uint64_t>(at(end, "daemon.sessions_closed")),
      static_cast<std::uint64_t>(at(end, "daemon/sessions")));
  if (!why.empty()) report.fail_run("daemon sessions: " + why);
  if (at(end, "daemon.sessions_opened") - at(start, "daemon.sessions_opened") !=
          static_cast<double>(opened) ||
      at(end, "daemon.sessions_closed") - at(start, "daemon.sessions_closed") !=
          static_cast<double>(closed)) {
    report.fail_run("daemon counted other session churn than was sent");
  }
  if (!daemon.stop()) report.fail_run(daemon.error());

  std::vector<double> errors = outcome.merged_errors().samples();
  add_end_to_end(report, log, setup_s, errors, peak_rss);
  if (opts.trace) {
    add_counter_layers(report, counters);
    report.layer("daemon.open_ack_ms",
                 mean(trace.durations_ms("open_session")), "ms");
    report.layer("daemon.close_ack_ms",
                 mean(trace.durations_ms("close_session")), "ms");
    report.layer("daemon.feed_send_us",
                 feeds_traced > 0 ? 1000.0 * feed_send_ms /
                                        static_cast<double>(feeds_traced)
                                  : 0.0,
                 "us");
    report.layer("setup.profile_s", s_between(t_profile, t_inputs), "s");
    report.layer("setup.inputs_s", s_between(t_inputs, t_sessions), "s");
    report.layer("setup.sessions_s", s_between(t_sessions, t_serve), "s");
    add_trace_overhead(report, log);
    const std::string path = opts.out_dir + "/daemon_churn-" +
                             std::to_string(opts.seed) + ".trace.json";
    if (!trace.write(path, to_string(host_fingerprint()))) {
      report.fail_run("cannot write " + path);
    }
  }
  return report;
}

}  // namespace servebench
