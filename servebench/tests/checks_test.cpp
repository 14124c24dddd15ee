// Self-tests of the serving benchmark: every correctness check accepts a
// faithful result and rejects a perturbed one, and the metric plumbing
// reads the registry format the library writes.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "checks.h"
#include "common.h"
#include "obs/metrics.h"
#include "obs/sink.h"

namespace servebench {
namespace {

using vihot::core::TrackResult;

TrackResult result(double theta, double t = 1.0) {
  TrackResult r;
  r.valid = true;
  r.t = t;
  r.theta_rad = theta;
  r.raw.valid = true;
  r.raw.t = t;
  r.raw.theta_rad = theta;
  return r;
}

double deg(double d) { return d * M_PI / 180.0; }

TEST(AnalyticTick, AcceptsEstimatesOnTheTrajectory) {
  const std::vector<double> truth = {0.1, -0.2, 0.3};
  const std::vector<TrackResult> rs = {result(0.1 + deg(0.5)),
                                       result(-0.2 - deg(1.0)), result(0.3)};
  std::vector<double> errors;
  EXPECT_EQ(checks::analytic_tick(rs, truth, 3.0, &errors), "");
  ASSERT_EQ(errors.size(), 3u);
  EXPECT_NEAR(errors[1], 1.0, 1e-9);
}

TEST(AnalyticTick, RejectsAnEstimateOffTheTrajectory) {
  const std::vector<double> truth = {0.1, -0.2};
  const std::vector<TrackResult> rs = {result(0.1), result(-0.2 + deg(5.0))};
  EXPECT_NE(checks::analytic_tick(rs, truth, 3.0, nullptr), "");
}

TEST(AnalyticTick, RejectsAnInvalidEstimateAndAMissingSession) {
  const std::vector<double> truth = {0.1, -0.2};
  std::vector<TrackResult> rs = {result(0.1), result(-0.2)};
  rs[1].valid = false;
  EXPECT_NE(checks::analytic_tick(rs, truth, 3.0, nullptr), "");
  rs.pop_back();
  EXPECT_NE(checks::analytic_tick(rs, truth, 3.0, nullptr), "");
}

TEST(BitIdentical, RejectsALastBitDifference) {
  const TrackResult a = result(0.25);
  TrackResult b = a;
  EXPECT_EQ(checks::bit_identical(a, b), "");
  b.theta_rad = std::nextafter(b.theta_rad, 1.0);
  EXPECT_NE(checks::bit_identical(a, b), "");
  b = a;
  b.raw.match_distance = 1e-300;
  EXPECT_NE(checks::bit_identical(a, b), "");
}

TEST(Envelope, AcceptsErrorsInsideAndRejectsEachBreach) {
  std::vector<double> errors(100, 1.0);
  for (int i = 0; i < 5; ++i) errors[static_cast<std::size_t>(i)] = 40.0;
  EXPECT_EQ(checks::envelope(errors, 8.0, 25.0, 50), "");
  // Median breach.
  EXPECT_NE(checks::envelope(std::vector<double>(100, 9.0), 8.0, 25.0, 50),
            "");
  // Tail breach: 20 % of estimates far off.
  for (int i = 0; i < 20; ++i) errors[static_cast<std::size_t>(i)] = 40.0;
  EXPECT_NE(checks::envelope(errors, 8.0, 25.0, 50), "");
  // Too few evaluated estimates.
  EXPECT_NE(checks::envelope(std::vector<double>(10, 1.0), 8.0, 25.0, 50),
            "");
}

TEST(Relock, RejectsALateOrMissingLock) {
  EXPECT_EQ(checks::relock(1.2, 3.0), "");
  EXPECT_NE(checks::relock(3.05, 3.0), "");
  EXPECT_NE(checks::relock(-1.0, 3.0), "");
}

struct StreamedFixture : ::testing::Test {
  void SetUp() override {
    expected.t_now = 2.5;
    expected.rec_ids = {7, 9};
    expected.bytes = {checks::encode(result(0.1, 2.5)),
                      checks::encode(result(-0.4, 2.5))};
    rec2gid = {{7, 101}, {9, 102}};
    frame.t_now = 2.5;
    frame.ids = {101, 102};
    frame.results = {result(0.1, 2.5), result(-0.4, 2.5)};
  }
  checks::ExpectedTick expected;
  std::unordered_map<std::uint64_t, std::uint64_t> rec2gid;
  vihot::daemon::ResultsFrame frame;
};

TEST_F(StreamedFixture, AcceptsTheRecordedTick) {
  EXPECT_EQ(checks::streamed_tick(frame, expected, rec2gid), "");
}

TEST_F(StreamedFixture, RejectsPerturbedBytes) {
  frame.results[1].theta_rad = std::nextafter(-0.4, 0.0);
  EXPECT_NE(checks::streamed_tick(frame, expected, rec2gid), "");
}

TEST_F(StreamedFixture, RejectsAnotherTickTime) {
  frame.t_now = std::nextafter(2.5, 3.0);
  EXPECT_NE(checks::streamed_tick(frame, expected, rec2gid), "");
}

TEST_F(StreamedFixture, RejectsAMissingOrReorderedSession) {
  std::swap(frame.ids[0], frame.ids[1]);
  std::swap(frame.results[0], frame.results[1]);
  EXPECT_NE(checks::streamed_tick(frame, expected, rec2gid), "");
  frame.ids.pop_back();
  frame.results.pop_back();
  EXPECT_NE(checks::streamed_tick(frame, expected, rec2gid), "");
}

TEST(SessionAccounting, RejectsALeakOrAnOverClose) {
  EXPECT_EQ(checks::session_accounting(10, 4, 6), "");
  EXPECT_NE(checks::session_accounting(10, 4, 5), "");
  EXPECT_NE(checks::session_accounting(10, 4, 7), "");
  EXPECT_NE(checks::session_accounting(3, 4, 0), "");
}

TEST(Registry, SnapshotReadsCountersAndHistograms) {
  vihot::obs::Sink sink;
  vihot::obs::Registry registry;
  sink.attach_to(registry);
  sink.tracker.estimates.inc(5);
  sink.daemon.bytes_rx.inc(1234);
  sink.engine.batch_latency_us.observe(100.0);
  sink.engine.batch_latency_us.observe(300.0);
  const Snapshot s = snapshot_of(registry);
  EXPECT_EQ(at(s, "tracker.estimates"), 5.0);
  EXPECT_EQ(at(s, "daemon.bytes_rx"), 1234.0);
  EXPECT_EQ(at(s, "engine.batch_latency_us.count"), 2.0);
  EXPECT_EQ(at(s, "engine.batch_latency_us.sum"), 400.0);
  EXPECT_EQ(at(s, "engine.batch_latency_us.max"), 300.0);
}

TEST(Registry, HealthReportNestsTheRegistry) {
  const Snapshot s = parse_registry_json(
      "{\n  \"daemon\": {\"sessions\": 3, \"stopping\": false},\n"
      "  \"metrics\": {\"counters\": {\"daemon.ticks\": 42}, "
      "\"histograms\": {\"daemon.sub_queue_depth\": {\"count\": 2, "
      "\"sum\": 3, \"min\": 1, \"max\": 2, \"buckets\": [{\"le\": 0, "
      "\"count\": 0}, {\"le\": \"+inf\", \"count\": 2}]}}}\n}\n");
  EXPECT_EQ(at(s, "daemon/sessions"), 3.0);
  EXPECT_EQ(at(s, "daemon.ticks"), 42.0);
  EXPECT_EQ(at(s, "daemon.sub_queue_depth.max"), 2.0);
  EXPECT_TRUE(parse_registry_json("{\"counters\": {\"x\": }").empty());
}

TEST(Quantile, InterpolatesLikeNumpyLinear) {
  EXPECT_EQ(quantile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(quantile({4.0, 1.0, 3.0, 2.0}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(quantile({1.0, 2.0, 3.0, 4.0, 5.0}, 0.9), 4.6);
}

}  // namespace
}  // namespace servebench
