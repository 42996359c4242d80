// Direct unit tests of the per-host pull pacer: pacing rate, DRR fairness,
// strict priority classes, purge, and rate conservation under jitter.
#include <gtest/gtest.h>

#include "host/artifacts.h"
#include "ndp/ndp_sink.h"
#include "ndp/ndp_source.h"
#include "ndp/pull_pacer.h"
#include "net/fifo_queues.h"
#include "topo/micro_topo.h"
#include "test_util.h"

namespace ndpsim {
namespace {

// Harness: a sink bound to a recording control route, so issued pulls can be
// observed directly without a full connection (the collector swallows the
// pulls before they would reach the demux terminal).
struct sink_rig {
  sink_rig(sim_env& env, pull_pacer& pacer, std::uint32_t fid,
           std::uint8_t cls = 0)
      : collector(env), sink(env, pacer, {9000, cls}, fid) {
    mp.add({}, {&collector});
    sink.bind(mp.set(), 1, 0);
  }
  testing::recording_sink collector;
  manual_paths mp;
  ndp_sink sink;
};

TEST(pull_pacer, paces_at_mss_serialization_interval) {
  sim_env env;
  pull_pacer pacer(env, gbps(10));
  sink_rig rig(env, pacer, 1);
  for (int i = 0; i < 5; ++i) pacer.enqueue(rig.sink);
  env.events.run_all();
  ASSERT_EQ(rig.collector.count(), 5u);
  // First pull immediate; the rest spaced by 7.2us (9000B at 10G).
  EXPECT_EQ(rig.collector.arrivals()[0].at, 0);
  for (int i = 1; i < 5; ++i) {
    EXPECT_EQ(rig.collector.arrivals()[i].at -
                  rig.collector.arrivals()[i - 1].at,
              from_us(7.2));
  }
}

TEST(pull_pacer, pull_numbers_increment_per_connection) {
  sim_env env;
  pull_pacer pacer(env, gbps(10));
  sink_rig a(env, pacer, 1), b(env, pacer, 2);
  pacer.enqueue(a.sink);
  pacer.enqueue(b.sink);
  pacer.enqueue(a.sink);
  env.events.run_all();
  // a got pull numbers 1,2; b got 1.
  std::vector<std::uint64_t> a_pulls, b_pulls;
  for (const auto& x : a.collector.arrivals()) a_pulls.push_back(x.seqno);
  ASSERT_EQ(a.collector.count(), 2u);
  ASSERT_EQ(b.collector.count(), 1u);
}

TEST(pull_pacer, drr_alternates_between_backlogged_connections) {
  sim_env env;
  pull_pacer pacer(env, gbps(10));
  sink_rig a(env, pacer, 1), b(env, pacer, 2);
  for (int i = 0; i < 6; ++i) pacer.enqueue(a.sink);
  for (int i = 0; i < 6; ++i) pacer.enqueue(b.sink);
  env.events.run_all();
  EXPECT_EQ(a.collector.count(), 6u);
  EXPECT_EQ(b.collector.count(), 6u);
  // Fair round robin: after any prefix the counts differ by at most 1...
  // verify by merging timestamps.
  std::vector<std::pair<simtime_t, int>> merged;
  for (const auto& x : a.collector.arrivals()) merged.emplace_back(x.at, 0);
  for (const auto& x : b.collector.arrivals()) merged.emplace_back(x.at, 1);
  std::sort(merged.begin(), merged.end());
  int ca = 0, cb = 0;
  for (const auto& [t, who] : merged) {
    (who == 0 ? ca : cb)++;
    EXPECT_LE(std::abs(ca - cb), 1);
  }
}

TEST(pull_pacer, strict_priority_across_classes) {
  sim_env env;
  pull_pacer pacer(env, gbps(10));
  sink_rig low(env, pacer, 1, 0), high(env, pacer, 2, 2);
  for (int i = 0; i < 4; ++i) pacer.enqueue(low.sink);
  for (int i = 0; i < 4; ++i) pacer.enqueue(high.sink);
  env.events.run_all();
  // All high-class pulls go out before any remaining low-class pull that was
  // queued at the same time (except the first low pull, which may already
  // have been released before the high pulls arrived — here everything is
  // enqueued at t=0, so high strictly precedes low).
  ASSERT_EQ(low.collector.count(), 4u);
  ASSERT_EQ(high.collector.count(), 4u);
  const simtime_t last_high = high.collector.arrivals().back().at;
  int low_before_last_high = 0;
  for (const auto& x : low.collector.arrivals()) {
    if (x.at < last_high) ++low_before_last_high;
  }
  EXPECT_LE(low_before_last_high, 1);
}

TEST(pull_pacer, purge_discards_pending_pulls) {
  sim_env env;
  pull_pacer pacer(env, gbps(10));
  sink_rig a(env, pacer, 1), b(env, pacer, 2);
  for (int i = 0; i < 5; ++i) pacer.enqueue(a.sink);
  for (int i = 0; i < 5; ++i) pacer.enqueue(b.sink);
  pacer.purge(a.sink);
  env.events.run_all();
  // At most one of a's pulls may already have been released at t=0.
  EXPECT_LE(a.collector.count(), 1u);
  EXPECT_EQ(b.collector.count(), 5u);
  EXPECT_EQ(pacer.backlog(), 0u);
}

TEST(pull_pacer, jitter_conserves_long_run_rate) {
  sim_env env(9);
  pull_pacer pacer(env, gbps(10));
  pacer.set_interval_jitter(make_pull_jitter(env, 1500));
  sink_rig rig(env, pacer, 1);
  const int n = 5000;
  for (int i = 0; i < n; ++i) pacer.enqueue(rig.sink);
  env.events.run_all();
  ASSERT_EQ(rig.collector.count(), static_cast<std::size_t>(n));
  const simtime_t span = rig.collector.arrivals().back().at;
  const double mean_gap_us = to_us(span) / (n - 1);
  // Catch-up keeps the mean release interval on the nominal 7.2us despite
  // per-pull jitter (this is what makes Fig 13 come out flat).
  EXPECT_NEAR(mean_gap_us, 7.2, 0.15);
}

TEST(pull_pacer, idle_then_enqueue_releases_immediately) {
  sim_env env;
  pull_pacer pacer(env, gbps(10));
  sink_rig rig(env, pacer, 1);
  env.events.run_until(from_ms(1));
  pacer.enqueue(rig.sink);
  env.events.run_all();
  ASSERT_EQ(rig.collector.count(), 1u);
  EXPECT_EQ(rig.collector.arrivals()[0].at, from_ms(1));
}

}  // namespace
}  // namespace ndpsim
