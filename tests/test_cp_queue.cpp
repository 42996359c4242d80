#include <gtest/gtest.h>

#include "cp/cp_queue.h"
#include "test_util.h"

namespace ndpsim {
namespace {

using testing::make_data;
using testing::recording_sink;

TEST(cp_queue, trims_arriving_packet_when_full) {
  sim_env env;
  recording_sink sink(env);
  cp_queue q(env, gbps(10), 2 * 9000);
  const auto tp = testing::arm(q);
  q.set_paused(true);
  owned_route r;
  r.push_back(&q);
  r.push_back(&sink);
  for (std::uint64_t i = 1; i <= 4; ++i) send_to_next_hop(*make_data(env, &r, 9000, i));
  q.set_paused(false);
  env.events.run_all();
  ASSERT_EQ(sink.count(), 4u);
  EXPECT_EQ(q.telemetry().trim_pkts, 2u);
  // FIFO: headers arrive *after* the queued data — no priority treatment
  // (this is exactly what NDP's priority queue fixes).
  EXPECT_EQ(sink.arrivals()[0].flags & pkt_flag::trimmed, 0);
  EXPECT_EQ(sink.arrivals()[1].flags & pkt_flag::trimmed, 0);
  EXPECT_NE(sink.arrivals()[2].flags & pkt_flag::trimmed, 0);
  EXPECT_NE(sink.arrivals()[3].flags & pkt_flag::trimmed, 0);
  // Deterministic victim: always the arriving packet (phase effects).
  EXPECT_EQ(sink.arrivals()[2].seqno, 3u);
  EXPECT_EQ(sink.arrivals()[3].seqno, 4u);
}

TEST(cp_queue, headers_always_admitted) {
  sim_env env;
  recording_sink sink(env);
  cp_queue q(env, gbps(10), 9000);  // one data packet of buffer
  q.set_paused(true);
  const auto tp = testing::arm(q);
  owned_route r;
  r.push_back(&q);
  r.push_back(&sink);
  // One data packet fills the data budget; every further arrival trims to a
  // header, and CP stores headers unconditionally (metadata is "free") —
  // the very property that lets headers crowd the link under overload.
  for (std::uint64_t i = 1; i <= 5; ++i) send_to_next_hop(*make_data(env, &r, 9000, i));
  EXPECT_EQ(q.buffered_data_bytes(), 9000u);
  EXPECT_EQ(q.buffered_header_bytes(), 4u * kHeaderBytes);
  q.set_paused(false);
  env.events.run_all();
  EXPECT_EQ(sink.count(), 5u);
  EXPECT_EQ(q.telemetry().drop_pkts, 0u);
  EXPECT_EQ(env.pool.outstanding(), 0u);
}

TEST(cp_queue, under_overload_headers_eat_goodput) {
  // Sustained 3x overload: the share of link bytes spent on headers grows,
  // data goodput falls — the beginning of CP's congestion collapse curve.
  sim_env env;
  recording_sink sink(env);
  cp_queue q(env, gbps(10), 8 * 9000);
  const auto tp = testing::arm(q);
  owned_route r;
  r.push_back(&q);
  r.push_back(&sink);
  // Offer 3 packets per 7.2us slot for 2000 slots.
  for (int slot = 0; slot < 2000; ++slot) {
    env.events.run_until(static_cast<simtime_t>(slot) * from_us(7.2));
    for (int j = 0; j < 3; ++j) {
      send_to_next_hop(*make_data(env, &r, 9000,
                                  static_cast<std::uint64_t>(slot * 3 + j)));
    }
  }
  env.events.run_all();
  EXPECT_GT(q.telemetry().trim_pkts, 1000u);
  std::uint64_t data = 0, hdrs = 0;
  for (const auto& a : sink.arrivals()) {
    if ((a.flags & pkt_flag::trimmed) != 0) {
      ++hdrs;
    } else {
      ++data;
    }
  }
  EXPECT_GT(hdrs, data);  // majority of forwarded *packets* are headers
}

}  // namespace
}  // namespace ndpsim
