#include <gtest/gtest.h>

#include "ndp/ndp_queue.h"
#include "ndp/p4_pipeline.h"
#include "test_util.h"

namespace ndpsim {
namespace {

using testing::make_data;
using testing::recording_sink;

TEST(p4_pipeline, directprio_matches_control_packets) {
  sim_env env;
  recording_sink sink(env);
  p4_ndp_pipeline q(env, gbps(10), {});
  owned_route r;
  r.push_back(&q);
  r.push_back(&sink);
  packet* c = env.pool.alloc();
  c->type = packet_type::ndp_ack;
  c->size_bytes = kHeaderBytes;
  c->rt = &r;
  c->next_hop = 0;
  send_to_next_hop(*c);
  env.events.run_all();
  EXPECT_EQ(q.hits().directprio, 1u);
  EXPECT_EQ(q.hits().readregister, 0u);
  EXPECT_EQ(sink.count(), 1u);
}

TEST(p4_pipeline, setprio_below_threshold_increments_register) {
  sim_env env;
  recording_sink sink(env);
  p4_pipeline_config cfg;
  cfg.data_threshold_bytes = 12 * 1024;
  p4_ndp_pipeline q(env, gbps(10), cfg);
  q.set_paused(true);
  owned_route r;
  r.push_back(&q);
  r.push_back(&sink);
  send_to_next_hop(*make_data(env, &r, 9000, 1));
  EXPECT_EQ(q.qs_register(), 9000u);
  EXPECT_EQ(q.hits().setprio_normal, 1u);
  q.set_paused(false);
  env.events.run_all();
  EXPECT_EQ(q.qs_register(), 0u);  // egress Decrement table fired
  EXPECT_EQ(q.hits().decrement, 1u);
}

TEST(p4_pipeline, setprio_above_threshold_truncates) {
  sim_env env;
  recording_sink sink(env);
  p4_pipeline_config cfg;
  cfg.data_threshold_bytes = 12 * 1024;
  p4_ndp_pipeline q(env, gbps(10), cfg);
  const auto tp = testing::arm(q);
  q.set_paused(true);
  owned_route r;
  r.push_back(&q);
  r.push_back(&sink);
  // qs reads 0, then 9000, then 18000: the threshold check is made *before*
  // adding the packet, so packets 1 and 2 are admitted and packet 3 (qs
  // already 18000 > 12KB) is truncated.
  send_to_next_hop(*make_data(env, &r, 9000, 1));
  send_to_next_hop(*make_data(env, &r, 9000, 2));
  send_to_next_hop(*make_data(env, &r, 9000, 3));
  EXPECT_EQ(q.hits().setprio_truncate, 1u);
  EXPECT_EQ(q.telemetry().trim_pkts, 1u);
  q.set_paused(false);
  env.events.run_all();
  ASSERT_EQ(sink.count(), 3u);
  // Priority queue serves the truncated header first (strict priority).
  EXPECT_NE(sink.arrivals()[0].flags & pkt_flag::trimmed, 0);
  EXPECT_EQ(sink.arrivals()[0].seqno, 3u);
  EXPECT_EQ(sink.arrivals()[1].flags & pkt_flag::trimmed, 0);
  EXPECT_EQ(sink.arrivals()[2].flags & pkt_flag::trimmed, 0);
}

TEST(p4_pipeline, equivalent_trim_decisions_to_ndp_queue) {
  // The P4 program trims exactly when qs > threshold; an ndp_queue with the
  // same data capacity, arriving-packet trimming and no WRR must trim the
  // same packets of a deterministic arrival pattern.
  sim_env env1, env2;
  recording_sink s1(env1), s2(env2);

  p4_pipeline_config pc;
  pc.data_threshold_bytes = 3 * 1500;
  pc.header_capacity_bytes = 100 * kHeaderBytes;
  p4_ndp_pipeline p4q(env1, gbps(10), pc);
  const auto tp_p4q = testing::arm(p4q);

  ndp_queue_config nc;
  // ndp_queue admits while bytes <= capacity; P4 admits while qs <= threshold
  // before adding the packet — align capacities accordingly.
  nc.data_capacity_bytes = 3 * 1500 + 1500;
  nc.header_capacity_bytes = 100 * kHeaderBytes;
  nc.random_trim_position = false;  // always trim the arriving packet
  nc.wrr_headers_per_data = 1000000;  // effectively strict priority
  ndp_queue ndpq(env2, gbps(10), nc);
  const auto tp_ndpq = testing::arm(ndpq);

  owned_route r1, r2;
  r1.push_back(&p4q);
  r1.push_back(&s1);
  r2.push_back(&ndpq);
  r2.push_back(&s2);

  p4q.set_paused(true);
  ndpq.set_paused(true);
  for (std::uint64_t i = 1; i <= 10; ++i) {
    send_to_next_hop(*make_data(env1, &r1, 1500, i));
    send_to_next_hop(*make_data(env2, &r2, 1500, i));
  }
  p4q.set_paused(false);
  ndpq.set_paused(false);
  env1.events.run_all();
  env2.events.run_all();

  EXPECT_EQ(p4q.telemetry().trim_pkts, ndpq.telemetry().trim_pkts);
  ASSERT_EQ(s1.count(), s2.count());
  // Same per-sequence trim verdicts.
  std::map<std::uint64_t, bool> v1, v2;
  for (const auto& a : s1.arrivals()) v1[a.seqno] = (a.flags & pkt_flag::trimmed) != 0;
  for (const auto& a : s2.arrivals()) v2[a.seqno] = (a.flags & pkt_flag::trimmed) != 0;
  EXPECT_EQ(v1, v2);
}

TEST(p4_pipeline, header_overflow_drops) {
  sim_env env;
  recording_sink sink(env);
  p4_pipeline_config cfg;
  cfg.data_threshold_bytes = 0;  // everything truncates
  cfg.header_capacity_bytes = 2 * kHeaderBytes;
  p4_ndp_pipeline q(env, gbps(10), cfg);
  const auto tp = testing::arm(q);
  q.set_paused(true);
  owned_route r;
  r.push_back(&q);
  r.push_back(&sink);
  for (std::uint64_t i = 1; i <= 5; ++i) send_to_next_hop(*make_data(env, &r, 1500, i));
  q.set_paused(false);
  env.events.run_all();
  EXPECT_EQ(sink.count(), 3u);  // 1 normal (qs==0 admits) + 2 headers
  EXPECT_EQ(q.telemetry().drop_pkts, 2u);
}

}  // namespace
}  // namespace ndpsim
