#include <gtest/gtest.h>

#include "ndp/ndp_queue.h"
#include "net/pipe.h"
#include "test_util.h"

namespace ndpsim {
namespace {

using testing::make_data;
using testing::recording_sink;

ndp_queue_config small_q(std::uint32_t data_pkts = 2,
                         std::uint32_t mtu = 9000) {
  ndp_queue_config c;
  c.data_capacity_bytes = data_pkts * mtu;
  c.header_capacity_bytes = data_pkts * mtu;
  return c;
}

TEST(ndp_queue, forwards_when_not_full) {
  sim_env env;
  recording_sink sink(env);
  ndp_queue q(env, gbps(10), small_q(8));
  const auto tp = testing::arm(q);
  owned_route r;
  r.push_back(&q);
  r.push_back(&sink);
  for (std::uint64_t i = 1; i <= 4; ++i) send_to_next_hop(*make_data(env, &r, 9000, i));
  env.events.run_all();
  EXPECT_EQ(sink.count(), 4u);
  EXPECT_EQ(q.telemetry().trim_pkts, 0u);
}

TEST(ndp_queue, trims_on_data_overflow_instead_of_dropping) {
  sim_env env;
  recording_sink sink(env);
  ndp_queue q(env, gbps(10), small_q(2));
  const auto tp = testing::arm(q);
  owned_route r;
  r.push_back(&q);
  r.push_back(&sink);
  // 1 in service + 2 buffered; the 4th and 5th overflow -> trimmed.
  for (std::uint64_t i = 1; i <= 5; ++i) send_to_next_hop(*make_data(env, &r, 9000, i));
  env.events.run_all();
  ASSERT_EQ(sink.count(), 5u);  // nothing lost: 3 data + 2 headers
  EXPECT_EQ(q.telemetry().trim_pkts, 2u);
  EXPECT_EQ(q.telemetry().drop_pkts, 0u);
  int headers = 0;
  for (const auto& a : sink.arrivals()) {
    if ((a.flags & pkt_flag::trimmed) != 0) {
      ++headers;
      EXPECT_EQ(a.size_bytes, kHeaderBytes);
    }
  }
  EXPECT_EQ(headers, 2);
}

TEST(ndp_queue, trimmed_headers_overtake_queued_data) {
  sim_env env;
  recording_sink sink(env);
  ndp_queue q(env, gbps(10), small_q(2));
  q.set_paused(true);  // hold service so we control the order
  owned_route r;
  r.push_back(&q);
  r.push_back(&sink);
  for (std::uint64_t i = 1; i <= 4; ++i) send_to_next_hop(*make_data(env, &r, 9000, i));
  q.set_paused(false);
  env.events.run_all();
  ASSERT_EQ(sink.count(), 4u);
  // The trimmed header (seq 4 or a tail victim) must arrive before the later
  // data packets: first arrival is a header.
  EXPECT_NE(sink.arrivals()[0].flags & pkt_flag::trimmed, 0);
}

TEST(ndp_queue, wrr_limits_headers_per_data_packet) {
  sim_env env;
  recording_sink sink(env);
  ndp_queue_config cfg = small_q(4);
  cfg.wrr_headers_per_data = 2;  // tight ratio so the test is short
  ndp_queue q(env, gbps(10), cfg);
  q.set_paused(true);
  owned_route r;
  r.push_back(&q);
  r.push_back(&sink);
  // 4 data buffered; 6 control packets queued at higher priority.
  for (std::uint64_t i = 1; i <= 4; ++i) send_to_next_hop(*make_data(env, &r, 9000, i));
  for (std::uint64_t i = 100; i < 106; ++i) {
    packet* c = env.pool.alloc();
    c->type = packet_type::ndp_ack;
    c->size_bytes = kHeaderBytes;
    c->seqno = i;
    c->rt = &r;
    c->next_hop = 0;
    send_to_next_hop(*c);
  }
  q.set_paused(false);
  env.events.run_all();
  ASSERT_EQ(sink.count(), 10u);
  // Expect pattern: 2 headers, 1 data, 2 headers, 1 data, 2 headers, then
  // remaining data — never 3 headers in a row while data waits.
  int run = 0;
  for (const auto& a : sink.arrivals()) {
    if (a.type == packet_type::ndp_ack) {
      ++run;
      EXPECT_LE(run, 2);
    } else {
      run = 0;
    }
  }
}

TEST(ndp_queue, headers_drain_completely_when_no_data_waits) {
  sim_env env;
  recording_sink sink(env);
  ndp_queue_config cfg = small_q(4);
  cfg.wrr_headers_per_data = 1;
  ndp_queue q(env, gbps(10), cfg);
  owned_route r;
  r.push_back(&q);
  r.push_back(&sink);
  for (std::uint64_t i = 0; i < 5; ++i) {
    packet* c = env.pool.alloc();
    c->type = packet_type::ndp_pull;
    c->size_bytes = kHeaderBytes;
    c->rt = &r;
    c->next_hop = 0;
    send_to_next_hop(*c);
  }
  env.events.run_all();
  EXPECT_EQ(sink.count(), 5u);
}

TEST(ndp_queue, wrr_credit_only_charged_under_contention) {
  // Serving headers from an otherwise-empty port must not consume WRR
  // credit: when data shows up later, the full `wrr_headers_per_data` ratio
  // is still available to the headers already queued.  (If uncontended
  // service charged credit, the first dequeue after data arrived would be
  // forced to serve data even though no header ever delayed it.)
  sim_env env;
  recording_sink sink(env);
  ndp_queue_config cfg = small_q(8);
  cfg.wrr_headers_per_data = 2;
  ndp_queue q(env, gbps(10), cfg);
  owned_route r;
  r.push_back(&q);
  r.push_back(&sink);
  // Phase 1: five headers drain uncontended — more than the ratio.
  for (std::uint64_t i = 100; i < 105; ++i) {
    packet* c = env.pool.alloc();
    c->type = packet_type::ndp_ack;
    c->size_bytes = kHeaderBytes;
    c->seqno = i;
    c->rt = &r;
    c->next_hop = 0;
    send_to_next_hop(*c);
  }
  env.events.run_all();
  ASSERT_EQ(sink.count(), 5u);
  // Phase 2: contention — data and headers queued together while paused.
  q.set_paused(true);
  for (std::uint64_t i = 1; i <= 2; ++i) {
    send_to_next_hop(*make_data(env, &r, 9000, i));
  }
  for (std::uint64_t i = 200; i < 203; ++i) {
    packet* c = env.pool.alloc();
    c->type = packet_type::ndp_ack;
    c->size_bytes = kHeaderBytes;
    c->seqno = i;
    c->rt = &r;
    c->next_hop = 0;
    send_to_next_hop(*c);
  }
  q.set_paused(false);
  env.events.run_all();
  ASSERT_EQ(sink.count(), 10u);
  // The two headers of the ratio must both precede the first data packet —
  // phase 1 charged no credit.
  const auto& as = sink.arrivals();
  EXPECT_EQ(as[5].type, packet_type::ndp_ack);
  EXPECT_EQ(as[6].type, packet_type::ndp_ack);
  EXPECT_EQ(as[7].type, packet_type::ndp_data);
}

TEST(ndp_queue, random_trim_position_spreads_victims) {
  // With the 50% coin, both "arriving" and "tail" should get trimmed over
  // many trials; with the coin disabled, the arriving packet is always the
  // victim (CP behaviour).
  for (bool random_trim : {true, false}) {
    sim_env env(42);
    recording_sink sink(env);
    ndp_queue_config cfg = small_q(1);
    cfg.random_trim_position = random_trim;
    ndp_queue q(env, gbps(10), cfg);
    q.set_paused(true);
    owned_route r;
    r.push_back(&q);
    r.push_back(&sink);
    int arriving_trimmed = 0;
    int tail_trimmed = 0;
    for (int trial = 0; trial < 64; ++trial) {
      // seq 1 sits in the buffer; seq 2 arrives into a full queue.
      send_to_next_hop(*make_data(env, &r, 9000, 1));
      send_to_next_hop(*make_data(env, &r, 9000, 2));
      q.set_paused(false);
      env.events.run_all();
      q.set_paused(true);
      // Exactly one of the two was trimmed.
      const auto& as = sink.arrivals();
      const auto& hdr =
          (as[as.size() - 1].flags & pkt_flag::trimmed) ? as[as.size() - 1]
                                                        : as[as.size() - 2];
      if (hdr.seqno == 2) {
        ++arriving_trimmed;
      } else {
        ++tail_trimmed;
      }
    }
    if (random_trim) {
      EXPECT_GT(arriving_trimmed, 8);
      EXPECT_GT(tail_trimmed, 8);
    } else {
      EXPECT_EQ(arriving_trimmed, 64);
      EXPECT_EQ(tail_trimmed, 0);
    }
  }
}

TEST(ndp_queue, trim_disabled_drops_like_droptail) {
  sim_env env;
  recording_sink sink(env);
  ndp_queue_config cfg = small_q(1);
  cfg.enable_trimming = false;
  ndp_queue q(env, gbps(10), cfg);
  const auto tp = testing::arm(q);
  owned_route r;
  r.push_back(&q);
  r.push_back(&sink);
  for (std::uint64_t i = 1; i <= 4; ++i) send_to_next_hop(*make_data(env, &r, 9000, i));
  env.events.run_all();
  EXPECT_EQ(sink.count(), 2u);
  EXPECT_EQ(q.telemetry().drop_pkts, 2u);
  EXPECT_EQ(q.telemetry().trim_pkts, 0u);
  EXPECT_EQ(env.pool.outstanding(), 0u);
}

TEST(ndp_queue, header_queue_overflow_drops_control_without_rts) {
  sim_env env;
  recording_sink sink(env);
  ndp_queue_config cfg;
  cfg.data_capacity_bytes = 9000;
  cfg.header_capacity_bytes = 2 * kHeaderBytes;
  cfg.enable_rts = true;  // control packets cannot bounce regardless
  ndp_queue q(env, gbps(10), cfg);
  const auto tp = testing::arm(q);
  q.set_paused(true);
  owned_route r;
  r.push_back(&q);
  r.push_back(&sink);
  for (int i = 0; i < 4; ++i) {
    packet* c = env.pool.alloc();
    c->type = packet_type::ndp_ack;
    c->size_bytes = kHeaderBytes;
    c->rt = &r;
    c->next_hop = 0;
    send_to_next_hop(*c);
  }
  q.set_paused(false);
  env.events.run_all();
  EXPECT_EQ(sink.count(), 2u);
  EXPECT_EQ(q.telemetry().drop_pkts, 2u);
}

TEST(ndp_queue, rts_bounces_header_back_to_source) {
  // Build a 2-queue forward path and its reverse; overflow the header queue
  // at the second hop and verify the packet comes back to the source side
  // with src/dst swapped and the bounced flag set.
  sim_env env;
  recording_sink src_endpoint(env);  // receives the bounce
  recording_sink dst_endpoint(env);

  ndp_queue_config tiny;
  tiny.data_capacity_bytes = 9000;      // 1 packet in flight + overflow
  tiny.header_capacity_bytes = kHeaderBytes;  // 1 header only
  ndp_queue q_a(env, gbps(10), small_q(8));
  ndp_queue q_sw(env, gbps(10), tiny);
  const auto tp = testing::arm(q_sw);
  ndp_queue q_b(env, gbps(10), small_q(8));
  ndp_queue q_sw_rev(env, gbps(10), small_q(8));
  pipe p1(env, from_us(1)), p2(env, from_us(1)), p3(env, from_us(1)),
      p4(env, from_us(1));

  owned_route fwd;  // A -> switch -> B
  fwd.push_back(&q_a);
  fwd.push_back(&p1);
  fwd.push_back(&q_sw);
  fwd.push_back(&p2);
  fwd.push_back(&dst_endpoint);
  owned_route rev;  // B -> switch -> A
  rev.push_back(&q_b);
  rev.push_back(&p3);
  rev.push_back(&q_sw_rev);
  rev.push_back(&p4);
  rev.push_back(&src_endpoint);
  fwd.set_reverse(&rev);
  rev.set_reverse(&fwd);

  q_sw.set_paused(true);  // jam the congested port
  // Packet 1 fills the data queue, packet 2 is trimmed into the one-header
  // header queue, packets 3 and 4 are trimmed with nowhere to go -> bounced.
  for (std::uint64_t i = 1; i <= 4; ++i) {
    packet* p = make_data(env, &fwd, 9000, i);
    p->src = 7;
    p->dst = 9;
    p->reverse_rt = &rev;
    send_to_next_hop(*p);
  }
  env.events.run_all();

  EXPECT_EQ(q_sw.telemetry().bounce_pkts, 2u);
  ASSERT_EQ(src_endpoint.count(), 2u);
  const auto& b = src_endpoint.arrivals()[0];
  EXPECT_NE(b.flags & pkt_flag::bounced, 0);
  EXPECT_NE(b.flags & pkt_flag::trimmed, 0);
  EXPECT_EQ(b.size_bytes, kHeaderBytes);
  q_sw.set_paused(false);
  env.events.run_all();
  EXPECT_EQ(env.pool.outstanding(), 0u);
}

TEST(ndp_queue, bounced_header_is_never_bounced_twice) {
  sim_env env;
  recording_sink sink(env);
  ndp_queue_config tiny;
  tiny.data_capacity_bytes = 9000;
  tiny.header_capacity_bytes = kHeaderBytes;
  ndp_queue q(env, gbps(10), tiny);
  const auto tp = testing::arm(q);
  q.set_paused(true);
  owned_route r;
  r.push_back(&q);
  r.push_back(&sink);
  // A pre-bounced header arriving at a full header queue must be dropped.
  packet* h = env.pool.alloc();
  packet* h2 = env.pool.alloc();
  for (packet* p : {h, h2}) {
    p->type = packet_type::ndp_data;
    p->set_flag(pkt_flag::trimmed);
    p->set_flag(pkt_flag::bounced);
    p->size_bytes = kHeaderBytes;
    p->rt = &r;
    p->reverse_rt = &r;  // even with a reverse route present
    p->next_hop = 0;
    send_to_next_hop(*p);
  }
  q.set_paused(false);
  env.events.run_all();
  EXPECT_EQ(sink.count(), 1u);
  EXPECT_EQ(q.telemetry().drop_pkts, 1u);
  EXPECT_EQ(q.telemetry().bounce_pkts, 0u);
}

TEST(ndp_queue, trim_packet_helper) {
  packet p;
  p.type = packet_type::ndp_data;
  p.size_bytes = 9000;
  p.payload_bytes = 9000 - kHeaderBytes;
  ndp_queue::trim_packet(p);
  EXPECT_EQ(p.size_bytes, kHeaderBytes);
  EXPECT_EQ(p.payload_bytes, 0u);
  EXPECT_TRUE(p.has_flag(pkt_flag::trimmed));
  EXPECT_TRUE(p.is_header_class());
}

}  // namespace
}  // namespace ndpsim
