#include <gtest/gtest.h>

#include "net/fifo_queues.h"
#include "ndp/ndp_acceptor.h"
#include "ndp/ndp_queue.h"
#include "ndp/ndp_sink.h"
#include "ndp/ndp_source.h"
#include "ndp/pull_pacer.h"
#include "topo/micro_topo.h"
#include "topo/path_table.h"
#include "test_util.h"

namespace ndpsim {
namespace {

queue_factory ndp_factory(sim_env& env, std::uint32_t data_pkts = 8,
                          std::uint64_t hdr_bytes = 0) {
  return [&env, data_pkts, hdr_bytes](
             link_level level, std::size_t,
             linkspeed_bps rate) -> std::unique_ptr<queue_base> {
    if (level == link_level::host_up) {
      return std::make_unique<host_priority_queue>(env, rate);
    }
    ndp_queue_config c;
    c.data_capacity_bytes = data_pkts * 9000ull;
    c.header_capacity_bytes = hdr_bytes != 0 ? hdr_bytes : c.data_capacity_bytes;
    return std::make_unique<ndp_queue>(env, rate, c);
  };
}

struct connection {
  connection(sim_env& env, fabric_instance& topo, pull_pacer& pacer, std::uint32_t s,
             std::uint32_t d, std::uint64_t bytes, std::uint32_t fid,
             ndp_source_config sc = {}, ndp_sink_config kc = {},
             simtime_t start = 0)
      : source(env, sc, fid), sink(env, pacer, kc, fid) {
    source.connect(sink, topo.paths().all(s, d), s, d, bytes,
                   std::max(start, env.now()));
  }
  ndp_source source;
  ndp_sink sink;
};

TEST(ndp_transport, zero_rtt_small_flow_completes_in_first_window) {
  sim_env env;
  back_to_back b2b(env, gbps(10), from_us(1), ndp_factory(env));
  pull_pacer pacer(env, gbps(10));
  connection c(env, b2b, pacer, 0, 1, 5 * 8936, 1);
  env.events.run_all();
  EXPECT_TRUE(c.sink.complete());
  EXPECT_TRUE(c.source.complete());
  EXPECT_EQ(c.sink.payload_received(), 5u * 8936);
  const transport_counters& st = c.source.stats();
  EXPECT_EQ(st.rtx_after_nack + st.rtx_after_bounce + st.rtx_after_timeout, 0u);
  EXPECT_EQ(c.sink.stats().nacks_sent, 0u);
  // Five packets back to back at 10G + 1us wire: last data at 5*7.2+1 =
  // 37us; no handshake beforehand (zero-RTT).
  EXPECT_LT(to_us(c.sink.completion_time()), 40.0);
  EXPECT_EQ(env.pool.outstanding(), 0u);
}

TEST(ndp_transport, completed_flow_leaves_no_timers_pending) {
  // Timer-leak check for the cancellable-handle scheduler: the moment the
  // flow completes, the RTO backstop and pull-pacer timers must be cancelled
  // — zero dead entries left to fire, zero packets leaked.
  sim_env env;
  back_to_back b2b(env, gbps(10), from_us(1), ndp_factory(env));
  pull_pacer pacer(env, gbps(10));
  connection c(env, b2b, pacer, 0, 1, 80 * 8936, 1);  // pulls past the IW
  while (!c.source.complete() && env.events.run_next_event()) {
  }
  ASSERT_TRUE(c.source.complete());
  EXPECT_TRUE(c.sink.complete());
  EXPECT_EQ(env.events.pending(), 0u);
  EXPECT_EQ(pacer.backlog(), 0u);
  EXPECT_EQ(env.pool.outstanding(), 0u);
}

TEST(ndp_transport, every_first_window_packet_carries_syn_and_offset) {
  sim_env env;
  // Manual wiring with a tap to observe the wire.
  struct tap final : public packet_sink {
    std::vector<std::pair<std::uint64_t, std::uint16_t>> seen;  // seq, flags
    void receive(packet& p) override {
      if (p.type == packet_type::ndp_data) seen.emplace_back(p.seqno, p.flags);
      send_to_next_hop(p);
    }
  } wire_tap;

  host_priority_queue nic_a(env, gbps(10)), nic_b(env, gbps(10));
  pipe wire_ab(env, from_us(1)), wire_ba(env, from_us(1));
  manual_paths mp;
  mp.add({&nic_a, &wire_ab, &wire_tap}, {&nic_b, &wire_ba});

  pull_pacer pacer(env, gbps(10));
  ndp_source_config sc;
  sc.iw_packets = 4;
  ndp_source src(env, sc, 1);
  ndp_sink snk(env, pacer, {}, 1);
  src.connect(snk, mp.set(), 0, 1, 10 * 8936, 0);
  env.events.run_all();

  ASSERT_GE(wire_tap.seen.size(), 10u);
  // The first 4 packets (the initial window) all carry SYN with their
  // sequence offsets 1..4; later (pulled) packets do not.
  for (int i = 0; i < 4; ++i) {
    EXPECT_NE(wire_tap.seen[i].second & pkt_flag::syn, 0)
        << "first-RTT packet " << i;
    EXPECT_EQ(wire_tap.seen[i].first, static_cast<std::uint64_t>(i + 1));
  }
  EXPECT_EQ(wire_tap.seen.back().second & pkt_flag::syn, 0);
  EXPECT_TRUE(snk.complete());
}

TEST(ndp_transport, last_packet_flag_set_and_flow_size_learned) {
  sim_env env;
  back_to_back b2b(env, gbps(10), from_us(1), ndp_factory(env));
  pull_pacer pacer(env, gbps(10));
  // 3 full packets + 1 byte -> 4 packets.
  connection c(env, b2b, pacer, 0, 1, 3 * 8936 + 1, 1);
  env.events.run_all();
  EXPECT_TRUE(c.sink.complete());
  EXPECT_EQ(c.sink.payload_received(), 3u * 8936 + 1);
  EXPECT_EQ(c.source.total_packets(), 4u);
}

TEST(ndp_transport, incast_trims_then_recovers_without_timeouts) {
  sim_env env(7);
  testing::attach_plane(
      env, fabric_blueprint::single_switch(11, gbps(10), from_us(1))
               ->n_slots());
  single_switch star(env, 11, gbps(10), from_us(1), ndp_factory(env, 8));
  pull_pacer pacer(env, gbps(10));
  std::vector<std::unique_ptr<connection>> conns;
  ndp_source_config sc;
  sc.iw_packets = 30;
  for (std::uint32_t s = 0; s < 10; ++s) {
    conns.push_back(std::make_unique<connection>(env, star, pacer, s, 10,
                                                 20 * 8936, 100 + s, sc));
  }
  env.events.run_all();
  std::uint64_t rtx_nack = 0, rtx_to = 0, dups = 0;
  for (const auto& c : conns) {
    EXPECT_TRUE(c->sink.complete());
    EXPECT_EQ(c->sink.payload_received(), 20u * 8936);
    rtx_nack += c->source.stats().rtx_after_nack;
    rtx_to += c->source.stats().rtx_after_timeout;
    dups += c->sink.stats().duplicate_packets;
  }
  // 10 senders x 30-packet IW into one 8-packet port: heavy trimming, all
  // recovered via NACK+PULL, no timeouts needed (metadata is lossless).
  EXPECT_GT(star.switch_port(10).telemetry().trim_pkts, 50u);
  EXPECT_GT(rtx_nack, 50u);
  EXPECT_EQ(rtx_to, 0u);
  EXPECT_EQ(dups, 0u);
  EXPECT_EQ(env.pool.outstanding(), 0u);
}

TEST(ndp_transport, incast_aggregate_arrival_matches_link_rate_after_first_rtt) {
  sim_env env(9);
  single_switch star(env, 5, gbps(10), from_us(1), ndp_factory(env, 8));
  pull_pacer pacer(env, gbps(10));
  std::vector<std::unique_ptr<connection>> conns;
  for (std::uint32_t s = 0; s < 4; ++s) {
    conns.push_back(std::make_unique<connection>(env, star, pacer, s, 4,
                                                 0 /*unbounded*/, 200 + s));
  }
  env.events.run_until(from_ms(2));
  std::uint64_t base = 0;
  for (const auto& c : conns) base += c->sink.payload_received();
  env.events.run_until(from_ms(6));
  std::uint64_t total = 0;
  for (const auto& c : conns) total += c->sink.payload_received();
  const double gbps_measured =
      static_cast<double>(total - base) * 8.0 / to_sec(from_ms(4)) / 1e9;
  // Receiver-paced: aggregate goodput ~= link rate x payload fraction.
  EXPECT_GT(gbps_measured, 9.0);
  EXPECT_LT(gbps_measured, 10.0);
  // Fairness: each of the 4 senders gets about a quarter.
  for (const auto& c : conns) {
    const double share =
        static_cast<double>(c->sink.payload_received()) / static_cast<double>(total);
    EXPECT_NEAR(share, 0.25, 0.05);
  }
}

TEST(ndp_transport, pull_counter_tolerates_reordering) {
  sim_env env;
  back_to_back b2b(env, gbps(10), from_us(1), ndp_factory(env));
  b2b.nic(0).set_paused(true);  // freeze the data path
  pull_pacer pacer(env, gbps(10));
  ndp_source_config sc;
  sc.iw_packets = 1;
  connection c(env, b2b, pacer, 0, 1, 50 * 8936, 1, sc);
  env.events.run_until(from_us(1));  // start event fires; IW=1 packet queued
  EXPECT_EQ(c.source.stats().packets_sent, 1u);

  auto inject_pull = [&](std::uint64_t pullno) {
    packet* p = env.pool.alloc();
    p->type = packet_type::ndp_pull;
    p->flow_id = 1;
    p->size_bytes = kHeaderBytes;
    p->pullno = pullno;
    c.source.receive(*p);
  };
  // Pull #2 arrives before pull #1 (reordered): sends 2 packets at once.
  inject_pull(2);
  EXPECT_EQ(c.source.stats().packets_sent, 3u);
  // The late pull #1 must not double-send.
  inject_pull(1);
  EXPECT_EQ(c.source.stats().packets_sent, 3u);
  inject_pull(3);
  EXPECT_EQ(c.source.stats().packets_sent, 4u);
}

TEST(ndp_transport, receiver_prioritizes_high_class_flow) {
  sim_env env(21);
  single_switch star(env, 8, gbps(10), from_us(1), ndp_factory(env, 8));
  pull_pacer pacer(env, gbps(10));
  // Six long flows to host 7.
  std::vector<std::unique_ptr<connection>> long_flows;
  for (std::uint32_t s = 0; s < 6; ++s) {
    long_flows.push_back(
        std::make_unique<connection>(env, star, pacer, s, 7, 0, 300 + s));
  }
  env.events.run_until(from_ms(1));  // let them saturate the link
  // A short high-priority flow starts now.
  ndp_sink_config high;
  high.pull_class = 1;
  auto short_flow = std::make_unique<connection>(
      env, star, pacer, 6, 7, 200'000, 399, ndp_source_config{}, high,
      env.now());
  const simtime_t t0 = env.now();
  while (!short_flow->sink.complete() && env.events.run_next_event()) {
  }
  const double fct_us = to_us(env.now() - t0);
  // 200KB at 10G is ~170us idle; with priority pulls it must stay within
  // ~100us of that (paper Fig 10: within 50us, we allow slack for the
  // in-flight first window of the long flows).
  EXPECT_LT(fct_us, 320.0);
}

TEST(ndp_transport, without_priority_short_flow_shares_fairly) {
  sim_env env(21);
  single_switch star(env, 8, gbps(10), from_us(1), ndp_factory(env, 8));
  pull_pacer pacer(env, gbps(10));
  std::vector<std::unique_ptr<connection>> long_flows;
  for (std::uint32_t s = 0; s < 6; ++s) {
    long_flows.push_back(
        std::make_unique<connection>(env, star, pacer, s, 7, 0, 300 + s));
  }
  env.events.run_until(from_ms(1));
  auto short_flow = std::make_unique<connection>(
      env, star, pacer, 6, 7, 200'000, 399, ndp_source_config{},
      ndp_sink_config{}, env.now());
  const simtime_t t0 = env.now();
  while (!short_flow->sink.complete() && env.events.run_next_event()) {
  }
  const double fct_us = to_us(env.now() - t0);
  // Without priority the short flow shares the receiver with six long flows:
  // clearly slower than the prioritized case (fair share would be ~1190us;
  // the long flows' in-flight gaps let the short flow do somewhat better).
  EXPECT_GT(fct_us, 450.0);
}

TEST(ndp_transport, rto_backstop_recovers_from_true_loss) {
  // Disable RTS and make the header queue absurdly small so headers die:
  // only the RTO can recover.
  sim_env env(5);
  auto factory = [&env](link_level level, std::size_t,
                        linkspeed_bps rate) -> std::unique_ptr<queue_base> {
    if (level == link_level::host_up) {
      return std::make_unique<host_priority_queue>(env, rate);
    }
    ndp_queue_config c;
    c.data_capacity_bytes = 1 * 9000;
    c.header_capacity_bytes = 1 * kHeaderBytes;
    c.enable_rts = false;
    return std::make_unique<ndp_queue>(env, rate, c);
  };
  single_switch star(env, 4, gbps(10), from_us(1), factory);
  pull_pacer pacer(env, gbps(10));
  ndp_source_config sc;
  sc.iw_packets = 10;
  sc.rto = from_us(500);
  std::vector<std::unique_ptr<connection>> conns;
  for (std::uint32_t s = 0; s < 3; ++s) {
    conns.push_back(std::make_unique<connection>(env, star, pacer, s, 3,
                                                 10 * 8936, 500 + s, sc));
  }
  env.events.run_until(from_ms(200));
  std::uint64_t timeouts = 0;
  for (const auto& c : conns) {
    EXPECT_TRUE(c->sink.complete());
    timeouts += c->source.stats().rtx_after_timeout;
  }
  EXPECT_GT(timeouts, 0u);
}

TEST(ndp_transport, rts_bounces_recover_single_packet_flows) {
  // Tiny header queue + RTS on: bounced headers let senders resend without
  // waiting for the RTO (paper §3.2.4).
  sim_env env(6);
  auto factory = [&env](link_level level, std::size_t,
                        linkspeed_bps rate) -> std::unique_ptr<queue_base> {
    if (level == link_level::host_up) {
      return std::make_unique<host_priority_queue>(env, rate);
    }
    ndp_queue_config c;
    c.data_capacity_bytes = 2 * 9000;
    c.header_capacity_bytes = 2 * kHeaderBytes;
    c.enable_rts = true;
    return std::make_unique<ndp_queue>(env, rate, c);
  };
  single_switch star(env, 31, gbps(10), from_us(1), factory);
  pull_pacer pacer(env, gbps(10));
  ndp_source_config sc;
  sc.iw_packets = 30;
  sc.rto = from_ms(50);  // long RTO: recovery must not rely on it
  std::vector<std::unique_ptr<connection>> conns;
  for (std::uint32_t s = 0; s < 30; ++s) {
    conns.push_back(std::make_unique<connection>(env, star, pacer, s, 30,
                                                 1 * 8936, 600 + s, sc));
  }
  env.events.run_until(from_ms(40));  // less than one RTO
  std::uint64_t bounces = 0;
  std::size_t done = 0;
  for (const auto& c : conns) {
    done += c->sink.complete() ? 1 : 0;
    bounces += c->source.stats().bounces_received;
  }
  EXPECT_EQ(done, 30u);
  EXPECT_GT(bounces, 0u);
}

TEST(ndp_acceptor, establishes_from_any_first_rtt_packet) {
  sim_env env;
  testing::recording_sink backing(env);
  int created = 0;
  ndp_acceptor acc(env, [&](std::uint32_t) {
    ++created;
    return &backing;
  });
  // A mid-window SYN packet (offset 3) arrives first.
  packet* p = env.pool.alloc();
  p->type = packet_type::ndp_data;
  p->flow_id = 42;
  p->seqno = 3;
  p->set_flag(pkt_flag::syn);
  p->size_bytes = 9000;
  acc.receive(*p);
  EXPECT_EQ(created, 1);
  EXPECT_EQ(acc.established(), 1u);
  EXPECT_TRUE(acc.is_live(42));
  // More packets of the same connection reuse the state.
  packet* q = env.pool.alloc();
  q->type = packet_type::ndp_data;
  q->flow_id = 42;
  q->seqno = 1;
  q->set_flag(pkt_flag::syn);
  q->size_bytes = 9000;
  acc.receive(*q);
  EXPECT_EQ(created, 1);
  EXPECT_EQ(backing.count(), 2u);
}

TEST(ndp_acceptor, rejects_duplicate_connection_in_time_wait) {
  sim_env env;
  testing::recording_sink backing(env);
  ndp_acceptor acc(env, [&](std::uint32_t) { return &backing; },
                   from_ms(1));
  packet* p = env.pool.alloc();
  p->type = packet_type::ndp_data;
  p->flow_id = 7;
  p->set_flag(pkt_flag::syn);
  acc.receive(*p);
  acc.close(7);
  // A duplicate of the same connection id inside the MSL must be rejected
  // (at-most-once semantics, unlike TFO).
  packet* dup = env.pool.alloc();
  dup->type = packet_type::ndp_data;
  dup->flow_id = 7;
  dup->set_flag(pkt_flag::syn);
  acc.receive(*dup);
  EXPECT_EQ(acc.duplicates_rejected(), 1u);
  EXPECT_EQ(backing.count(), 1u);
  // After the MSL expires the id may be reused.
  env.events.run_until(from_ms(2));
  packet* fresh = env.pool.alloc();
  fresh->type = packet_type::ndp_data;
  fresh->flow_id = 7;
  fresh->set_flag(pkt_flag::syn);
  acc.receive(*fresh);
  EXPECT_EQ(acc.established(), 2u);
}

TEST(ndp_acceptor, drops_stale_non_syn_packets) {
  sim_env env;
  testing::recording_sink backing(env);
  ndp_acceptor acc(env, [&](std::uint32_t) { return &backing; });
  packet* p = env.pool.alloc();
  p->type = packet_type::ndp_data;
  p->flow_id = 9;  // unknown connection, no SYN
  acc.receive(*p);
  EXPECT_EQ(acc.stale_dropped(), 1u);
  EXPECT_EQ(backing.count(), 0u);
  EXPECT_EQ(env.pool.outstanding(), 0u);
}

}  // namespace
}  // namespace ndpsim
