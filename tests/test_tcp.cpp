#include <gtest/gtest.h>

#include "net/fifo_queues.h"
#include "tcp/tcp_sink.h"
#include "tcp/tcp_source.h"
#include "topo/micro_topo.h"
#include "topo/path_table.h"
#include "test_util.h"

namespace ndpsim {
namespace {

queue_factory droptail_factory(sim_env& env, std::uint32_t pkts = 100) {
  return [&env, pkts](link_level level, std::size_t,
                      linkspeed_bps rate) -> std::unique_ptr<queue_base> {
    if (level == link_level::host_up) {
      return std::make_unique<host_priority_queue>(env, rate);
    }
    return std::make_unique<drop_tail_queue>(env, rate, pkts * 9000ull);
  };
}

struct tconn {
  tconn(sim_env& env, fabric_instance& topo, std::uint32_t s, std::uint32_t d,
        std::uint64_t bytes, std::uint32_t fid, tcp_config cfg = {},
        std::size_t path = 0, simtime_t start = 0)
      : source(env, cfg, fid), sink(env, fid) {
    source.connect(sink, topo.paths().single(s, d, path), s, d, bytes, start);
  }
  tcp_source source;
  tcp_sink sink;
};

TEST(tcp, handshake_then_transfer_completes) {
  sim_env env;
  back_to_back b2b(env, gbps(10), from_us(1), droptail_factory(env));
  tconn c(env, b2b, 0, 1, 100 * 8936, 1);
  env.events.run_all();
  EXPECT_TRUE(c.source.complete());
  EXPECT_EQ(c.sink.payload_received(), 100u * 8936);
  EXPECT_EQ(c.sink.cumulative_acked(), 100u * 8936);
  EXPECT_EQ(env.pool.outstanding(), 0u);
}

TEST(tcp, handshake_costs_one_rtt) {
  sim_env env;
  back_to_back b2b(env, gbps(10), from_us(1), droptail_factory(env));
  tcp_config with_hs;
  with_hs.handshake = true;
  tcp_config no_hs;
  no_hs.handshake = false;
  tconn a(env, b2b, 0, 1, 8936, 1, with_hs);
  env.events.run_all();
  const double fct_hs = to_us(a.source.completion_time());
  sim_env env2;
  back_to_back b2b2(env2, gbps(10), from_us(1), droptail_factory(env2));
  tconn b(env2, b2b2, 0, 1, 8936, 1, no_hs);
  env2.events.run_all();
  const double fct_tfo = to_us(b.source.completion_time());
  EXPECT_GT(fct_hs, fct_tfo + 1.5);  // handshake ~= 1 RTT (>2us here)
}

TEST(tcp, slow_start_doubles_window_per_rtt) {
  sim_env env;
  back_to_back b2b(env, gbps(10), from_ms(1), droptail_factory(env));
  tcp_config cfg;
  cfg.handshake = false;
  cfg.iw_mss = 2;
  tconn c(env, b2b, 0, 1, 0 /*unbounded*/, 1, cfg);
  const std::uint64_t w0 = 2 * 8936;
  env.events.run_until(from_ms(1));
  EXPECT_EQ(c.source.cwnd_bytes(), w0);
  env.events.run_until(from_ms(2.5));  // after ~1 RTT of acks
  EXPECT_NEAR(static_cast<double>(c.source.cwnd_bytes()),
              static_cast<double>(2 * w0), 9000.0);
  env.events.run_until(from_ms(4.6));
  EXPECT_NEAR(static_cast<double>(c.source.cwnd_bytes()),
              static_cast<double>(4 * w0), 2 * 9000.0);
}

TEST(tcp, fills_pipe_at_steady_state) {
  sim_env env;
  back_to_back b2b(env, gbps(10), from_us(10), droptail_factory(env));
  tcp_config cfg;
  cfg.handshake = false;
  tconn c(env, b2b, 0, 1, 0, 1, cfg);
  env.events.run_until(from_ms(5));
  const std::uint64_t base = c.sink.payload_received();
  env.events.run_until(from_ms(15));
  const double gb =
      static_cast<double>(c.sink.payload_received() - base) * 8 /
      to_sec(from_ms(10)) / 1e9;
  EXPECT_GT(gb, 9.0);
}

TEST(tcp, fast_retransmit_recovers_single_loss_without_timeout) {
  sim_env env(4);
  // Deterministic single loss: a dropper element discards exactly one data
  // segment mid-flow; dupacks must recover it without any timeout.
  struct dropper final : public packet_sink {
    sim_env& env;
    std::uint64_t victim_seq;
    bool dropped = false;
    dropper(sim_env& e, std::uint64_t v) : env(e), victim_seq(v) {}
    void receive(packet& p) override {
      if (!dropped && p.type == packet_type::tcp_data &&
          p.seqno == victim_seq && !p.has_flag(pkt_flag::rtx)) {
        dropped = true;
        env.pool.release(&p);
        return;
      }
      send_to_next_hop(p);
    }
  } middle(env, 20 * 8936);

  host_priority_queue nic_a(env, gbps(10)), nic_b(env, gbps(10));
  pipe w1(env, from_us(10)), w2(env, from_us(10));
  manual_paths mp;
  mp.add({&nic_a, &w1, &middle}, {&nic_b, &w2});

  tcp_config cfg;
  cfg.handshake = false;
  cfg.min_rto = from_ms(200);
  tcp_source src(env, cfg, 1);
  tcp_sink snk(env, 1);
  src.connect(snk, mp.set(), 0, 1, 200 * 8936, 0);
  env.events.run_until(from_ms(150));
  EXPECT_TRUE(src.complete());
  EXPECT_TRUE(middle.dropped);
  EXPECT_GT(src.stats().rtx_after_nack, 0u);
  EXPECT_EQ(src.stats().timeouts, 0u);
  // Completion far sooner than any 200ms RTO.
  EXPECT_LT(to_us(src.completion_time()), 100'000.0);
}

TEST(tcp, incast_tail_loss_forces_timeouts) {
  sim_env env(8);
  single_switch star(env, 9, gbps(10), from_us(1), droptail_factory(env, 8));
  tcp_config cfg;
  cfg.handshake = false;
  cfg.min_rto = from_ms(10);
  std::vector<std::unique_ptr<tconn>> conns;
  for (std::uint32_t s = 0; s < 8; ++s) {
    conns.push_back(
        std::make_unique<tconn>(env, star, s, 8, 40 * 8936, 10 + s, cfg));
  }
  env.events.run_until(from_sec(2));
  std::uint64_t timeouts = 0;
  for (const auto& c : conns) {
    EXPECT_TRUE(c->source.complete());
    timeouts += c->source.stats().timeouts;
  }
  // Synchronized window loss leaves too few dupacks: TCP needs RTOs.
  EXPECT_GT(timeouts, 0u);
}

TEST(tcp, rtt_estimator_tracks_path_rtt) {
  sim_env env;
  back_to_back b2b(env, gbps(10), from_us(100), droptail_factory(env));
  tcp_config cfg;
  cfg.handshake = false;
  tconn c(env, b2b, 0, 1, 50 * 8936, 1, cfg);
  env.events.run_all();
  // Wire RTT is ~200us + serialization; srtt must land in that ballpark.
  EXPECT_GT(to_us(c.source.srtt()), 180.0);
  EXPECT_LT(to_us(c.source.srtt()), 400.0);
}

TEST(tcp, unbounded_flow_never_completes) {
  sim_env env;
  back_to_back b2b(env, gbps(10), from_us(1), droptail_factory(env));
  tcp_config cfg;
  cfg.handshake = false;
  tconn c(env, b2b, 0, 1, 0, 1, cfg);
  env.events.run_until(from_ms(10));
  EXPECT_FALSE(c.source.complete());
  EXPECT_GT(c.sink.payload_received(), 0u);
}

TEST(tcp_sink, reorders_and_acks_cumulatively) {
  sim_env env;
  tcp_sink sink(env, 1);
  testing::recording_sink ack_collector(env);
  manual_paths mp;  // the collector swallows ACKs before the demux terminal
  mp.add({}, {&ack_collector});
  sink.bind(mp.set(), 1, 0);
  auto deliver = [&](std::uint64_t start, std::uint32_t len) {
    packet* p = env.pool.alloc();
    p->type = packet_type::tcp_data;
    p->flow_id = 1;
    p->seqno = start;
    p->payload_bytes = len;
    p->size_bytes = len + kHeaderBytes;
    sink.receive(*p);
  };
  deliver(1000, 1000);  // hole at 0..1000
  EXPECT_EQ(sink.cumulative_acked(), 0u);
  deliver(0, 1000);  // fills the hole: cum jumps over both
  EXPECT_EQ(sink.cumulative_acked(), 2000u);
  deliver(500, 1000);  // overlapping duplicate: no double count
  EXPECT_EQ(sink.payload_received(), 2000u);
  EXPECT_EQ(sink.cumulative_acked(), 2000u);
  ASSERT_EQ(ack_collector.count(), 3u);
}

}  // namespace
}  // namespace ndpsim
