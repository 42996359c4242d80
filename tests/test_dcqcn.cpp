#include <gtest/gtest.h>

#include "dcqcn/dcqcn_source.h"
#include "net/fifo_queues.h"
#include "net/lossless.h"
#include "topo/micro_topo.h"
#include "topo/path_table.h"
#include "test_util.h"

namespace ndpsim {
namespace {

queue_factory red_factory(sim_env& env, std::uint32_t kmin_pkts = 5,
                          std::uint32_t kmax_pkts = 20) {
  return [&env, kmin_pkts, kmax_pkts](
             link_level level, std::size_t,
             linkspeed_bps rate) -> std::unique_ptr<queue_base> {
    if (level == link_level::host_up) {
      return std::make_unique<host_priority_queue>(env, rate);
    }
    return std::make_unique<red_ecn_queue>(env, rate, 4000ull * 9000,
                                           kmin_pkts * 9000ull,
                                           kmax_pkts * 9000ull, 0.2);
  };
}

struct qconn {
  qconn(sim_env& env, fabric_instance& topo, std::uint32_t s, std::uint32_t d,
        std::uint64_t bytes, std::uint32_t fid, dcqcn_config cfg = {})
      : source(env, cfg, fid), sink(env, fid) {
    source.connect(sink, topo.paths().single(s, d, 0), s, d, bytes, 0);
  }
  dcqcn_source source;
  dcqcn_sink sink;
};

TEST(dcqcn, starts_at_line_rate_and_completes) {
  sim_env env;
  back_to_back b2b(env, gbps(10), from_us(1), red_factory(env));
  qconn c(env, b2b, 0, 1, 100 * 8936, 1);
  EXPECT_EQ(c.source.current_rate(), gbps(10));
  env.events.run_all();
  EXPECT_TRUE(c.source.complete());
  EXPECT_EQ(c.sink.payload_received(), 100u * 8936);
  EXPECT_EQ(env.pool.outstanding(), 0u);
}

TEST(dcqcn, cnp_cuts_rate_multiplicatively) {
  sim_env env;
  back_to_back b2b(env, gbps(10), from_us(1), red_factory(env));
  qconn c(env, b2b, 0, 1, 0, 1);
  env.events.run_until(from_us(100));
  const linkspeed_bps before = c.source.current_rate();
  // Inject a CNP directly.
  packet* cnp = env.pool.alloc();
  cnp->type = packet_type::dcqcn_cnp;
  cnp->flow_id = 1;
  cnp->size_bytes = kHeaderBytes;
  c.source.receive(*cnp);
  // alpha starts at 1: first cut halves the rate.
  EXPECT_NEAR(static_cast<double>(c.source.current_rate()),
              static_cast<double>(before) * 0.5,
              static_cast<double>(before) * 0.02);
  EXPECT_EQ(c.source.stats().ecn_echoes, 1u);
}

TEST(dcqcn, rate_recovers_after_congestion_clears) {
  sim_env env;
  back_to_back b2b(env, gbps(10), from_us(1), red_factory(env));
  qconn c(env, b2b, 0, 1, 0, 1);
  env.events.run_until(from_us(50));
  packet* cnp = env.pool.alloc();
  cnp->type = packet_type::dcqcn_cnp;
  cnp->flow_id = 1;
  cnp->size_bytes = kHeaderBytes;
  c.source.receive(*cnp);
  const linkspeed_bps cut = c.source.current_rate();
  ASSERT_LT(cut, gbps(6));
  // With no further CNPs, fast recovery + additive increase restore most of
  // the rate within a few ms.
  env.events.run_until(from_ms(5));
  EXPECT_GT(c.source.current_rate(), gbps(9));
}

TEST(dcqcn, two_flows_converge_to_fair_share_without_loss) {
  sim_env env(17);
  testing::attach_plane(
      env, fabric_blueprint::single_switch(3, gbps(10), from_us(1))->n_slots());
  single_switch star(env, 3, gbps(10), from_us(1), red_factory(env, 3, 10));
  qconn a(env, star, 0, 2, 0, 1);
  qconn b(env, star, 1, 2, 0, 2);
  env.events.run_until(from_ms(20));
  const std::uint64_t a0 = a.sink.payload_received();
  const std::uint64_t b0 = b.sink.payload_received();
  env.events.run_until(from_ms(60));
  const double ra = static_cast<double>(a.sink.payload_received() - a0);
  const double rb = static_cast<double>(b.sink.payload_received() - b0);
  EXPECT_NEAR(ra / (ra + rb), 0.5, 0.15);
  EXPECT_EQ(star.switch_port(2).telemetry().drop_pkts, 0u);  // lossless fabric
  const double total_gb = (ra + rb) * 8 / to_sec(from_ms(40)) / 1e9;
  EXPECT_GT(total_gb, 8.0);
}

TEST(dcqcn, np_rate_limits_cnps) {
  sim_env env(19);
  single_switch star(env, 3, gbps(10), from_us(1), red_factory(env, 1, 2));
  qconn a(env, star, 0, 2, 0, 1);
  qconn b(env, star, 1, 2, 0, 2);
  env.events.run_until(from_ms(10));
  // Marking is pervasive with kmin=1, but CNPs are capped at one per 50us
  // per flow: <= 200 per flow in 10ms (plus slack).
  EXPECT_LE(a.sink.stats().cnps_sent, 220u);
  EXPECT_GT(a.sink.stats().cnps_sent, 10u);
}

TEST(dcqcn, alpha_tracks_congestion_level) {
  sim_env env;
  back_to_back b2b(env, gbps(10), from_us(1), red_factory(env));
  qconn c(env, b2b, 0, 1, 0, 1);
  env.events.run_until(from_us(50));
  EXPECT_DOUBLE_EQ(c.source.alpha(), 1.0);  // initial
  // Uncongested: alpha decays towards 0 at (1-g) per 55us: ~0.03 by 50ms.
  env.events.run_until(from_ms(50));
  EXPECT_LT(c.source.alpha(), 0.05);
}

}  // namespace
}  // namespace ndpsim
