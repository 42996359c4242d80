#include <gtest/gtest.h>

#include "net/fifo_queues.h"
#include "phost/phost.h"
#include "topo/micro_topo.h"
#include "topo/path_table.h"
#include "test_util.h"

namespace ndpsim {
namespace {

queue_factory droptail_factory(sim_env& env, std::uint32_t pkts) {
  return [&env, pkts](link_level level, std::size_t,
                      linkspeed_bps rate) -> std::unique_ptr<queue_base> {
    if (level == link_level::host_up) {
      return std::make_unique<host_priority_queue>(env, rate);
    }
    return std::make_unique<drop_tail_queue>(env, rate, pkts * 9000ull);
  };
}

struct pconn {
  pconn(sim_env& env, fabric_instance& topo, phost_token_pacer& pacer,
        std::uint32_t s, std::uint32_t d, std::uint64_t bytes,
        std::uint32_t fid)
      : source(env, {}, fid), sink(env, pacer, {}, fid) {
    source.connect(sink, topo.paths().all(s, d), s, d, bytes, 0);
  }
  phost_source source;
  phost_sink sink;
};

TEST(phost, lossless_path_completes_with_free_window) {
  sim_env env;
  back_to_back b2b(env, gbps(10), from_us(1), droptail_factory(env, 100));
  phost_token_pacer pacer(env, gbps(10));
  pconn c(env, b2b, pacer, 0, 1, 6 * 8936, 1);
  env.events.run_all();
  EXPECT_TRUE(c.sink.complete());
  EXPECT_EQ(c.sink.payload_received(), 6u * 8936);
  EXPECT_EQ(env.pool.outstanding(), 0u);
}

TEST(phost, token_paced_transfer_beyond_free_window) {
  sim_env env;
  back_to_back b2b(env, gbps(10), from_us(1), droptail_factory(env, 100));
  phost_token_pacer pacer(env, gbps(10));
  pconn c(env, b2b, pacer, 0, 1, 60 * 8936, 1);
  env.events.run_until(from_ms(10));
  EXPECT_TRUE(c.sink.complete());
  // ~60 packets at 7.2us each: roughly 450us, well under a millisecond.
  EXPECT_LT(to_us(c.sink.completion_time()), 1200.0);
}

TEST(phost, drops_cost_token_timeouts) {
  // 8-packet buffers + line-rate free window burst from many senders: drops
  // happen and recovery waits for the token timeout — pHost's weakness that
  // Fig 16/§6.2 contrasts with NDP trimming.
  sim_env env(23);
  testing::attach_plane(
      env, fabric_blueprint::single_switch(9, gbps(10), from_us(1))->n_slots());
  single_switch star(env, 9, gbps(10), from_us(1), droptail_factory(env, 8));
  phost_token_pacer pacer(env, gbps(10));
  std::vector<std::unique_ptr<pconn>> conns;
  for (std::uint32_t s = 0; s < 8; ++s) {
    conns.push_back(
        std::make_unique<pconn>(env, star, pacer, s, 8, 20 * 8936, 10 + s));
  }
  env.events.run_until(from_ms(100));
  std::size_t done = 0;
  for (const auto& c : conns) done += c->sink.complete() ? 1 : 0;
  EXPECT_EQ(done, 8u);
  EXPECT_GT(star.switch_port(8).telemetry().drop_pkts, 0u);
  // Completion must have taken far longer than the no-loss ideal (~1.2ms)
  // because token timeouts (300us each) gate loss recovery.
  double worst = 0;
  for (const auto& c : conns) {
    worst = std::max(worst, to_us(c->sink.completion_time()));
  }
  EXPECT_GT(worst, 1500.0);
}

TEST(phost, receiver_shares_tokens_round_robin) {
  sim_env env(29);
  single_switch star(env, 4, gbps(10), from_us(1), droptail_factory(env, 64));
  phost_token_pacer pacer(env, gbps(10));
  std::vector<std::unique_ptr<pconn>> conns;
  for (std::uint32_t s = 0; s < 3; ++s) {
    conns.push_back(
        std::make_unique<pconn>(env, star, pacer, s, 3, 300 * 8936, 20 + s));
  }
  env.events.run_until(from_ms(4));
  // Mid-transfer, all three flows should have comparable progress.
  std::vector<double> progress;
  for (const auto& c : conns) {
    progress.push_back(static_cast<double>(c->sink.payload_received()));
  }
  const double total = progress[0] + progress[1] + progress[2];
  ASSERT_GT(total, 0.0);
  for (double p : progress) EXPECT_NEAR(p / total, 1.0 / 3, 0.12);
}

}  // namespace
}  // namespace ndpsim
