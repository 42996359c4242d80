// Failure-injection and robustness tests for the NDP transport: degraded
// links, lost control packets, reordering extremes.
#include <gtest/gtest.h>

#include "net/fifo_queues.h"
#include "net/pipe.h"
#include "ndp/ndp_queue.h"
#include "ndp/ndp_sink.h"
#include "ndp/ndp_source.h"
#include "ndp/pull_pacer.h"
#include "topo/fat_tree.h"
#include "topo/micro_topo.h"
#include "topo/path_table.h"
#include "test_util.h"

namespace ndpsim {
namespace {

queue_factory ndp_factory(sim_env& env) {
  return [&env](link_level level, std::size_t,
                linkspeed_bps rate) -> std::unique_ptr<queue_base> {
    if (level == link_level::host_up) {
      return std::make_unique<host_priority_queue>(env, rate);
    }
    ndp_queue_config c;
    return std::make_unique<ndp_queue>(env, rate, c);
  };
}

TEST(ndp_robustness, scoreboard_routes_around_degraded_core_link) {
  auto run = [](bool penalty) {
    sim_env env(5);
    fat_tree_config tc;
    tc.k = 4;
    tc.speed_override = [](link_level level, std::size_t index,
                           linkspeed_bps def) -> linkspeed_bps {
      if (level == link_level::agg_up && index == 0) return gbps(1);
      if (level == link_level::core_down && index == 0) return gbps(1);
      return def;
    };
    fat_tree ft(env, tc, ndp_factory(env));
    pull_pacer pacer(env, gbps(10));
    ndp_source_config sc;
    sc.penalty.enabled = penalty;
    ndp_source src(env, sc, 1);
    ndp_sink snk(env, pacer, {}, 1);
    src.connect(snk, ft.paths().all(0, 15), 0, 15, 10'000'000, 0);
    while (!snk.complete() && env.events.run_next_event()) {
    }
    return to_us(snk.completion_time());
  };
  const double with_penalty = run(true);
  const double without = run(false);
  EXPECT_LT(with_penalty, without * 0.95);
  // With the penalty the transfer should be near the healthy-fabric time
  // (10MB at 10G payload rate ~= 8.06ms + epsilon).
  EXPECT_LT(with_penalty, 9'500.0);
}

TEST(ndp_robustness, survives_loss_of_control_packets) {
  // A lossy element that deletes 5% of ALL control packets (ACKs, NACKs and
  // PULLs): the RTO backstop must still complete the flow exactly.
  sim_env env(7);
  struct lossy final : public packet_sink {
    sim_env& env;
    int counter = 0;
    explicit lossy(sim_env& e) : env(e) {}
    void receive(packet& p) override {
      if (p.is_header_class() && ++counter % 20 == 0) {
        env.pool.release(&p);
        return;
      }
      send_to_next_hop(p);
    }
  } dropper(env);

  host_priority_queue nic_a(env, gbps(10)), nic_b(env, gbps(10));
  pipe w1(env, from_us(1)), w2(env, from_us(1));
  manual_paths mp;
  mp.add({&nic_a, &w1}, {&nic_b, &w2, &dropper});

  pull_pacer pacer(env, gbps(10));
  ndp_source_config sc;
  sc.rto = from_us(400);
  ndp_source src(env, sc, 1);
  ndp_sink snk(env, pacer, {}, 1);
  src.connect(snk, mp.set(), 0, 1, 100 * 8936, 0);
  env.events.run_until(from_ms(200));
  EXPECT_TRUE(snk.complete());
  EXPECT_TRUE(src.complete());
  EXPECT_EQ(snk.payload_received(), 100u * 8936);
  EXPECT_GT(dropper.counter, 0);
}

TEST(ndp_robustness, extreme_reordering_from_heterogeneous_paths) {
  // Paths with wildly different serialization rates: packets of one window
  // arrive many positions out of order; delivery must still be exact.
  sim_env env(9);
  fat_tree_config tc;
  tc.k = 4;
  // Alternate core links between 2.5G and 10G.
  tc.speed_override = [](link_level level, std::size_t index,
                         linkspeed_bps def) -> linkspeed_bps {
    if (level == link_level::agg_up && index % 2 == 0) return gbps(2.5);
    if (level == link_level::core_down && index % 2 == 1) return gbps(2.5);
    return def;
  };
  fat_tree ft(env, tc, ndp_factory(env));
  pull_pacer pacer(env, gbps(10));
  ndp_source_config sc;
  sc.penalty.enabled = false;  // force continued use of slow paths
  ndp_source src(env, sc, 1);
  ndp_sink snk(env, pacer, {}, 1);
  src.connect(snk, ft.paths().all(0, 15), 0, 15, 200 * 8936, 0);
  env.events.run_until(from_ms(100));
  EXPECT_TRUE(snk.complete());
  EXPECT_EQ(snk.payload_received(), 200u * 8936);
  EXPECT_EQ(snk.stats().duplicate_packets, 0u);
  EXPECT_EQ(env.pool.outstanding(), 0u);
}

TEST(ndp_robustness, many_connections_share_one_pacer_exactly) {
  // 16 concurrent flows into one host: the pacer must keep aggregate arrival
  // at the link rate and deliver every flow exactly.
  sim_env env(13);
  single_switch star(env, 17, gbps(10), from_us(1), ndp_factory(env));
  pull_pacer pacer(env, gbps(10));
  struct conn {
    conn(sim_env& e, fabric_instance& t, pull_pacer& pc, std::uint32_t s,
         std::uint32_t fid)
        : src(e, {}, fid), snk(e, pc, {}, fid) {
      src.connect(snk, t.paths().all(s, 16), s, 16, 50 * 8936, 0);
    }
    ndp_source src;
    ndp_sink snk;
  };
  std::vector<std::unique_ptr<conn>> conns;
  for (std::uint32_t s = 0; s < 16; ++s) {
    conns.push_back(std::make_unique<conn>(env, star, pacer, s, 100 + s));
  }
  env.events.run_until(from_sec(1));
  simtime_t last = 0;
  for (const auto& c : conns) {
    ASSERT_TRUE(c->snk.complete());
    EXPECT_EQ(c->snk.payload_received(), 50u * 8936);
    last = std::max(last, c->snk.completion_time());
  }
  // 16 x 50 packets of 9000B wire at 10G = 5.76ms minimum.
  EXPECT_LT(to_us(last), 7'000.0);
  EXPECT_GT(to_us(last), 5'760.0);
}

}  // namespace
}  // namespace ndpsim
