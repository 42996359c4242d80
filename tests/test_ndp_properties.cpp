// Property-style tests: protocol invariants under randomized scenarios
// (parameterized over seeds and configurations).
#include <gtest/gtest.h>

#include "net/fifo_queues.h"
#include "ndp/ndp_queue.h"
#include "ndp/ndp_sink.h"
#include "ndp/ndp_source.h"
#include "ndp/pull_pacer.h"
#include "topo/micro_topo.h"
#include "topo/path_table.h"
#include "test_util.h"

namespace ndpsim {
namespace {

queue_factory ndp_factory(sim_env& env, std::uint32_t data_pkts) {
  return [&env, data_pkts](link_level level, std::size_t, linkspeed_bps rate)
             -> std::unique_ptr<queue_base> {
    if (level == link_level::host_up) {
      return std::make_unique<host_priority_queue>(env, rate);
    }
    ndp_queue_config c;
    c.data_capacity_bytes = data_pkts * 9000ull;
    c.header_capacity_bytes = c.data_capacity_bytes;
    return std::make_unique<ndp_queue>(env, rate, c);
  };
}

struct conn {
  conn(sim_env& env, fabric_instance& topo, pull_pacer& pacer, std::uint32_t s,
       std::uint32_t d, std::uint64_t bytes, std::uint32_t fid,
       const ndp_source_config& sc, const ndp_sink_config& kc = {})
      : source(env, sc, fid), sink(env, pacer, kc, fid) {
    source.connect(sink, topo.paths().all(s, d), s, d, bytes, 0);
  }
  ndp_source source;
  ndp_sink sink;
};

class random_incast : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(random_incast, invariants_hold) {
  sim_env env(GetParam());
  const std::size_t n = 2 + env.rand_below(16);
  const std::uint64_t pkts = 1 + env.rand_below(40);
  const std::uint64_t bytes = pkts * 8936 - env.rand_below(4000);
  single_switch star(env, n + 1, gbps(10), from_us(1), ndp_factory(env, 8));
  pull_pacer pacer(env, gbps(10));
  ndp_source_config sc;
  sc.iw_packets = 1 + static_cast<std::uint32_t>(env.rand_below(30));
  std::vector<std::unique_ptr<conn>> conns;
  for (std::uint32_t s = 0; s < n; ++s) {
    conns.push_back(std::make_unique<conn>(
        env, star, pacer, s, static_cast<std::uint32_t>(n), bytes,
        1000 + s, sc));
  }
  env.events.run_all(50'000'000);

  for (const auto& c : conns) {
    // Everything completes...
    EXPECT_TRUE(c->sink.complete());
    EXPECT_TRUE(c->source.complete());
    // ...with exact payload conservation (no loss, no double count)...
    EXPECT_EQ(c->sink.payload_received(), bytes);
    // ...every send is eventually acknowledged or retransmitted...
    EXPECT_GE(c->source.stats().packets_sent, c->source.total_packets());
    // ...ACKs never exceed sends...
    EXPECT_LE(c->source.stats().acks_received,
              c->source.stats().packets_sent);
  }
  // No packet leaks anywhere in the fabric.
  EXPECT_EQ(env.pool.outstanding(), 0u);
}

INSTANTIATE_TEST_SUITE_P(seeds, random_incast,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,
                                           12));

struct sweep_cfg {
  std::uint32_t queue_pkts;
  std::uint32_t iw;
};

class queue_iw_sweep : public ::testing::TestWithParam<sweep_cfg> {};

TEST_P(queue_iw_sweep, two_flow_sharing_is_fair_and_lossless_for_metadata) {
  sim_env env(99);
  testing::attach_plane(
      env, fabric_blueprint::single_switch(3, gbps(10), from_us(1))->n_slots());
  single_switch star(env, 3, gbps(10), from_us(1),
                     ndp_factory(env, GetParam().queue_pkts));
  pull_pacer pacer(env, gbps(10));
  ndp_source_config sc;
  sc.iw_packets = GetParam().iw;
  conn a(env, star, pacer, 0, 2, 0, 1, sc);
  conn b(env, star, pacer, 1, 2, 0, 2, sc);
  env.events.run_until(from_ms(5));
  const double pa = static_cast<double>(a.sink.payload_received());
  const double pb = static_cast<double>(b.sink.payload_received());
  EXPECT_NEAR(pa / (pa + pb), 0.5, 0.06);
  // Metadata losslessness: with an ample header queue nothing is dropped.
  EXPECT_EQ(star.switch_port(2).telemetry().drop_pkts, 0u);
  // Aggregate goodput close to line rate.
  const double gb = (pa + pb) * 8 / to_sec(from_ms(5)) / 1e9;
  EXPECT_GT(gb, 8.8);
}

INSTANTIATE_TEST_SUITE_P(
    configs, queue_iw_sweep,
    ::testing::Values(sweep_cfg{2, 5}, sweep_cfg{2, 30}, sweep_cfg{4, 10},
                      sweep_cfg{8, 15}, sweep_cfg{8, 23}, sweep_cfg{8, 50},
                      sweep_cfg{16, 30}, sweep_cfg{8, 30}));

class mtu_sweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(mtu_sweep, completes_with_any_mtu) {
  const std::uint32_t mtu = GetParam();
  sim_env env(3);
  auto factory = [&env, mtu](link_level level, std::size_t, linkspeed_bps rate)
      -> std::unique_ptr<queue_base> {
    if (level == link_level::host_up) {
      return std::make_unique<host_priority_queue>(env, rate);
    }
    ndp_queue_config c;
    c.data_capacity_bytes = 8ull * mtu;
    c.header_capacity_bytes = c.data_capacity_bytes;
    return std::make_unique<ndp_queue>(env, rate, c);
  };
  single_switch star(env, 5, gbps(10), from_us(1), factory);
  pull_pacer pacer(env, gbps(10));
  ndp_source_config sc;
  sc.mss_bytes = mtu;
  ndp_sink_config kc;
  kc.mss_bytes = mtu;
  std::vector<std::unique_ptr<conn>> conns;
  const std::uint64_t bytes = 40 * (mtu - kHeaderBytes);
  for (std::uint32_t s = 0; s < 4; ++s) {
    auto c = std::make_unique<conn>(env, star, pacer, s, 4, bytes, 10 + s, sc,
                                    kc);
    conns.push_back(std::move(c));
  }
  env.events.run_all(50'000'000);
  for (const auto& c : conns) {
    EXPECT_TRUE(c->sink.complete());
    EXPECT_EQ(c->sink.payload_received(), bytes);
  }
}

INSTANTIATE_TEST_SUITE_P(mtus, mtu_sweep,
                         ::testing::Values(1500, 4500, 9000, 1064, 256));

}  // namespace
}  // namespace ndpsim
