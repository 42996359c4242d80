#include <gtest/gtest.h>

#include "harness/experiments.h"
#include "net/fifo_queues.h"
#include "ndp/ndp_queue.h"
#include "workload/traffic_matrix.h"

namespace ndpsim {
namespace {

TEST(queue_factory_harness, builds_protocol_specific_queues) {
  sim_env env;
  fabric_params p;
  p.proto = protocol::ndp;
  auto f = make_queue_factory(env, p);
  auto host = f(link_level::host_up, 0, gbps(10));
  auto sw = f(link_level::tor_down, 0, gbps(10));
  EXPECT_EQ(host->buffered_packets(), 0u);
  // NDP switch queue trims rather than drops.
  EXPECT_NE(dynamic_cast<ndp_queue*>(sw.get()), nullptr);

  p.proto = protocol::dctcp;
  auto f2 = make_queue_factory(env, p);
  auto sw2 = f2(link_level::agg_up, 0, gbps(10));
  EXPECT_NE(dynamic_cast<ecn_threshold_queue*>(sw2.get()), nullptr);
}

TEST(queue_factory_harness, lossless_only_for_dcqcn) {
  EXPECT_TRUE(fabric_is_lossless(protocol::dcqcn));
  EXPECT_FALSE(fabric_is_lossless(protocol::ndp));
  EXPECT_FALSE(fabric_is_lossless(protocol::tcp));
  fabric_params p;
  p.proto = protocol::dcqcn;
  EXPECT_TRUE(default_pfc(p).enabled);
  p.proto = protocol::mptcp;
  EXPECT_FALSE(default_pfc(p).enabled);
}

TEST(flow_factory_harness, creates_and_tracks_all_protocols) {
  for (protocol proto :
       {protocol::ndp, protocol::tcp, protocol::dctcp, protocol::mptcp,
        protocol::dcqcn, protocol::phost}) {
    fabric_params fp;
    fp.proto = proto;
    auto bed = make_fat_tree_testbed(1, 4, fp);
    flow_options o;
    o.bytes = 30 * 8936;
    o.subflows = 4;
    flow& f = bed->flows->create(proto, 0, 12, o);
    run_until_complete(bed->env, {&f}, from_sec(3));
    EXPECT_TRUE(f.complete()) << "protocol " << to_string(proto);
    EXPECT_EQ(f.payload_received(), o.bytes) << to_string(proto);
    EXPECT_GT(f.fct_us(), 0.0) << to_string(proto);
    EXPECT_EQ(bed->flows->completed_count(), 1u);
  }
}

TEST(experiments, small_ndp_permutation_is_efficient) {
  fabric_params fp;
  fp.proto = protocol::ndp;
  auto bed = make_fat_tree_testbed(7, 4, fp);
  flow_options o;  // unbounded
  auto res = run_permutation(*bed, protocol::ndp, o, from_ms(2), from_ms(4));
  EXPECT_EQ(res.flow_gbps.size(), 16u);
  EXPECT_GT(res.utilization, 0.85);
  // Fairness: worst flow not starved.
  EXPECT_GT(res.flow_gbps.front(), 5.0);
}

TEST(experiments, incast_runner_reports_ndp_stats) {
  fabric_params fp;
  fp.proto = protocol::ndp;
  auto bed = make_fat_tree_testbed(9, 4, fp);
  const auto senders = incast_senders(bed->env.rng, bed->topo->n_hosts(), 0, 10);
  flow_options o;
  auto res =
      run_incast(*bed, protocol::ndp, senders, 0, 30 * 8936, o, from_sec(2));
  EXPECT_EQ(res.completed, 10u);
  EXPECT_GT(res.packets_sent, 0u);
  EXPECT_GT(res.last_fct_us, 0.0);
  EXPECT_GE(res.last_fct_us, res.first_fct_us);
}

TEST(experiments, incast_optimal_formula) {
  // 10 senders x 90000 payload bytes at 10G: wire = 90000 + ~11 headers
  // each; drain ~ 10*90704*8/10G = 725.6us plus the one-way latency.
  const double t = incast_optimal_us(10, 90000, 9000, gbps(10), from_us(10));
  EXPECT_NEAR(t, 725.6 + 10.0, 2.0);
}

TEST(experiments, ndp_beats_optimal_never) {
  fabric_params fp;
  fp.proto = protocol::ndp;
  auto bed = make_fat_tree_testbed(11, 4, fp);
  const auto senders = incast_senders(bed->env.rng, bed->topo->n_hosts(), 3, 8);
  flow_options o;
  auto res =
      run_incast(*bed, protocol::ndp, senders, 3, 50 * 8936, o, from_sec(2));
  const double opt = incast_optimal_us(8, 50 * 8936, 9000, gbps(10),
                                       /*one way ~4 hops*/ from_us(33));
  EXPECT_EQ(res.completed, 8u);
  EXPECT_GT(res.last_fct_us, opt * 0.98);
  // And NDP should be within ~15% of optimal on this small incast.
  EXPECT_LT(res.last_fct_us, opt * 1.15);
}

}  // namespace
}  // namespace ndpsim
