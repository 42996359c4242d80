// Cross-module integration tests: full protocols over the full FatTree with
// the real harness — small versions of the paper's headline claims.
#include <gtest/gtest.h>

#include "harness/experiments.h"
#include "workload/traffic_matrix.h"
#include "test_util.h"

namespace ndpsim {
namespace {

TEST(integration, ndp_permutation_beats_singlepath_tcp_by_a_lot) {
  flow_options o;
  fabric_params ndp_fp;
  ndp_fp.proto = protocol::ndp;
  auto ndp_bed = make_fat_tree_testbed(5, 4, ndp_fp);
  const auto ndp_res =
      run_permutation(*ndp_bed, protocol::ndp, o, from_ms(2), from_ms(4));

  fabric_params tcp_fp;
  tcp_fp.proto = protocol::tcp;
  auto tcp_bed = make_fat_tree_testbed(5, 4, tcp_fp);
  flow_options to;
  to.handshake = false;
  const auto tcp_res =
      run_permutation(*tcp_bed, protocol::tcp, to, from_ms(2), from_ms(4));

  // Fig 14's qualitative claim: per-flow ECMP TCP leaves much of the fabric
  // idle (collisions); NDP stays close to full utilization.
  EXPECT_GT(ndp_res.utilization, 0.85);
  EXPECT_LT(tcp_res.utilization, 0.85);
  EXPECT_GT(ndp_res.utilization, tcp_res.utilization + 0.10);
  // And NDP's worst flow does far better than TCP's worst flow.
  EXPECT_GT(ndp_res.flow_gbps.front(), tcp_res.flow_gbps.front());
}

TEST(integration, ndp_incast_near_optimal_dctcp_close_mptcp_poor) {
  const std::size_t n = 12;  // k=4 fat tree has 16 hosts
  const std::uint64_t bytes = 45 * 8936;
  const double opt =
      incast_optimal_us(n, bytes, 9000, gbps(10), from_us(40));

  auto run = [&](protocol proto, flow_options o) {
    fabric_params fp;
    fp.proto = proto;
    auto bed = make_fat_tree_testbed(13, 4, fp);
    const auto senders =
        incast_senders(bed->env.rng, bed->topo->n_hosts(), 1, n);
    return run_incast(*bed, proto, senders, 1, bytes, o, from_sec(5));
  };

  flow_options ndp_o;
  const auto ndp = run(protocol::ndp, ndp_o);
  flow_options tcp_o;
  tcp_o.min_rto = from_ms(10);
  const auto mptcp = run(protocol::mptcp, tcp_o);
  const auto dctcp = run(protocol::dctcp, tcp_o);

  EXPECT_EQ(ndp.completed, n);
  EXPECT_EQ(mptcp.completed, n);
  EXPECT_EQ(dctcp.completed, n);
  // Fig 16 shape: NDP within a few percent of optimal; DCTCP close behind;
  // MPTCP crippled by synchronized tail losses.
  EXPECT_LT(ndp.last_fct_us, opt * 1.25);
  EXPECT_LT(dctcp.last_fct_us, opt * 2.0);
  EXPECT_GT(mptcp.last_fct_us, ndp.last_fct_us * 1.5);
  // Fairness: NDP's fastest and slowest incast flows are close (paper: the
  // slowest takes at most ~20% longer than the fastest).
  EXPECT_LT(ndp.last_fct_us / std::max(1.0, ndp.first_fct_us), 1.6);
}

TEST(integration, trimming_is_where_the_paper_says) {
  // §3 "Congestion Control": almost all trimming happens on ToR->host
  // links; uplinks see essentially nothing under permutation traffic.
  fabric_params fp;
  fp.proto = protocol::ndp;
  sim_env env(21);
  const auto bp = make_fat_tree_blueprint(4, fp);
  testing::attach_plane(env, bp->n_slots());
  testbed bed(env, bp, fp);
  flow_options o;
  (void)run_permutation(bed, protocol::ndp, o, from_ms(2), from_ms(4));
  const auto up = bed.topo->aggregate_stats(link_level::agg_up);
  const auto down = bed.topo->aggregate_stats(link_level::tor_down);
  EXPECT_GE(down.trim_pkts + up.trim_pkts, 0u);
  if (down.trim_pkts + up.trim_pkts > 0) {
    const double up_frac =
        static_cast<double>(up.trim_pkts) /
        static_cast<double>(up.trim_pkts + down.trim_pkts);
    EXPECT_LT(up_frac, 0.2);
  }
}

TEST(integration, dcqcn_completes_incast_losslessly) {
  fabric_params fp;
  fp.proto = protocol::dcqcn;
  sim_env env(3);
  const auto bp = make_fat_tree_blueprint(4, fp);
  testing::attach_plane(env, bp->n_slots());
  testbed bed(env, bp, fp);
  const auto senders = incast_senders(env.rng, bed.topo->n_hosts(), 2, 8);
  flow_options o;
  const auto res =
      run_incast(bed, protocol::dcqcn, senders, 2, 30 * 8936, o, from_sec(5));
  EXPECT_EQ(res.completed, 8u);
  // Lossless fabric: zero drops anywhere.
  for (auto level : {link_level::tor_up, link_level::agg_up,
                     link_level::core_down, link_level::agg_down,
                     link_level::tor_down}) {
    EXPECT_EQ(bed.topo->aggregate_stats(level).drop_pkts, 0u)
        << to_string(level);
  }
}

TEST(integration, phost_worse_than_ndp_on_incast) {
  const std::size_t n = 12;
  const std::uint64_t bytes = 30 * 8936;
  auto run = [&](protocol proto) {
    fabric_params fp;
    fp.proto = proto;
    auto bed = make_fat_tree_testbed(31, 4, fp);
    const auto senders =
        incast_senders(bed->env.rng, bed->topo->n_hosts(), 5, n);
    flow_options o;
    return run_incast(*bed, proto, senders, 5, bytes, o, from_sec(10));
  };
  const auto ndp = run(protocol::ndp);
  const auto ph = run(protocol::phost);
  EXPECT_EQ(ndp.completed, n);
  EXPECT_EQ(ph.completed, n);
  // §6.2: without trimming, first-RTT drops cost pHost token timeouts.
  EXPECT_GT(ph.last_fct_us, ndp.last_fct_us * 1.3);
}

}  // namespace
}  // namespace ndpsim
