#include <gtest/gtest.h>

#include "net/fifo_queues.h"
#include "topo/fat_tree.h"
#include "topo/micro_topo.h"
#include "test_util.h"

namespace ndpsim {
namespace {

queue_factory droptail_factory(sim_env& env) {
  return [&env](link_level, std::size_t,
                linkspeed_bps rate) -> std::unique_ptr<queue_base> {
    return std::make_unique<drop_tail_queue>(env, rate, 100 * 9000);
  };
}

fat_tree_config ft_cfg(unsigned k, unsigned oversub = 1) {
  fat_tree_config c;
  c.k = k;
  c.oversubscription = oversub;
  return c;
}

TEST(fat_tree, host_and_switch_counts) {
  sim_env env;
  fat_tree ft(env, ft_cfg(4), droptail_factory(env));
  EXPECT_EQ(ft.n_hosts(), 16u);  // k^3/4
  EXPECT_EQ(ft.n_tors(), 8u);
  EXPECT_EQ(ft.n_aggs(), 8u);
  EXPECT_EQ(ft.n_cores(), 4u);
}

TEST(fat_tree, paper_topology_sizes) {
  // k=8 -> 128 hosts; k=12 -> 432 hosts (the paper's main simulation size).
  sim_env env;
  fat_tree ft8(env, ft_cfg(8), droptail_factory(env));
  EXPECT_EQ(ft8.n_hosts(), 128u);
  fat_tree ft12(env, ft_cfg(12), droptail_factory(env));
  EXPECT_EQ(ft12.n_hosts(), 432u);
}

TEST(fat_tree, oversubscription_multiplies_hosts) {
  sim_env env;
  fat_tree ft(env, ft_cfg(8, 4), droptail_factory(env));
  EXPECT_EQ(ft.n_hosts(), 512u);  // the paper's Fig 23 fabric
  EXPECT_EQ(ft.hosts_per_tor(), 16u);
}

TEST(fat_tree, path_counts_by_locality) {
  sim_env env;
  fat_tree ft(env, ft_cfg(8), droptail_factory(env));
  // Same ToR (hosts 0 and 1): one path.
  EXPECT_EQ(ft.n_paths(0, 1), 1u);
  // Same pod, different ToR: k/2 = 4 paths.
  EXPECT_EQ(ft.n_paths(0, 4), 4u);
  // Different pods: (k/2)^2 = 16 paths.
  EXPECT_EQ(ft.n_paths(0, 127), 16u);
}

TEST(fat_tree, interpod_route_has_six_queues) {
  sim_env env;
  fat_tree ft(env, ft_cfg(4), droptail_factory(env));
  auto fwd = testing::fabric_route(ft, 0, 15, 0);
  auto rev = testing::fabric_route(ft, 15, 0, 0);
  // host_up, tor_up, agg_up, core_down, agg_down, tor_down = 6 queue+pipe
  // pairs, no endpoint yet.
  EXPECT_EQ(fwd->size(), 12u);
  EXPECT_EQ(fwd->queue_hops(), 6u);
  EXPECT_EQ(rev->size(), 12u);
}

TEST(fat_tree, same_tor_route_has_two_queues) {
  sim_env env;
  fat_tree ft(env, ft_cfg(4), droptail_factory(env));
  auto fwd = testing::fabric_route(ft, 0, 1, 0);
  EXPECT_EQ(fwd->queue_hops(), 2u);
}

TEST(fat_tree, distinct_paths_use_distinct_cores) {
  sim_env env;
  fat_tree ft(env, ft_cfg(4), droptail_factory(env));
  // Collect the core_down queue pointer (element index 6) for every path.
  std::set<const packet_sink*> cores;
  for (std::size_t p = 0; p < ft.n_paths(0, 15); ++p) {
    auto fwd = testing::fabric_route(ft, 0, 15, p);
    cores.insert(&fwd->at(6));
  }
  EXPECT_EQ(cores.size(), 4u);  // (k/2)^2 distinct cores
}

TEST(fat_tree, forward_and_reverse_traverse_same_switches) {
  sim_env env;
  fat_tree ft(env, ft_cfg(4), droptail_factory(env));
  // Deliver a packet along fwd and then along rev; both must work and end
  // at the appended endpoints.
  testing::recording_sink dst(env), src(env);
  auto fwd = testing::fabric_route(ft, 2, 13, 3);
  auto rev = testing::fabric_route(ft, 13, 2, 3);
  fwd->push_back(&dst);
  rev->push_back(&src);
  packet* a = testing::make_data(env, fwd.get());
  send_to_next_hop(*a);
  packet* b = testing::make_data(env, rev.get());
  send_to_next_hop(*b);
  env.events.run_all();
  EXPECT_EQ(dst.count(), 1u);
  EXPECT_EQ(src.count(), 1u);
}

TEST(fat_tree, delivery_latency_matches_store_and_forward_math) {
  sim_env env;
  fat_tree_config cfg = ft_cfg(4);
  cfg.link_delay = from_us(1);
  fat_tree ft(env, cfg, droptail_factory(env));
  testing::recording_sink dst(env);
  auto fwd = testing::fabric_route(ft, 0, 15, 0);
  fwd->push_back(&dst);
  packet* p = testing::make_data(env, fwd.get(), 9000);
  send_to_next_hop(*p);
  env.events.run_all();
  // 6 hops x (7.2us serialization + 1us propagation) = 49.2us.
  ASSERT_EQ(dst.count(), 1u);
  EXPECT_EQ(dst.arrivals()[0].at, from_us(49.2));
}

TEST(fat_tree, speed_override_degrades_one_link) {
  sim_env env;
  fat_tree_config cfg = ft_cfg(4);
  cfg.speed_override = [](link_level level, std::size_t index,
                          linkspeed_bps def) -> linkspeed_bps {
    if (level == link_level::agg_up && index == 0) return gbps(1);
    return def;
  };
  fat_tree ft(env, cfg, [&env](link_level, std::size_t, linkspeed_bps rate) {
    return std::unique_ptr<queue_base>(
        std::make_unique<drop_tail_queue>(env, rate, 100 * 9000));
  });
  const auto& agg_up = ft.queues_at(link_level::agg_up);
  EXPECT_EQ(agg_up[0]->rate(), gbps(1));
  EXPECT_EQ(agg_up[1]->rate(), gbps(10));
}

TEST(fat_tree, host_link_speed_follows_host_up_override) {
  // A degraded NIC must report the rate it is wired at: NDP pull pacing,
  // pHost token pacing and DCQCN's line rate are all set from it.
  sim_env env;
  fat_tree_config cfg = ft_cfg(4);
  cfg.speed_override = [](link_level level, std::size_t index,
                          linkspeed_bps def) -> linkspeed_bps {
    return level == link_level::host_up && index == 3 ? gbps(1) : def;
  };
  fat_tree ft(env, cfg, droptail_factory(env));
  EXPECT_EQ(ft.host_link_speed(3),
            ft.queues_at(link_level::host_up)[3]->rate());
  EXPECT_EQ(ft.host_link_speed(3), gbps(1));
  EXPECT_EQ(ft.host_link_speed(2), gbps(10));
}

TEST(fat_tree, aggregate_stats_sum_over_level) {
  sim_env env;
  testing::attach_plane(env, fabric_blueprint::fat_tree(ft_cfg(4))->n_slots());
  fat_tree ft(env, ft_cfg(4), droptail_factory(env));
  testing::recording_sink dst(env);
  auto fwd = testing::fabric_route(ft, 0, 15, 0);
  fwd->push_back(&dst);
  for (std::uint64_t i = 1; i <= 3; ++i) {
    send_to_next_hop(*testing::make_data(env, fwd.get(), 9000, i));
  }
  env.events.run_all();
  EXPECT_EQ(ft.aggregate_stats(link_level::host_up).deq_pkts, 3u);
  EXPECT_EQ(ft.aggregate_stats(link_level::agg_up).deq_pkts, 3u);
  EXPECT_EQ(ft.aggregate_stats(link_level::tor_down).deq_pkts, 3u);
}

TEST(fat_tree, pfc_mode_inserts_ingress_elements) {
  sim_env env;
  fat_tree_config cfg = ft_cfg(4);
  cfg.pfc.enabled = true;
  fat_tree ft(env, cfg, droptail_factory(env));
  auto fwd = testing::fabric_route(ft, 0, 15, 0);
  // 6 queue+pipe pairs + 5 pfc ingress elements (none at the final host).
  EXPECT_EQ(fwd->size(), 17u);
  // Route still delivers end to end.
  testing::recording_sink dst(env);
  fwd->push_back(&dst);
  send_to_next_hop(*testing::make_data(env, fwd.get()));
  env.events.run_all();
  EXPECT_EQ(dst.count(), 1u);
}

TEST(fat_tree, k12_path_counts_match_structure) {
  // The paper's main simulation size: k=12, 432 hosts.  Path counts follow
  // the (k/2)^2 / (k/2) / 1 structure for inter-pod, intra-pod and same-ToR
  // pairs.
  sim_env env;
  fat_tree ft(env, ft_cfg(12), droptail_factory(env));
  EXPECT_EQ(ft.n_hosts(), 432u);
  EXPECT_EQ(ft.hosts_per_tor(), 6u);
  EXPECT_EQ(ft.n_paths(0, 431), 36u);  // inter-pod: (k/2)^2
  EXPECT_EQ(ft.n_paths(0, 12), 6u);    // intra-pod, different ToR: k/2
  EXPECT_EQ(ft.n_paths(0, 1), 1u);     // same ToR
}

TEST(fat_tree, k12_forward_and_reverse_traverse_partner_links) {
  // Forward and reverse of the same path index must traverse the same
  // switches: the same core, and the same (j, m) aggregation/port choice in
  // both pods — the forward direction's queues and the reverse direction's
  // queues are the two directions of the same physical links.
  sim_env env;
  fat_tree ft(env, ft_cfg(12), droptail_factory(env));
  const unsigned half_k = 6;
  const std::uint32_t src = 2;    // pod 0
  const std::uint32_t dst = 431;  // pod 11
  const unsigned pa = ft.pod_of(src);
  const unsigned pb = ft.pod_of(dst);
  auto index_of = [&](link_level level, const packet_sink* q) {
    const auto& qs = ft.queues_at(level);
    for (std::size_t i = 0; i < qs.size(); ++i) {
      if (static_cast<const packet_sink*>(qs[i]) == q) return i;
    }
    ADD_FAILURE() << "queue not found at level " << to_string(level);
    return std::size_t{0};
  };
  for (std::size_t p = 0; p < ft.n_paths(src, dst); ++p) {
    auto fwd = testing::fabric_route(ft, src, dst, p);
    auto rev = testing::fabric_route(ft, dst, src, p);
    // Queue positions on an inter-pod route: 0 host_up, 2 tor_up, 4 agg_up,
    // 6 core_down, 8 agg_down, 10 tor_down.
    const std::size_t f_agg_up = index_of(link_level::agg_up, &fwd->at(4));
    const std::size_t r_agg_up = index_of(link_level::agg_up, &rev->at(4));
    const std::size_t f_core = index_of(link_level::core_down, &fwd->at(6));
    const std::size_t r_core = index_of(link_level::core_down, &rev->at(6));
    // agg_up index = (pod*half_k + j)*half_k + m.
    const unsigned f_j = (f_agg_up / half_k) % half_k;
    const unsigned f_m = f_agg_up % half_k;
    const unsigned r_j = (r_agg_up / half_k) % half_k;
    const unsigned r_m = r_agg_up % half_k;
    EXPECT_EQ(f_agg_up / (half_k * half_k), pa);  // fwd climbs in pod a
    EXPECT_EQ(r_agg_up / (half_k * half_k), pb);  // rev climbs in pod b
    EXPECT_EQ(f_j, r_j) << "same aggregation choice both ways, path " << p;
    EXPECT_EQ(f_m, r_m) << "same core port both ways, path " << p;
    // core_down index = core*k + pod: both directions cross the SAME core,
    // each descending into the other's pod.
    EXPECT_EQ(f_core / 12, r_core / 12) << "same core switch, path " << p;
    EXPECT_EQ(f_core % 12, pb);
    EXPECT_EQ(r_core % 12, pa);
    // And the descent uses the same aggregation switch (j) on each side:
    // agg_down index = (pod*half_k + j)*half_k + tor_local.
    const std::size_t f_agg_dn = index_of(link_level::agg_down, &fwd->at(8));
    const std::size_t r_agg_dn = index_of(link_level::agg_down, &rev->at(8));
    EXPECT_EQ(f_agg_dn / (half_k * half_k), pb);
    EXPECT_EQ(r_agg_dn / (half_k * half_k), pa);
    EXPECT_EQ((f_agg_dn / half_k) % half_k, f_j);
    EXPECT_EQ((r_agg_dn / half_k) % half_k, f_j);
  }
}

TEST(back_to_back, single_nic_route) {
  sim_env env;
  back_to_back b2b(env, gbps(10), from_us(1), droptail_factory(env));
  EXPECT_EQ(b2b.n_hosts(), 2u);
  EXPECT_EQ(b2b.n_paths(0, 1), 1u);
  auto fwd = testing::fabric_route(b2b, 0, 1, 0);
  testing::recording_sink dst(env);
  fwd->push_back(&dst);
  send_to_next_hop(*testing::make_data(env, fwd.get()));
  env.events.run_all();
  ASSERT_EQ(dst.count(), 1u);
  EXPECT_EQ(dst.arrivals()[0].at, from_us(8.2));  // 7.2 serialize + 1 wire
}

TEST(single_switch, routes_through_target_port) {
  sim_env env;
  single_switch star(env, 5, gbps(10), from_us(1), droptail_factory(env));
  EXPECT_EQ(star.n_hosts(), 5u);
  auto fwd = testing::fabric_route(star, 0, 4, 0);
  EXPECT_EQ(fwd->queue_hops(), 2u);
  // The contended port object is shared between routes to the same host.
  auto fwd2 = testing::fabric_route(star, 1, 4, 0);
  EXPECT_EQ(&fwd->at(2), &fwd2->at(2));
  EXPECT_EQ(&fwd->at(2), static_cast<packet_sink*>(&star.switch_port(4)));
}

TEST(leaf_spine, paper_testbed_shape) {
  sim_env env;
  // 8 servers, four-port switches: 4 leaves x 2 hosts, 2 spines (Fig 9).
  leaf_spine ls(env, 4, 2, 2, gbps(10), from_us(1), droptail_factory(env));
  EXPECT_EQ(ls.n_hosts(), 8u);
  EXPECT_EQ(ls.n_paths(0, 2), 2u);  // via either spine
  EXPECT_EQ(ls.n_paths(0, 1), 1u);  // same leaf
  auto fwd = testing::fabric_route(ls, 0, 7, 1);
  EXPECT_EQ(fwd->queue_hops(), 4u);
  testing::recording_sink dst(env);
  fwd->push_back(&dst);
  send_to_next_hop(*testing::make_data(env, fwd.get()));
  env.events.run_all();
  EXPECT_EQ(dst.count(), 1u);
}

TEST(leaf_spine, same_leaf_skips_spine) {
  sim_env env;
  leaf_spine ls(env, 4, 2, 2, gbps(10), from_us(1), droptail_factory(env));
  auto fwd = testing::fabric_route(ls, 0, 1, 0);
  EXPECT_EQ(fwd->queue_hops(), 2u);
}

}  // namespace
}  // namespace ndpsim
