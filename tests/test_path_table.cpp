// The interned path table: shared routes, per-host demux delivery, subset
// sampling and the reverse-pointer invariant.
#include <gtest/gtest.h>

#include <set>

#include "harness/experiments.h"
#include "net/fifo_queues.h"
#include "tcp/tcp_sink.h"
#include "tcp/tcp_source.h"
#include "topo/fat_tree.h"
#include "topo/micro_topo.h"
#include "topo/path_table.h"
#include "test_util.h"

namespace ndpsim {
namespace {

queue_factory droptail_factory(sim_env& env) {
  return [&env](link_level, std::size_t,
                linkspeed_bps rate) -> std::unique_ptr<queue_base> {
    return std::make_unique<drop_tail_queue>(env, rate, 100 * 9000);
  };
}

fat_tree_config ft_cfg(unsigned k) {
  fat_tree_config c;
  c.k = k;
  return c;
}

TEST(path_table, two_flows_on_same_pair_get_pointer_identical_routes) {
  sim_env env;
  fat_tree ft(env, ft_cfg(4), droptail_factory(env));
  path_set a = ft.paths().all(0, 15);
  path_set b = ft.paths().all(0, 15);
  ASSERT_EQ(a.size(), ft.n_paths(0, 15));
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.fwd, b.fwd);  // the very same cached arrays
  for (std::size_t p = 0; p < a.size(); ++p) {
    EXPECT_EQ(a.forward(p), b.forward(p));
    EXPECT_EQ(a.reverse(p), b.reverse(p));
  }
  // Each (src, dst, path) was built exactly once.
  EXPECT_EQ(ft.paths().interned_paths(), ft.n_paths(0, 15));
}

TEST(path_table, flow_factory_shares_routes_between_flows) {
  fabric_params fp;
  fp.proto = protocol::ndp;
  auto bed = make_fat_tree_testbed(3, 4, fp);
  flow_options o;
  o.bytes = 5 * 8936;
  bed->flows->create(protocol::ndp, 0, 15, o);
  const std::size_t after_first = bed->topo->paths().interned_paths();
  bed->flows->create(protocol::ndp, 0, 15, o);
  // The second flow on the pair interned nothing new.
  EXPECT_EQ(bed->topo->paths().interned_paths(), after_first);
  bed->env.events.run_until(from_ms(50));
  EXPECT_EQ(bed->flows->completed_count(), 2u);
}

TEST(path_table, interned_route_appends_demux_terminal) {
  sim_env env;
  fat_tree ft(env, ft_cfg(4), droptail_factory(env));
  auto raw_fwd = testing::fabric_route(ft, 0, 15, 0);
  const route* fwd = ft.paths().forward(0, 15, 0);
  // The blueprint's hops over this instance's sinks, plus the demux
  // terminal where an endpoint would go.
  ASSERT_EQ(fwd->size(), raw_fwd->size() + 1);
  EXPECT_EQ(fwd->queue_hops(), raw_fwd->queue_hops());
  for (std::size_t i = 0; i < raw_fwd->size(); ++i) {
    EXPECT_EQ(&fwd->at(i), &raw_fwd->at(i));
  }
  EXPECT_EQ(&fwd->at(fwd->size() - 1),
            static_cast<packet_sink*>(&ft.paths().demux(15)));
}

TEST(path_table, demux_delivers_to_bound_endpoint_by_flow_id) {
  sim_env env;
  fat_tree ft(env, ft_cfg(4), droptail_factory(env));
  testing::recording_sink ep(env);
  ft.paths().demux(15).bind(7, &ep);
  packet* p = testing::make_data(env, ft.paths().forward(0, 15, 2));
  p->flow_id = 7;
  send_to_next_hop(*p);
  env.events.run_all();
  EXPECT_EQ(ep.count(), 1u);
  // An unbound flow id at the terminal is an invariant violation.
  packet* q = testing::make_data(env, ft.paths().forward(0, 15, 2));
  q->flow_id = 9;
  EXPECT_THROW(
      {
        send_to_next_hop(*q);
        env.events.run_all();
      },
      simulation_error);
  ft.paths().demux(15).unbind(7);
  EXPECT_EQ(ft.paths().demux(15).endpoint_for(7), nullptr);
}

TEST(path_table, reverse_pointers_are_reciprocal_and_co_interned) {
  sim_env env;
  fat_tree ft(env, ft_cfg(4), droptail_factory(env));
  for (std::size_t p = 0; p < ft.n_paths(2, 13); ++p) {
    const route* f = ft.paths().forward(2, 13, p);
    const route* r = ft.paths().reverse(2, 13, p);
    ASSERT_NE(f, nullptr);
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(f->reverse(), r);
    EXPECT_EQ(r->reverse(), f);
    EXPECT_EQ(f->reverse()->reverse(), f);
  }
}

TEST(path_table, sample_draws_random_subset_not_first_n) {
  sim_env env(5);
  fat_tree ft(env, ft_cfg(8), droptail_factory(env));  // 16 inter-pod paths
  const std::uint32_t dst = 127;
  const std::size_t n = ft.n_paths(0, dst);
  ASSERT_EQ(n, 16u);

  // Across many draws the union must reach beyond the first 4 indices (the
  // old truncation always returned paths {0,1,2,3}).
  std::set<const route*> first_four;
  for (std::size_t p = 0; p < 4; ++p) {
    first_four.insert(ft.paths().forward(0, dst, p));
  }
  bool beyond_first_four = false;
  bool subsets_differ = false;
  std::vector<const route*> storage, prev;
  for (int trial = 0; trial < 20; ++trial) {
    path_set ps = ft.paths().sample(env, 0, dst, 4, storage);
    ASSERT_EQ(ps.size(), 4u);
    std::set<const route*> distinct;
    for (std::size_t i = 0; i < ps.size(); ++i) {
      distinct.insert(ps.forward(i));
      if (first_four.count(ps.forward(i)) == 0) beyond_first_four = true;
    }
    EXPECT_EQ(distinct.size(), 4u) << "sampled paths must be distinct";
    if (trial > 0) {
      for (std::size_t i = 0; i < 4; ++i) {
        if (prev[i] != ps.forward(i)) subsets_differ = true;
      }
    }
    prev = storage;  // forward routes come first
  }
  EXPECT_TRUE(beyond_first_four)
      << "subset sampling still truncates to the low path indices";
  // Two flows on the same pair can get different subsets.
  EXPECT_TRUE(subsets_differ);
  // Sampled routes are still the interned ones (shared, not copies).
  path_set ps = ft.paths().sample(env, 0, dst, 4, storage);
  path_set full = ft.paths().all(0, dst);
  for (std::size_t i = 0; i < ps.size(); ++i) {
    bool found = false;
    for (std::size_t j = 0; j < full.size(); ++j) {
      if (ps.forward(i) == full.forward(j)) found = true;
    }
    EXPECT_TRUE(found);
  }
}

TEST(path_table, sample_is_deterministic_under_the_seed) {
  auto draw = [](std::uint64_t seed) {
    sim_env env(seed);
    fat_tree ft(env, ft_cfg(8), droptail_factory(env));
    std::vector<const route*> storage;
    path_set ps = ft.paths().sample(env, 0, 127, 4, storage);
    // Compare by structural identity across environments: the index of each
    // path's core_down queue within its level.
    const auto& cores_at = ft.queues_at(link_level::core_down);
    std::vector<std::size_t> cores;
    for (std::size_t i = 0; i < ps.size(); ++i) {
      const packet_sink* q = &ps.forward(i)->at(6);
      for (std::size_t j = 0; j < cores_at.size(); ++j) {
        if (static_cast<const packet_sink*>(cores_at[j]) == q) {
          cores.push_back(j);
        }
      }
    }
    return cores;
  };
  EXPECT_EQ(draw(42), draw(42));
  EXPECT_NE(draw(42), draw(43));
}

TEST(path_table, sample_of_zero_or_all_returns_cached_full_set) {
  sim_env env(1);
  fat_tree ft(env, ft_cfg(4), droptail_factory(env));
  path_set full = ft.paths().all(0, 15);
  std::vector<const route*> storage;
  path_set s0 = ft.paths().sample(env, 0, 15, 0, storage);
  path_set s_all = ft.paths().sample(env, 0, 15, 99, storage);
  EXPECT_EQ(s0.fwd, full.fwd);
  EXPECT_EQ(s_all.fwd, full.fwd);
  EXPECT_EQ(s0.size(), full.size());
  // The cached set is returned as is: the caller's storage stays untouched.
  EXPECT_TRUE(storage.empty());
}

TEST(path_table, single_returns_view_into_pair_arrays) {
  sim_env env;
  single_switch star(env, 4, gbps(10), from_us(1), droptail_factory(env));
  path_set one = star.paths().single(1, 2, 0);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one.forward(0), star.paths().forward(1, 2, 0));
  EXPECT_EQ(one.forward(0)->reverse(), one.reverse(0));
}

TEST(path_table, arena_resident_bytes_accounts_for_interned_state) {
  sim_env env;
  fat_tree ft(env, ft_cfg(4), droptail_factory(env));
  (void)ft.paths().all(0, 15);
  const std::size_t bytes = ft.paths().resident_bytes();
  const std::size_t interned = ft.paths().interned_paths();
  EXPECT_GT(bytes, 0u);
  EXPECT_EQ(interned, ft.n_paths(0, 15));
  // Re-requesting the pair interns nothing and allocates no new state.
  (void)ft.paths().all(0, 15);
  EXPECT_EQ(ft.paths().resident_bytes(), bytes);
  EXPECT_EQ(ft.paths().interned_paths(), interned);
}

TEST(path_table, transport_unbinds_from_demux_on_destruction) {
  sim_env env;
  back_to_back b2b(env, gbps(10), from_us(1),
                   [&env](link_level, std::size_t, linkspeed_bps rate)
                       -> std::unique_ptr<queue_base> {
                     return std::make_unique<host_priority_queue>(env, rate);
                   });
  {
    tcp_config cfg;
    cfg.handshake = false;
    tcp_source src(env, cfg, 3);
    tcp_sink snk(env, 3);
    src.connect(snk, b2b.paths().single(0, 1, 0), 0, 1, 8936, 0);
    env.events.run_all();
    EXPECT_TRUE(src.complete());
    EXPECT_NE(b2b.paths().demux(1).endpoint_for(3), nullptr);
  }
  EXPECT_EQ(b2b.paths().demux(1).endpoint_for(3), nullptr);
  EXPECT_EQ(b2b.paths().demux(0).endpoint_for(3), nullptr);
}

}  // namespace
}  // namespace ndpsim
