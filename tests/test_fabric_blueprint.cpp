// Structure/state split: one immutable fabric_blueprint shared by many
// per-env fabric_instances.  Covers blueprint geometry, slot name
// formatting, structural-path interning shared across instances, mutable
// state isolation between instances of one blueprint, and serial-vs-parallel
// determinism of a sweep over a shared blueprint or private fabrics.
#include <gtest/gtest.h>

#include <set>

#include "harness/experiments.h"
#include "harness/parallel_runner.h"
#include "net/fifo_queues.h"
#include "topo/fat_tree.h"
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

TEST(fabric_blueprint, geometry_matches_fat_tree_structure) {
  auto bp = fabric_blueprint::fat_tree(ft_cfg(4));
  EXPECT_EQ(bp->n_hosts(), 16u);
  EXPECT_EQ(bp->n_tors(), 8u);
  EXPECT_EQ(bp->n_aggs(), 8u);
  EXPECT_EQ(bp->n_cores(), 4u);
  EXPECT_EQ(bp->n_paths(0, 1), 1u);    // same ToR
  EXPECT_EQ(bp->n_paths(0, 2), 2u);    // same pod, other ToR: k/2
  EXPECT_EQ(bp->n_paths(0, 15), 4u);   // inter-pod: (k/2)^2
  // 6 levels of directed links; 2 slots per link without PFC, one demux
  // slot per host.
  const std::size_t links = bp->links().size();
  EXPECT_EQ(links, 16u * 2 + 8u * 2 * 2 + 4u * 4 + 4u * 4);
  EXPECT_EQ(bp->n_slots(), links * 2 + bp->n_hosts());
}

TEST(fabric_blueprint, micro_testbeds_are_coreless_pods) {
  // Leaf-spine: one pod, leaves as ToRs and spines as aggs, no core layer.
  auto ls = fabric_blueprint::leaf_spine(4, 2, 2, gbps(10), from_us(1));
  EXPECT_EQ(ls->n_hosts(), 8u);
  EXPECT_EQ(ls->n_tors(), 4u);
  EXPECT_EQ(ls->n_aggs(), 2u);
  EXPECT_EQ(ls->n_cores(), 0u);
  EXPECT_EQ(ls->n_paths(0, 7), 2u);  // one per spine
  EXPECT_EQ(ls->links().size(), 8u * 2 + 4u * 2 * 2);
  EXPECT_EQ(ls->format_name(ls->links()[8].first_slot), "torup0.0");
  EXPECT_EQ(ls->config().k, 0u);
  // A single switch is a leaf-spine with one leaf and no spines.
  auto star = fabric_blueprint::single_switch(5, gbps(10), from_us(1));
  EXPECT_EQ(star->n_hosts(), 5u);
  EXPECT_EQ(star->n_aggs(), 0u);
  EXPECT_EQ(star->links().size(), 5u * 2);
  // Back-to-back: no switch at all, the route is the sender's NIC link.
  auto b2b = fabric_blueprint::back_to_back(gbps(10), from_us(1));
  EXPECT_EQ(b2b->n_hosts(), 2u);
  EXPECT_EQ(b2b->n_tors(), 0u);
  EXPECT_EQ(b2b->links().size(), 2u);
  std::vector<std::uint32_t> slots;
  b2b->build_path(1, 0, 0, slots);
  EXPECT_EQ(slots, (std::vector<std::uint32_t>{b2b->links()[1].first_slot,
                                               b2b->links()[1].first_slot + 1}));
  // The FatTree face refuses a blueprint that is not a FatTree.
  sim_env env;
  EXPECT_THROW(fat_tree(env, ls, droptail_factory(env)), simulation_error);
}

TEST(fabric_blueprint, pfc_links_carry_a_third_slot_except_tor_down) {
  fat_tree_config cfg = ft_cfg(4);
  cfg.pfc.enabled = true;
  auto bp = fabric_blueprint::fat_tree(cfg);
  for (const auto& l : bp->links()) {
    EXPECT_EQ(l.has_ingress, l.level != link_level::tor_down)
        << to_string(l.level);
  }
}

TEST(fabric_blueprint, speed_override_is_baked_into_link_records) {
  fat_tree_config cfg = ft_cfg(4);
  cfg.speed_override = [](link_level level, std::size_t index,
                          linkspeed_bps def) -> linkspeed_bps {
    if (level == link_level::agg_up && index == 0) return gbps(1);
    return def;
  };
  auto bp = fabric_blueprint::fat_tree(cfg);
  sim_env env;
  fat_tree ft(env, bp, droptail_factory(env));
  EXPECT_EQ(ft.queues_at(link_level::agg_up)[0]->rate(), gbps(1));
  EXPECT_EQ(ft.queues_at(link_level::agg_up)[1]->rate(), gbps(10));
}

TEST(fabric_blueprint, slot_names_format_from_link_records) {
  sim_env env;
  fat_tree ft(env, ft_cfg(4), droptail_factory(env));
  const auto* bp = ft.blueprint();
  const struct {
    link_level level;
    std::size_t index;
    const char* name;
  } cases[] = {
      {link_level::host_up, 3, "hostup3"},
      {link_level::tor_up, 3, "torup1.1"},
      {link_level::agg_up, 5, "aggup1.0.1"},
      {link_level::core_down, 6, "coredn1.2"},
      {link_level::agg_down, 7, "aggdn1.1.1"},
      {link_level::tor_down, 9, "tordn4.1"},
  };
  for (const auto& c : cases) {
    const std::uint32_t slot =
        bp->links()[bp->link_id(c.level, c.index)].first_slot;
    EXPECT_EQ(bp->format_name(slot), c.name);
    // The queue the instance built for (level, index) sits at that slot.
    EXPECT_EQ(ft.sink_table()[slot],
              static_cast<packet_sink*>(ft.queues_at(c.level)[c.index]));
  }
  // Pipe and demux slots format with their suffixes.
  EXPECT_EQ(bp->format_name(bp->links()[0].first_slot + 1), "hostup0.pipe");
  EXPECT_EQ(bp->format_name(bp->demux_slot(7)), "demux7");
}

TEST(fabric_blueprint, structural_paths_intern_once_across_instances) {
  auto bp = make_fat_tree_blueprint(4, fabric_params{});
  sim_env env_a(1), env_b(2);
  fabric_params fp;
  testbed bed_a(env_a, bp, fp);
  testbed bed_b(env_b, bp, fp);
  (void)bed_a.topo->paths().all(0, 15);
  const std::size_t after_a = bp->interned_paths();
  EXPECT_EQ(after_a, bp->n_paths(0, 15));
  // The second instance resolves the same structural paths: nothing new is
  // interned in the shared blueprint, only per-env route views.
  (void)bed_b.topo->paths().all(0, 15);
  EXPECT_EQ(bp->interned_paths(), after_a);
  EXPECT_EQ(bed_b.topo->paths().interned_paths(), after_a);
}

TEST(fabric_blueprint, instances_of_one_blueprint_never_alias_mutable_state) {
  auto bp = fabric_blueprint::fat_tree(ft_cfg(4));
  sim_env env_a(1), env_b(2);
  testing::attach_plane(env_a, bp->n_slots());
  testing::attach_plane(env_b, bp->n_slots());
  fat_tree ft_a(env_a, bp, droptail_factory(env_a));
  fat_tree ft_b(env_b, bp, droptail_factory(env_b));

  // Distinct queue objects at every level.
  for (const link_level lvl :
       {link_level::host_up, link_level::tor_up, link_level::agg_up,
        link_level::core_down, link_level::agg_down, link_level::tor_down}) {
    const auto& qa = ft_a.queues_at(lvl);
    const auto& qb = ft_b.queues_at(lvl);
    ASSERT_EQ(qa.size(), qb.size());
    for (std::size_t i = 0; i < qa.size(); ++i) EXPECT_NE(qa[i], qb[i]);
  }

  // Drive traffic through instance A only: its counters move, B's do not —
  // even though both resolve the very same structural route slots.
  testing::recording_sink dst_a(env_a);
  ft_a.paths().demux(15).bind(1, &dst_a);
  for (std::uint64_t i = 1; i <= 3; ++i) {
    packet* p = testing::make_data(env_a, ft_a.paths().forward(0, 15, 0), 9000, i);
    p->flow_id = 1;
    send_to_next_hop(*p);
  }
  env_a.events.run_all();
  EXPECT_EQ(dst_a.count(), 3u);
  EXPECT_EQ(ft_a.aggregate_stats(link_level::host_up).deq_pkts, 3u);
  EXPECT_EQ(ft_b.aggregate_stats(link_level::host_up).deq_pkts, 0u);
  for (const auto* q : ft_b.queues_at(link_level::agg_up)) {
    EXPECT_EQ(q->telemetry().enq_pkts, 0u);
  }

  // The counters then diverge independently: B counts its own traffic.
  testing::recording_sink dst_b(env_b);
  ft_b.paths().demux(15).bind(9, &dst_b);
  packet* p = testing::make_data(env_b, ft_b.paths().forward(0, 15, 0));
  p->flow_id = 9;
  send_to_next_hop(*p);
  env_b.events.run_all();
  EXPECT_EQ(ft_b.aggregate_stats(link_level::host_up).deq_pkts, 1u);
  EXPECT_EQ(ft_a.aggregate_stats(link_level::host_up).deq_pkts, 3u);
}

TEST(fabric_blueprint, shared_and_private_fabrics_produce_identical_flows) {
  // The blueprint split must be invisible to results: the same seed over a
  // shared blueprint and over a privately built fat_tree gives bitwise-equal
  // flow completions.
  fabric_params fp;
  fp.proto = protocol::ndp;
  auto run = [&fp](std::unique_ptr<testbed> bed) {
    flow_options o;
    o.bytes = 20 * 8936;
    o.max_paths = 2;
    std::vector<flow*> flows;
    for (std::uint32_t h = 0; h < 4; ++h) {
      flows.push_back(&bed->flows->create(protocol::ndp, h, 15 - h, o));
    }
    run_until_complete(bed->env, flows, from_ms(100));
    std::vector<simtime_t> fcts;
    for (flow* f : flows) {
      EXPECT_TRUE(f->complete());
      fcts.push_back(f->completion_time());
    }
    return fcts;
  };
  auto bp = make_fat_tree_blueprint(4, fp);
  auto env = std::make_unique<sim_env>(11);
  auto shared_bed = std::make_unique<testbed>(*env, bp, fp);
  const auto shared_fcts = run(std::move(shared_bed));
  const auto private_fcts = run(make_fat_tree_testbed(11, 4, fp));
  EXPECT_EQ(shared_fcts, private_fcts);
}

TEST(fabric_blueprint, parallel_sweep_over_shared_blueprint_is_deterministic) {
  // One blueprint, N jobs: parallel and serial execution must produce
  // bitwise-identical per-config FCT records (the structural table interns
  // lazily under contention in the parallel case — order differs, content
  // must not).  Jobs that each build a private fabric, serially and
  // concurrently, must match too: sharing structure leaks no state.
  fabric_params fp;
  fp.proto = protocol::ndp;
  auto bp = make_fat_tree_blueprint(4, fp);

  std::vector<experiment_config> sweep;
  for (int i = 0; i < 4; ++i) {
    sweep.push_back(experiment_config{.name = "cfg" + std::to_string(i),
                                      .seed = 100u + static_cast<unsigned>(i),
                                      .param = i});
  }
  auto make_body = [&bp, &fp](bool shared) {
    return [&bp, &fp, shared](const experiment_config& cfg, sim_env& env,
                              fct_recorder& fcts) {
      const auto bed = shared ? std::make_unique<testbed>(env, bp, fp)
                              : std::make_unique<testbed>(env, ft_cfg(4), fp);
      flow_options o;
      o.bytes = (10 + static_cast<std::uint64_t>(cfg.param)) * 8936;
      o.max_paths = 2;
      std::vector<flow*> flows;
      for (std::uint32_t h = 1; h <= 5; ++h) {
        flow_options fo = o;
        fo.start = static_cast<simtime_t>(env.rand_below(1000)) * kNanosecond;
        flows.push_back(&bed->flows->create(protocol::ndp, h, 0, fo));
      }
      run_until_complete(env, flows, from_ms(100));
      for (const auto& f : bed->flows->flows()) {
        if (f == nullptr) continue;
        fcts.flow_started(f->id, f->start_time, f->bytes);
        if (f->complete()) fcts.flow_completed(f->id, f->completion_time());
      }
    };
  };

  parallel_runner serial(1);
  parallel_runner pool(4);
  const auto a = serial.run(sweep, make_body(true));
  const auto expect_same_as_serial_shared =
      [&a](const char* arm, const std::vector<experiment_outcome>& b) {
        SCOPED_TRACE(arm);
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t i = 0; i < a.size(); ++i) {
          ASSERT_EQ(a[i].fcts.records().size(), b[i].fcts.records().size());
          for (std::size_t j = 0; j < a[i].fcts.records().size(); ++j) {
            const auto& ra = a[i].fcts.records()[j];
            const auto& rb = b[i].fcts.records()[j];
            EXPECT_EQ(ra.flow_id, rb.flow_id);
            EXPECT_EQ(ra.start, rb.start);
            EXPECT_EQ(ra.end, rb.end);
            EXPECT_EQ(ra.bytes, rb.bytes);
          }
          EXPECT_EQ(a[i].events_processed, b[i].events_processed);
          EXPECT_EQ(a[i].sim_end, b[i].sim_end);
        }
      };
  expect_same_as_serial_shared("shared blueprint, 4 threads",
                               pool.run(sweep, make_body(true)));
  expect_same_as_serial_shared("private fabrics, 1 thread",
                               serial.run(sweep, make_body(false)));
  expect_same_as_serial_shared("private fabrics, 4 threads",
                               pool.run(sweep, make_body(false)));
  // Every job completed its incast.
  for (const auto& out : a) EXPECT_EQ(out.fcts.completed(), 5u);
}

}  // namespace
}  // namespace ndpsim
