// The flow lifecycle engine: create/destroy symmetry, never-reused flow ids,
// demux shrink + stale-packet handling, and the closed-loop flow_recycler.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <vector>

#include "harness/experiments.h"
#include "harness/flow_recycler.h"
#include "net/fifo_queues.h"
#include "sim/assert.h"
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

// ---------------------------------------------------------------------------
// flow_factory create/destroy symmetry; flow ids are never reused.
// ---------------------------------------------------------------------------

TEST(flow_lifecycle, destroy_frees_slot_and_never_reuses_id) {
  fabric_params fp;
  fp.proto = protocol::ndp;
  sim_env env(3);
  const auto bp = make_fat_tree_blueprint(4, fp);
  telemetry_plane& tp = testing::attach_plane(env, bp->n_slots());
  testbed bed(env, bp, fp);
  bed.topo->paths().enable_stale_drop(env.pool);  // as the recycler does
  flow_options o;
  o.bytes = 5 * 8936;

  flow& a = bed.flows->create(protocol::ndp, 0, 15, o);
  const std::uint32_t id_a = a.id;
  run_until_complete(env, {&a}, from_ms(50));
  ASSERT_TRUE(a.complete());
  EXPECT_EQ(bed.flows->live_count(), 1u);

  // A's final ACK is still in flight when A is destroyed.
  bed.flows->destroy(a);
  EXPECT_EQ(bed.flows->live_count(), 0u);
  EXPECT_EQ(bed.flows->destroyed_count(), 1u);

  // The replacement on the same pair reuses the table slot but not the id.
  o.start = env.now();
  flow& b = bed.flows->create(protocol::ndp, 0, 15, o);
  EXPECT_NE(b.id, id_a);
  EXPECT_EQ(bed.flows->flows().size(), 1u);

  // B runs to completion on its own endpoints, and A's straggling ACK dies
  // at the demux instead of reaching B's source.
  run_until_complete(env, {&b}, env.now() + from_ms(50));
  EXPECT_TRUE(b.complete());
  EXPECT_EQ(b.payload_received(), o.bytes);
  EXPECT_EQ(tp.totals(telemetry_kind::demux).stale_drops, 1u);
}

TEST(flow_lifecycle, destroy_unbinds_demux_entries) {
  fabric_params fp;
  fp.proto = protocol::ndp;
  auto bed = make_fat_tree_testbed(5, 4, fp);
  flow_options o;
  o.bytes = 3 * 8936;
  flow& f = bed->flows->create(protocol::ndp, 0, 15, o);
  path_table& pt = bed->topo->paths();
  EXPECT_EQ(pt.demux(0).bound_count(), 1u);
  EXPECT_EQ(pt.demux(15).bound_count(), 1u);
  run_until_complete(bed->env, {&f}, from_ms(50));
  ASSERT_TRUE(f.complete());
  bed->flows->destroy(f);
  EXPECT_EQ(pt.demux(0).bound_count(), 0u);
  EXPECT_EQ(pt.demux(15).bound_count(), 0u);
}

// ---------------------------------------------------------------------------
// Stale packets for a dead flow: dropped at the demux.
// ---------------------------------------------------------------------------

TEST(flow_lifecycle, stale_packet_for_dead_flow_is_dropped_when_enabled) {
  sim_env env;
  telemetry_plane& tp = testing::attach_plane(
      env, fabric_blueprint::fat_tree(ft_cfg(4))->n_slots());
  fat_tree ft(env, ft_cfg(4), droptail_factory(env));
  ft.paths().enable_stale_drop(env.pool);
  flow_demux& d = ft.paths().demux(15);

  testing::recording_sink live_ep(env);
  d.bind(7, &live_ep);

  // A packet for an unbound (torn down) flow id dies at the demux...
  packet* stale = env.pool.alloc();
  stale->type = packet_type::ndp_ack;
  stale->flow_id = 99;
  d.receive(*stale);
  EXPECT_EQ(d.telemetry().stale_drops, 1u);
  EXPECT_EQ(tp.totals(telemetry_kind::demux).stale_drops, 1u);
  EXPECT_EQ(live_ep.count(), 0u);  // ...and is NOT handed to another flow

  // ...while a packet for the live flow still reaches its endpoint.
  packet* good = env.pool.alloc();
  good->type = packet_type::ndp_ack;
  good->flow_id = 7;
  d.receive(*good);
  EXPECT_EQ(live_ep.count(), 1u);
  EXPECT_EQ(d.telemetry().stale_drops, 1u);
  EXPECT_EQ(env.pool.outstanding(), 0u);  // both packets returned to the pool
}

TEST(flow_lifecycle, unbound_delivery_still_asserts_without_stale_policy) {
  sim_env env;
  fat_tree ft(env, ft_cfg(4), droptail_factory(env));
  flow_demux& d = ft.paths().demux(15);
  packet* p = env.pool.alloc();
  p->flow_id = 42;
  EXPECT_THROW(d.receive(*p), simulation_error);
  env.pool.release(p);
}

// ---------------------------------------------------------------------------
// Path views need no per-flow storage unless capped.
// ---------------------------------------------------------------------------

TEST(flow_lifecycle, uncapped_and_single_views_are_not_pooled) {
  sim_env env;
  fat_tree ft(env, ft_cfg(4), droptail_factory(env));
  path_table& pt = ft.paths();
  path_set one = pt.single(0, 15, 0);  // before all(): a view into the slot
  path_set all = pt.all(0, 15);
  path_set one_dense = pt.single(0, 15, 0);  // after: into the dense arrays
  const std::size_t bytes = pt.resident_bytes();

  // Repeat requests hand out the same table-owned arrays and grow nothing.
  EXPECT_EQ(pt.all(0, 15).fwd, all.fwd);
  EXPECT_EQ(pt.single(0, 15, 0).fwd, one_dense.fwd);
  EXPECT_EQ(one_dense.fwd, all.fwd);
  EXPECT_EQ(pt.resident_bytes(), bytes);

  // Both single views name the interned route pair of path 0.
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one.forward(0), all.forward(0));
  EXPECT_EQ(one.reverse(0), all.reverse(0));

  // An uncapped sample is the same cached view; caller storage stays unused.
  std::vector<const route*> storage;
  EXPECT_EQ(pt.sample(env, 0, 15, 0, storage).fwd, all.fwd);
  EXPECT_TRUE(storage.empty());
  EXPECT_EQ(pt.resident_bytes(), bytes);
}

// ---------------------------------------------------------------------------
// flow_demux shrink under churn.
// ---------------------------------------------------------------------------

TEST(flow_lifecycle, demux_table_shrinks_after_mass_unbind) {
  flow_demux d;
  struct null_sink final : packet_sink {
    void receive(packet&) override {}
  } ep;
  for (std::uint32_t i = 1; i <= 1024; ++i) d.bind(i, &ep);
  const std::size_t peak = d.table_size();
  EXPECT_GE(peak, 2048u);  // load kept <= 1/2 on the way up

  for (std::uint32_t i = 1; i <= 1019; ++i) d.unbind(i);
  EXPECT_EQ(d.bound_count(), 5u);
  // Churn must not pin the probe table at its high-water size.
  EXPECT_LE(d.table_size(), 64u);
  // The survivors are still found after the rehashes.
  for (std::uint32_t i = 1020; i <= 1024; ++i) {
    EXPECT_EQ(d.endpoint_for(i), &ep);
  }
  EXPECT_EQ(d.endpoint_for(5), nullptr);
}

// ---------------------------------------------------------------------------
// The flow_recycler: closed-loop churn end to end.
// ---------------------------------------------------------------------------

TEST(flow_lifecycle, recycler_closed_loop_holds_memory_flat) {
  fabric_params fp;
  fp.proto = protocol::ndp;
  auto bed = make_fat_tree_testbed(9, 4, fp);
  const std::size_t pop = 8;

  // Fixed pairs 0->8, 1->9, ... cycled across generations.
  std::uint64_t cursor = 0;
  auto pick = [&cursor, pop](sim_env&) {
    const std::uint32_t src = static_cast<std::uint32_t>(cursor++ % pop);
    return std::make_pair(src, static_cast<std::uint32_t>(src + pop));
  };
  // Pre-intern so the flatness check measures churn, not lazy interning.
  for (std::uint32_t s = 0; s < pop; ++s) {
    (void)bed->topo->paths().all(s, s + pop);
  }

  recycler_config rc;
  rc.proto = protocol::ndp;
  rc.opts.bytes = 5 * 8936;
  rc.opts.max_paths = 2;
  rc.linger = from_us(100);
  flow_recycler rec(bed->env, *bed->topo, *bed->flows, rc, pick);
  rec.start(pop);

  while (rec.generations() < 1 && bed->env.events.run_next_event()) {
  }
  const std::size_t warm_slots = bed->flows->flows().size();
  const std::size_t warm_bytes = bed->topo->paths().resident_bytes();

  while (rec.generations() < 5 && bed->env.events.run_next_event()) {
  }
  rec.stop();

  EXPECT_GE(rec.flows_recycled(), 4 * pop);
  EXPECT_EQ(bed->flows->flows().size(), warm_slots);
  EXPECT_EQ(bed->topo->paths().resident_bytes(), warm_bytes);
  EXPECT_LE(bed->flows->live_count(), pop + rec.lingering());

  // Per-generation FCT epochs: every completed generation recorded `pop`
  // flows, and later epochs exist (the recorder tags by generation).
  const fct_recorder& fcts = rec.fcts();
  EXPECT_GE(fcts.max_epoch(), 4u);
  EXPECT_EQ(fcts.completed_in_epoch(1), pop);
  EXPECT_EQ(fcts.completed_in_epoch(2), pop);
  EXPECT_GT(fcts.fct_us_epoch(1).size(), 0u);
}

TEST(flow_lifecycle, recycler_open_loop_poisson_arrivals_get_unique_ids) {
  fabric_params fp;
  fp.proto = protocol::tcp;
  auto bed = make_fat_tree_testbed(10, 4, fp);

  auto pick = [](sim_env& env) {
    const auto src = static_cast<std::uint32_t>(env.rand_below(8));
    return std::make_pair(src, static_cast<std::uint32_t>(src + 8));
  };
  recycler_config rc;
  rc.proto = protocol::tcp;
  rc.opts.bytes = 2 * 8936;
  rc.opts.handshake = false;
  rc.linger = from_us(100);
  rc.open_rate_per_sec = 200'000;  // ~one arrival per 5us
  rc.max_starts = 60;
  flow_recycler rec(bed->env, *bed->topo, *bed->flows, rc, pick);
  rec.start(4);

  bed->env.events.run_until(from_ms(20));
  rec.stop();
  bed->env.events.run_until(from_ms(40));

  EXPECT_EQ(rec.flows_started(), 60u);
  EXPECT_GE(rec.fcts().completed(), 55u);  // nearly all arrivals finished
  EXPECT_GE(rec.flows_recycled(), 50u);
  // Slots are recycled, ids are not: every completed transfer has its own.
  std::set<std::uint32_t> ids;
  for (const fct_recorder::record& r : rec.fcts().records()) {
    EXPECT_TRUE(ids.insert(r.flow_id).second) << "id reused: " << r.flow_id;
  }
}

// Closed-loop churn on k=4: four slots cycling hosts 0-3 -> 8-11 until
// `max_starts` flows have started.  `shuffle_pool` first releases 4096
// packets into the pool's free list in seeded random order.
struct churn_result {
  std::uint64_t started, recycled, events;
  std::vector<fct_recorder::record> fcts;
};

churn_result churn_k4(protocol proto, std::uint64_t max_starts,
                      std::uint64_t bytes, bool shuffle_pool = false) {
  fabric_params fp;
  fp.proto = proto;
  auto bed = make_fat_tree_testbed(11, 4, fp);
  if (shuffle_pool) {
    std::vector<packet*> ps(4096);
    for (packet*& p : ps) p = bed->env.pool.alloc();
    std::shuffle(ps.begin(), ps.end(), std::mt19937(7));
    for (packet* p : ps) bed->env.pool.release(p);
  }
  std::uint64_t cursor = 0;
  auto pick = [&cursor](sim_env&) {
    const std::uint32_t src = static_cast<std::uint32_t>(cursor++ % 4);
    return std::make_pair(src, static_cast<std::uint32_t>(src + 8));
  };
  recycler_config rc;
  rc.proto = proto;
  rc.opts.bytes = bytes;
  rc.opts.subflows = 2;
  rc.linger = from_us(200);
  rc.max_starts = max_starts;
  flow_recycler rec(bed->env, *bed->topo, *bed->flows, rc, pick);
  rec.start(4);
  bed->env.events.run_until(from_ms(400));
  return {rec.flows_started(), rec.flows_recycled(),
          bed->env.events.events_processed(), rec.fcts().records()};
}

TEST(flow_lifecycle, recycler_works_for_every_transport) {
  for (protocol proto : {protocol::ndp, protocol::tcp, protocol::dctcp,
                         protocol::mptcp, protocol::dcqcn, protocol::phost}) {
    const churn_result r = churn_k4(proto, 12, 3 * 8936);
    EXPECT_EQ(r.started, 12u) << to_string(proto);
    EXPECT_GE(r.recycled, 8u) << to_string(proto);
    EXPECT_EQ(r.fcts.size(), 12u) << to_string(proto);
  }
}

TEST(flow_lifecycle, results_do_not_depend_on_pool_free_list_order) {
  // Nothing may key on packet addresses: the same churn (five generations)
  // on a fresh pool and on a shuffled one must match record for record.
  for (protocol proto : {protocol::ndp, protocol::dctcp}) {
    const churn_result fresh = churn_k4(proto, 20, 20 * 8936);
    const churn_result shuffled = churn_k4(proto, 20, 20 * 8936, true);
    EXPECT_EQ(fresh.fcts.size(), 20u) << to_string(proto);
    EXPECT_EQ(fresh.fcts, shuffled.fcts) << to_string(proto);
    EXPECT_EQ(fresh.events, shuffled.events) << to_string(proto);
  }
}

}  // namespace
}  // namespace ndpsim
