// Conservation-law suite for the telemetry plane.
//
// The counters are only worth their (near-)zero cost if they are *accurate*,
// so every law here is an exact integer identity, not a tolerance check:
//  * queue packets:  enq == deq + dropped + bounced + resident
//  * queue bytes:    enq == deq + dropped + bounced + trimmed-away + resident
//    (a trimmed packet stays resident at header size; `trim_bytes` is the
//    payload removed in place)
//  * pipe:           enq == deq once the wire drained (pipes never drop)
//  * demux:          enq == deq-to-endpoint + stale drops
// and the merge law: a parallel_runner sweep's merged plane is bitwise equal
// to the serial run's, however the jobs were scheduled.  The plane is the
// only counter store, so the resident terms (read from the queues'
// buffers, not from any counter) are what make these laws an oracle.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "harness/experiments.h"
#include "harness/parallel_runner.h"
#include "stats/fct_summary.h"
#include "stats/telemetry_json.h"
#include "topo/path_table.h"
#include "workload/traffic_matrix.h"
#include "test_util.h"

namespace ndpsim {
namespace {

constexpr link_level kLevels[] = {link_level::host_up,   link_level::tor_up,
                                  link_level::agg_up,    link_level::core_down,
                                  link_level::agg_down,  link_level::tor_down};

// A testbed with an armed telemetry plane: the plane must exist on the env
// before the fabric is stamped out (components cache their slot pointer at
// construction), and it must be sized to the blueprint's slot table.
struct tele_bed {
  sim_env env;
  std::shared_ptr<const fabric_blueprint> bp;
  std::unique_ptr<testbed> bed;

  tele_bed(std::uint64_t seed, unsigned k, const fabric_params& fp)
      : env(seed), bp(make_fat_tree_blueprint(k, fp)) {
    env.telemetry = std::make_shared<telemetry_plane>(bp->n_slots(), bp.get());
    bed = std::make_unique<testbed>(env, bp, fp);
  }

  [[nodiscard]] telemetry_plane& plane() { return *env.telemetry; }
};

// The queue laws hold at ANY instant (resident terms absorb what is still
// inside), so they are checked without requiring the run to have drained.
void expect_queue_conservation(const fabric_instance& fabric) {
  for (const link_level lvl : kLevels) {
    for (const queue_base* q : fabric.queues_at(lvl)) {
      ASSERT_TRUE(q->telemetry_armed())
          << "queue not armed at level " << to_string(lvl);
      const telemetry_counters c = q->telemetry();
      const std::uint64_t resident_pkts =
          q->buffered_packets() + (q->busy() ? 1 : 0);
      EXPECT_EQ(c.enq_pkts,
                c.deq_pkts + c.drop_pkts + c.bounce_pkts + resident_pkts)
          << "packet conservation violated at " << to_string(lvl);
      const std::uint64_t resident_bytes =
          q->buffered_bytes() + q->serving_bytes();
      EXPECT_EQ(c.enq_bytes, c.deq_bytes + c.drop_bytes + c.bounce_bytes +
                                 c.trim_bytes + resident_bytes)
          << "byte conservation violated at " << to_string(lvl);
    }
  }
}

// Pipe law needs a drained wire; demux law holds at any instant.
void expect_pipe_and_demux_conservation(fabric_instance& fabric,
                                        const telemetry_plane& plane) {
  std::uint64_t pipe_pkts = 0;
  for (std::uint32_t slot = 0; slot < plane.n_slots(); ++slot) {
    const auto& info = plane.info(slot);
    if (!info.armed || info.kind != telemetry_kind::pipe) continue;
    const telemetry_counters c = plane.counters(slot);
    EXPECT_EQ(c.enq_pkts, c.deq_pkts)
        << "pipe " << plane.slot_name(slot) << " not conserved";
    EXPECT_EQ(c.enq_bytes, c.deq_bytes)
        << "pipe " << plane.slot_name(slot) << " not conserved";
    pipe_pkts += c.enq_pkts;
  }
  EXPECT_GT(pipe_pkts, 0u) << "workload never touched a pipe";

  std::uint64_t delivered = 0;
  for (std::uint32_t h = 0; h < fabric.n_hosts(); ++h) {
    flow_demux& d = fabric.paths().demux(h);
    ASSERT_TRUE(d.telemetry_armed()) << "demux " << h << " not armed";
    const telemetry_counters c = d.telemetry();
    EXPECT_EQ(c.enq_pkts, c.deq_pkts + c.stale_drops) << "demux " << h;
    delivered += c.enq_pkts;
  }
  EXPECT_GT(delivered, 0u) << "workload never reached a demux";
}

// Run a seeded k=4 permutation to completion on a telemetry-armed testbed,
// then drain the event loop so the pipe law can be exact.
void run_permutation_workload(tele_bed& tb, protocol proto) {
  const auto matrix =
      permutation_matrix(tb.env.rng, tb.bed->topo->n_hosts());
  std::vector<flow*> flows;
  flow_options o;
  o.bytes = 90'000;
  for (std::uint32_t h = 0; h < tb.bed->topo->n_hosts(); ++h) {
    flow_options fo = o;
    fo.start = static_cast<simtime_t>(tb.env.rand_below(1000)) * kNanosecond;
    flows.push_back(&tb.bed->flows->create(proto, h, matrix[h], fo));
  }
  run_until_complete(tb.env, flows, from_ms(500));
  for (const flow* f : flows) ASSERT_TRUE(f->complete());
  tb.env.events.run_until(from_ms(600));  // drain in-flight control traffic
}

class telemetry_conservation : public ::testing::TestWithParam<protocol> {};

TEST_P(telemetry_conservation, permutation_conserves_every_component) {
  fabric_params fp;
  fp.proto = GetParam();
  tele_bed tb(7, 4, fp);
  run_permutation_workload(tb, GetParam());
  expect_queue_conservation(*tb.bed->topo);
  expect_pipe_and_demux_conservation(*tb.bed->topo, tb.plane());
}

INSTANTIATE_TEST_SUITE_P(all_transports, telemetry_conservation,
                         ::testing::Values(protocol::ndp, protocol::tcp,
                                           protocol::dctcp, protocol::mptcp,
                                           protocol::dcqcn, protocol::phost),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

// The same laws on the paper's 8-server leaf-spine testbed (Fig 9): a 7:1
// incast into host 0, with the plane sized from the leaf-spine blueprint and
// the fabric instantiated over it — the micro testbeds are blueprints too,
// so every queue, pipe and demux arms exactly as on a FatTree.
class telemetry_leaf_spine : public ::testing::TestWithParam<protocol> {};

TEST_P(telemetry_leaf_spine, incast_conserves_every_component) {
  fabric_params fp;
  fp.proto = GetParam();
  sim_env env(7);
  const auto bp = fabric_blueprint::leaf_spine(4, 2, 2, gbps(10), from_us(1));
  env.telemetry = std::make_shared<telemetry_plane>(bp->n_slots(), bp.get());
  fabric_instance fabric(env, bp, make_queue_factory(env, fp));
  flow_factory factory(env, fabric);
  std::vector<flow*> flows;
  for (std::uint32_t h = 1; h < fabric.n_hosts(); ++h) {
    flow_options o;
    o.bytes = 90'000;
    o.start = static_cast<simtime_t>(env.rand_below(1000)) * kNanosecond;
    flows.push_back(&factory.create(GetParam(), h, 0, o));
  }
  run_until_complete(env, flows, from_ms(500));
  for (const flow* f : flows) ASSERT_TRUE(f->complete());
  env.events.run_until(from_ms(600));  // drain in-flight control traffic

  // 8 NICs, 8 leaf uplinks, 8 spine downlinks, 8 leaf ports; 8 demuxes.
  std::size_t n_queues = 0;
  std::uint64_t trims = 0;
  for (const link_level lvl : kLevels) {
    n_queues += fabric.queues_at(lvl).size();
    for (const queue_base* q : fabric.queues_at(lvl)) {
      trims += q->telemetry().trim_pkts;
    }
  }
  EXPECT_EQ(n_queues, 32u);
  ASSERT_EQ(fabric.n_hosts(), 8u);
  expect_queue_conservation(fabric);
  expect_pipe_and_demux_conservation(fabric, *env.telemetry);
  if (GetParam() == protocol::ndp) {
    EXPECT_GT(trims, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(all_transports, telemetry_leaf_spine,
                         ::testing::Values(protocol::ndp, protocol::tcp,
                                           protocol::dctcp, protocol::mptcp,
                                           protocol::dcqcn, protocol::phost),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

// NDP incast: the scenario that actually exercises the trim arm of the byte
// law (header-size residue, payload accounted by trim_bytes) and, with RTS
// on, the bounce arm too.
TEST(telemetry_conservation_incast, ndp_incast_conserves_with_trims) {
  fabric_params fp;
  fp.proto = protocol::ndp;
  tele_bed tb(11, 4, fp);
  std::vector<std::uint32_t> senders;
  for (std::uint32_t h = 0; h < 12; ++h) senders.push_back(h);
  const auto r = run_incast(*tb.bed, protocol::ndp, senders, /*receiver=*/15,
                            /*bytes=*/90'000, flow_options{}, from_ms(200));
  ASSERT_EQ(r.completed, senders.size());
  tb.env.events.run_until(from_ms(300));

  expect_queue_conservation(*tb.bed->topo);
  expect_pipe_and_demux_conservation(*tb.bed->topo, tb.plane());

  // The incast must have trimmed somewhere (that's the NDP mechanism under
  // test) — and the per-level sums must add up to the per-queue ones.
  std::uint64_t trims = 0;
  for (const link_level lvl : kLevels) {
    for (const queue_base* q : tb.bed->topo->queues_at(lvl)) {
      trims += q->telemetry().trim_pkts;
    }
  }
  EXPECT_GT(trims, 0u);
  EXPECT_EQ(trims, tb.bed->topo->aggregate_stats(link_level::host_up).trim_pkts +
                       tb.bed->topo->aggregate_stats(link_level::tor_up).trim_pkts +
                       tb.bed->topo->aggregate_stats(link_level::agg_up).trim_pkts +
                       tb.bed->topo->aggregate_stats(link_level::core_down).trim_pkts +
                       tb.bed->topo->aggregate_stats(link_level::agg_down).trim_pkts +
                       tb.bed->topo->aggregate_stats(link_level::tor_down).trim_pkts);
}

// DCTCP incast: exercises the ECN-mark counter.
TEST(telemetry_conservation_incast, dctcp_incast_counts_ecn_marks) {
  fabric_params fp;
  fp.proto = protocol::dctcp;
  tele_bed tb(13, 4, fp);
  std::vector<std::uint32_t> senders;
  for (std::uint32_t h = 0; h < 12; ++h) senders.push_back(h);
  const auto r = run_incast(*tb.bed, protocol::dctcp, senders, /*receiver=*/15,
                            /*bytes=*/90'000, flow_options{}, from_ms(200));
  ASSERT_EQ(r.completed, senders.size());
  tb.env.events.run_until(from_ms(300));

  expect_queue_conservation(*tb.bed->topo);
  std::uint64_t marks = 0;
  for (const link_level lvl : kLevels) {
    for (const queue_base* q : tb.bed->topo->queues_at(lvl)) {
      marks += q->telemetry().mark_pkts;
    }
  }
  EXPECT_GT(marks, 0u) << "12:1 incast should cross the ECN threshold";
}

// ---------------------------------------------------------------------------
// Merge law: a sweep's merged telemetry is a pure function of its configs —
// bitwise equal run serially or on 4 threads.
// ---------------------------------------------------------------------------

TEST(telemetry_parallel, merged_plane_bitwise_equal_serial_vs_threaded) {
  fabric_params fp;
  fp.proto = protocol::ndp;
  const auto bp = make_fat_tree_blueprint(4, fp);

  std::vector<experiment_config> cfgs;
  for (int i = 0; i < 4; ++i) {
    cfgs.push_back(experiment_config{"job" + std::to_string(i),
                                     static_cast<std::uint64_t>(100 + i)});
  }
  const experiment_fn body = [&](const experiment_config& cfg, sim_env& env,
                                 fct_recorder& fcts) {
    (void)fcts;
    env.telemetry =
        std::make_shared<telemetry_plane>(bp->n_slots(), bp.get());
    testbed bed(env, bp, fp);
    const auto matrix = permutation_matrix(env.rng, bed.topo->n_hosts());
    std::vector<flow*> flows;
    flow_options o;
    o.bytes = 30'000;
    for (std::uint32_t h = 0; h < bed.topo->n_hosts(); ++h) {
      flow_options fo = o;
      fo.start = static_cast<simtime_t>(env.rand_below(1000)) * kNanosecond;
      flows.push_back(&bed.flows->create(protocol::ndp, h, matrix[h], fo));
    }
    run_until_complete(env, flows, from_ms(200));
    (void)cfg;
  };

  const auto serial = parallel_runner(1).run(cfgs, body);
  const auto threaded = parallel_runner(4).run(cfgs, body);
  const auto merged_serial = merge_telemetry(serial);
  const auto merged_threaded = merge_telemetry(threaded);
  ASSERT_NE(merged_serial, nullptr);
  ASSERT_NE(merged_threaded, nullptr);
  EXPECT_TRUE(merged_serial->counters_equal(*merged_threaded));

  // The merge actually accumulated: 4 jobs' worth of traffic, not 1.
  std::uint64_t merged_enq = 0, one_job_enq = 0;
  for (std::uint32_t s = 0; s < merged_serial->n_slots(); ++s) {
    merged_enq += merged_serial->counters(s).enq_pkts;
    one_job_enq += serial[0].telemetry->counters(s).enq_pkts;
  }
  EXPECT_GT(one_job_enq, 0u);
  EXPECT_GT(merged_enq, one_job_enq);
}

// ---------------------------------------------------------------------------
// Collector mechanics: epoch cadence, bounded ring with oldest-first reads,
// explicit dropped-epoch accounting, end-of-run bookend.
// ---------------------------------------------------------------------------

TEST(telemetry_collector_test, epoch_ring_wraps_with_explicit_drop_count) {
  sim_env env(1);
  telemetry_plane plane(1);
  const std::uint32_t slot = 0;
  telemetry_hot_counters* c = plane.arm(slot, telemetry_kind::queue).hot;

  telemetry_collector col(env.events, plane, from_us(10), /*capacity=*/4);
  col.start();  // baseline snapshot at t=0
  env.events.run_until(from_us(95));  // epochs fire at 10..90us: 9 snapshots
  c->enq_pkts = 42;  // arrives only in the final bookend snapshot
  col.finish();

  EXPECT_EQ(col.recorded_epochs(), 1u + 9u + 1u);
  EXPECT_EQ(col.n_epochs(), 4u);
  EXPECT_EQ(col.dropped_epochs(), 7u);
  for (std::size_t i = 1; i < col.n_epochs(); ++i) {
    EXPECT_GT(col.epoch_at(i).at, col.epoch_at(i - 1).at) << "epoch " << i;
  }
  EXPECT_EQ(col.epoch_at(col.n_epochs() - 1).counters(slot).enq_pkts, 42u);
  EXPECT_EQ(col.epoch_at(col.n_epochs() - 2).counters(slot).enq_pkts, 0u);

  // finish() is idempotent at one timestamp (no duplicate bookend).
  col.finish();
  EXPECT_EQ(col.recorded_epochs(), 11u);
}

// ---------------------------------------------------------------------------
// JSON emission smoke test: the document exists, carries both sections, and
// only non-idle slots appear.
// ---------------------------------------------------------------------------

TEST(telemetry_json, summary_and_timeseries_document) {
  fabric_params fp;
  fp.proto = protocol::ndp;
  tele_bed tb(7, 4, fp);
  telemetry_collector col(tb.env.events, tb.plane(), from_us(50));
  col.start();
  run_permutation_workload(tb, protocol::ndp);
  col.finish();

  const char* path = "test_telemetry_out.json";
  ASSERT_TRUE(write_telemetry_json(path, tb.plane(), &col));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string doc = ss.str();
  EXPECT_NE(doc.find("\"summary\""), std::string::npos);
  EXPECT_NE(doc.find("\"timeseries\""), std::string::npos);
  EXPECT_NE(doc.find("\"depth_pkts\""), std::string::npos);
  EXPECT_NE(doc.find("\"utilization\""), std::string::npos);
  EXPECT_NE(doc.find("\"stale_drops\""), std::string::npos);
  // Slots are named by the blueprint, not "slotN": every host sends, so
  // host 0's NIC queue, its pipe and its demux are all in the summary.
  for (const char* name : {"hostup0", "hostup0.pipe", "demux0"}) {
    EXPECT_NE(doc.find("\"name\": \"" + std::string(name) + "\""),
              std::string::npos)
        << name;
  }
  std::remove(path);
}

// ---------------------------------------------------------------------------
// Campaign-scale reduction: plane.totals(kind) must agree with a manual
// per-slot sum, and telemetry_summary::from_plane (the fct_summary spill
// view) must be exactly those totals.
// ---------------------------------------------------------------------------

TEST(telemetry_totals, per_kind_totals_match_manual_slot_sum) {
  fabric_params fp;
  fp.proto = protocol::ndp;
  tele_bed tb(17, 4, fp);
  run_permutation_workload(tb, protocol::ndp);
  const telemetry_plane& plane = tb.plane();

  std::size_t armed = 0;
  for (std::uint32_t slot = 0; slot < plane.n_slots(); ++slot) {
    if (plane.info(slot).armed) ++armed;
  }
  EXPECT_EQ(plane.armed_slots(), armed);
  EXPECT_GT(armed, 0u);

  for (const telemetry_kind kind :
       {telemetry_kind::queue, telemetry_kind::pipe, telemetry_kind::demux}) {
    std::uint64_t enq_pkts = 0, enq_bytes = 0, deq_pkts = 0, drop_pkts = 0,
                  trim_bytes = 0, mark_pkts = 0, stale_drops = 0;
    for (std::uint32_t slot = 0; slot < plane.n_slots(); ++slot) {
      const auto& info = plane.info(slot);
      if (!info.armed || info.kind != kind) continue;
      const telemetry_counters c = plane.counters(slot);
      enq_pkts += c.enq_pkts;
      enq_bytes += c.enq_bytes;
      deq_pkts += c.deq_pkts;
      drop_pkts += c.drop_pkts;
      trim_bytes += c.trim_bytes;
      mark_pkts += c.mark_pkts;
      stale_drops += c.stale_drops;
    }
    const telemetry_counters t = plane.totals(kind);
    EXPECT_EQ(t.enq_pkts, enq_pkts) << to_string(kind);
    EXPECT_EQ(t.enq_bytes, enq_bytes) << to_string(kind);
    EXPECT_EQ(t.deq_pkts, deq_pkts) << to_string(kind);
    EXPECT_EQ(t.drop_pkts, drop_pkts) << to_string(kind);
    EXPECT_EQ(t.trim_bytes, trim_bytes) << to_string(kind);
    EXPECT_EQ(t.mark_pkts, mark_pkts) << to_string(kind);
    EXPECT_EQ(t.stale_drops, stale_drops) << to_string(kind);
  }
  EXPECT_GT(plane.totals(telemetry_kind::queue).enq_pkts, 0u);
  EXPECT_GT(plane.totals(telemetry_kind::pipe).enq_pkts, 0u);
  EXPECT_GT(plane.totals(telemetry_kind::demux).enq_pkts, 0u);

  const telemetry_summary ts = telemetry_summary::from_plane(plane);
  EXPECT_TRUE(ts.present);
  EXPECT_EQ(ts.armed_slots, plane.armed_slots());
  EXPECT_EQ(ts.queues, plane.totals(telemetry_kind::queue));
  EXPECT_EQ(ts.pipes, plane.totals(telemetry_kind::pipe));
  EXPECT_EQ(ts.demuxes, plane.totals(telemetry_kind::demux));
}

// ---------------------------------------------------------------------------
// The plane is the only counter store: a component no plane armed counted
// nothing, so reading it throws instead of returning zeros that a "nothing
// dropped" check would accept.
// ---------------------------------------------------------------------------

TEST(telemetry_plane, reading_unarmed_counters_throws) {
  fabric_params fp;
  fp.proto = protocol::ndp;
  auto bed = make_fat_tree_testbed(1, 4, fp);
  ASSERT_EQ(bed->env.telemetry, nullptr);
  fat_tree& ft = *bed->topo;
  EXPECT_THROW((void)ft.aggregate_stats(link_level::tor_up), simulation_error);
  EXPECT_THROW((void)ft.queues_at(link_level::tor_down)[0]->telemetry(),
               simulation_error);
  EXPECT_THROW((void)ft.paths().demux(0).telemetry(), simulation_error);
  pipe wire(bed->env, from_us(1));
  EXPECT_THROW((void)wire.telemetry(), simulation_error);

  // Armed, the same pipe reads fine.
  const auto tp = testing::arm(wire, telemetry_kind::pipe);
  EXPECT_EQ(wire.telemetry(), telemetry_counters{});
}

}  // namespace
}  // namespace ndpsim
