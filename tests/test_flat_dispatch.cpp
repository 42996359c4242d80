// Flat-vs-virtual dispatch identity: the type-indexed flat dispatch path
// (lane batches through registered handlers) must be observationally
// IDENTICAL to per-event virtual dispatch — same event counts, same
// same-timestamp tie-breaking, bitwise-equal FCT records — across every
// transport.  Flat dispatch is a performance mode, never a semantics mode;
// these tests are the gate that keeps it that way.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "harness/experiments.h"
#include "topo/micro_topo.h"
#include "workload/traffic_matrix.h"

namespace ndpsim {
namespace {

// ---------------------------------------------------------------------------
// Transport-level identity: a seeded k=4 permutation of finite flows, run to
// completion twice — flat dispatch on and off — then compared field by field.
// ---------------------------------------------------------------------------

struct flow_record {
  std::uint32_t id = 0;
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  simtime_t start = 0;
  simtime_t end = 0;
  bool complete = false;

  bool operator==(const flow_record&) const = default;
};

struct workload_result {
  std::vector<flow_record> records;
  std::uint64_t events = 0;
  std::uint64_t flat_events = 0;
};

// Telemetry axis for the identity runs: `plane` arms every component's
// counter slot (hot-path increments live), `collector` additionally runs the
// epoch sampler with its heap timer.  Both must be invisible in the FCT
// records; `plane` must be invisible in the event count too (counting
// schedules nothing — the collector's own timer events are the one allowed
// difference in `collector` mode).
enum class tele_mode { off, plane, collector };

workload_result run_workload(protocol proto, bool flat,
                             tele_mode tele = tele_mode::off) {
  fabric_params fp;
  fp.proto = proto;
  sim_env env(7);
  std::shared_ptr<const fabric_blueprint> bp;
  std::unique_ptr<testbed> bed;
  if (tele != tele_mode::off) {
    // The plane must be attached before the fabric is stamped out; sizing it
    // needs the blueprint, so telemetry runs use the shared-blueprint testbed
    // (bitwise-identical to the private build — test_fabric_blueprint pins
    // that, and the identity assertions below re-verify it transitively).
    bp = make_fat_tree_blueprint(4, fp);
    env.telemetry = std::make_shared<telemetry_plane>(bp->n_slots(), bp.get());
    bed = std::make_unique<testbed>(env, bp, fp);
  } else {
    bed = make_fat_tree_testbed(7, 4, fp);
  }
  std::unique_ptr<telemetry_collector> col;
  if (tele == tele_mode::collector) {
    col = std::make_unique<telemetry_collector>(bed->env.events,
                                                *bed->env.telemetry, from_us(20));
    col->start();
  }
  bed->env.events.set_flat_dispatch(flat);
  const auto matrix = permutation_matrix(bed->env.rng, bed->topo->n_hosts());
  std::vector<flow*> flows;
  flow_options o;
  o.bytes = 90'000;
  for (std::uint32_t h = 0; h < bed->topo->n_hosts(); ++h) {
    flow_options fo = o;
    fo.start = static_cast<simtime_t>(bed->env.rand_below(1000)) * kNanosecond;
    flows.push_back(&bed->flows->create(proto, h, matrix[h], fo));
  }
  run_until_complete(bed->env, flows, from_ms(500));
  if (col != nullptr) {
    col->finish();
    EXPECT_GT(col->n_epochs(), 1u);  // the sampler actually ran
  }
  workload_result out;
  for (const flow* f : flows) {
    out.records.push_back(flow_record{f->id, f->src, f->dst, f->start_time,
                                      f->completion_time(), f->complete()});
  }
  out.events = bed->env.events.events_processed();
  out.flat_events = bed->env.events.dispatch_stats().flat_events;
  return out;
}

class flat_dispatch_identity : public ::testing::TestWithParam<protocol> {};

TEST_P(flat_dispatch_identity, fcts_bitwise_equal_to_virtual_dispatch) {
  const workload_result virt = run_workload(GetParam(), false);
  const workload_result flat = run_workload(GetParam(), true);

  // Virtual mode must not have batch-dispatched anything; flat mode must
  // actually have exercised the flat path (every fabric has pipes/queues),
  // otherwise this test compares the virtual path against itself.
  EXPECT_EQ(virt.flat_events, 0u);
  EXPECT_GT(flat.flat_events, 0u);

  // The whole point: identical event sequence, identical outcomes.
  EXPECT_EQ(virt.events, flat.events);
  ASSERT_EQ(virt.records.size(), flat.records.size());
  for (std::size_t i = 0; i < virt.records.size(); ++i) {
    EXPECT_EQ(virt.records[i], flat.records[i]) << "flow index " << i;
    EXPECT_TRUE(flat.records[i].complete) << "flow index " << i;
  }
}

// Telemetry must be observational only: armed counters (and the collector's
// sampling timer) may not move a single FCT bit on any transport.  With just
// the plane armed the event *count* must match too — hot-path counting
// schedules nothing; collector mode adds exactly its own timer events, so
// there only the records are compared.
TEST_P(flat_dispatch_identity, telemetry_on_off_fcts_bitwise_equal) {
  const workload_result off = run_workload(GetParam(), true, tele_mode::off);
  const workload_result armed = run_workload(GetParam(), true, tele_mode::plane);
  const workload_result sampled =
      run_workload(GetParam(), true, tele_mode::collector);

  EXPECT_EQ(off.events, armed.events);
  ASSERT_EQ(off.records.size(), armed.records.size());
  ASSERT_EQ(off.records.size(), sampled.records.size());
  for (std::size_t i = 0; i < off.records.size(); ++i) {
    EXPECT_EQ(off.records[i], armed.records[i]) << "flow index " << i;
    EXPECT_EQ(off.records[i], sampled.records[i]) << "flow index " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(all_transports, flat_dispatch_identity,
                         ::testing::Values(protocol::ndp, protocol::tcp,
                                           protocol::dctcp, protocol::mptcp,
                                           protocol::dcqcn, protocol::phost),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

// ---------------------------------------------------------------------------
// Layout-vs-seed identity: the packet hot/cold split and the slab packet
// pool are memory-layout changes, never semantics changes.  These goldens
// pin the bitwise FCT record stream (and total event count) of the seeded
// k=4 permutation for every transport, as produced by the tree *before*
// those changes; any later divergence means a layout/pool/dequeue change
// altered simulation behavior.
//
// Regenerate only for an intentional, justified semantic change: run with
// --gtest_filter='*golden*' — each failure message prints the observed hash.
// ---------------------------------------------------------------------------

std::uint64_t fnv1a_mix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 0x100000001B3ull;
  }
  return h;
}

std::uint64_t hash_workload(const workload_result& r) {
  std::uint64_t h = 0xCBF29CE484222325ull;  // FNV-1a offset basis
  h = fnv1a_mix(h, r.events);
  for (const flow_record& f : r.records) {
    h = fnv1a_mix(h, f.id);
    h = fnv1a_mix(h, f.src);
    h = fnv1a_mix(h, f.dst);
    h = fnv1a_mix(h, static_cast<std::uint64_t>(f.start));
    h = fnv1a_mix(h, static_cast<std::uint64_t>(f.end));
    h = fnv1a_mix(h, f.complete ? 1u : 0u);
  }
  return h;
}

struct golden_case {
  protocol proto;
  std::uint64_t hash;
};

class fct_golden_identity : public ::testing::TestWithParam<golden_case> {};

TEST_P(fct_golden_identity, fct_records_bitwise_match_seed) {
  const workload_result got = run_workload(GetParam().proto, true);
  EXPECT_EQ(hash_workload(got), GetParam().hash)
      << "observed hash 0x" << std::hex << hash_workload(got) << " for "
      << to_string(GetParam().proto)
      << " — a layout/pool/dequeue change altered simulation behavior";
}

INSTANTIATE_TEST_SUITE_P(
    all_transports, fct_golden_identity,
    // TCP and DCTCP coincide: at this scale no queue crosses the marking
    // threshold, so DCTCP degenerates to TCP bit-for-bit.
    ::testing::Values(golden_case{protocol::ndp, 0x842a2a02fd7f49a0ull},
                      golden_case{protocol::tcp, 0xfd24f29ceef13bbfull},
                      golden_case{protocol::dctcp, 0xfd24f29ceef13bbfull},
                      golden_case{protocol::mptcp, 0x1f83e18aab0598e5ull},
                      golden_case{protocol::dcqcn, 0x2f789aa7a98cb4e1ull},
                      golden_case{protocol::phost, 0x52a72b6c09461e23ull}),
    [](const auto& info) { return std::string(to_string(info.param.proto)); });

// ---------------------------------------------------------------------------
// Micro-topology goldens: the paper's small testbeds (back-to-back NICs, the
// Fig 2/21 star, the Fig 9 leaf-spine) under every transport.  A seeded
// 90 KB permutation (the pair swap on back_to_back), then from 5 us a 45 KB
// incast into host 0 from every other host, run to completion and hashed
// like the FatTree goldens above.  These pin how the small fabrics are wired
// and routed, whatever builds them, and hold flat and per-event virtual
// dispatch to the same hash.
// ---------------------------------------------------------------------------

enum class micro_shape { back_to_back, star, leaf_spine };

const char* to_string(micro_shape s) {
  switch (s) {
    case micro_shape::back_to_back: return "b2b";
    case micro_shape::star: return "star";
    case micro_shape::leaf_spine: return "leaf_spine";
  }
  return "?";
}

template <class Topo>
workload_result run_micro(sim_env& env, Topo& topo, protocol proto) {
  flow_factory factory(env, topo);
  const auto n = static_cast<std::uint32_t>(topo.n_hosts());
  const std::vector<std::uint32_t> matrix =
      n == 2 ? std::vector<std::uint32_t>{1, 0} : permutation_matrix(env.rng, n);
  std::vector<flow*> flows;
  for (std::uint32_t h = 0; h < n; ++h) {
    flow_options o;
    o.bytes = 90'000;
    o.start = static_cast<simtime_t>(env.rand_below(1000)) * kNanosecond;
    flows.push_back(&factory.create(proto, h, matrix[h], o));
  }
  for (std::uint32_t h = 1; h < n; ++h) {
    flow_options o;
    o.bytes = 45'000;
    o.start = from_us(5) +
              static_cast<simtime_t>(env.rand_below(1000)) * kNanosecond;
    flows.push_back(&factory.create(proto, h, 0, o));
  }
  run_until_complete(env, flows, from_ms(500));
  workload_result out;
  for (const flow* f : flows) {
    EXPECT_TRUE(f->complete()) << "flow " << f->id;
    out.records.push_back(flow_record{f->id, f->src, f->dst, f->start_time,
                                      f->completion_time(), f->complete()});
  }
  out.events = env.events.events_processed();
  return out;
}

workload_result run_micro_workload(micro_shape shape, protocol proto,
                                   bool flat = true) {
  fabric_params fp;
  fp.proto = proto;
  sim_env env(7);
  env.events.set_flat_dispatch(flat);
  const queue_factory qf = make_queue_factory(env, fp);
  switch (shape) {
    case micro_shape::back_to_back: {
      back_to_back topo(env, gbps(10), from_us(1), qf);
      return run_micro(env, topo, proto);
    }
    case micro_shape::star: {
      single_switch topo(env, 8, gbps(10), from_us(1), qf);
      return run_micro(env, topo, proto);
    }
    case micro_shape::leaf_spine: {
      leaf_spine topo(env, 4, 2, 2, gbps(10), from_us(1), qf);
      return run_micro(env, topo, proto);
    }
  }
  return {};
}

struct micro_golden_case {
  micro_shape shape;
  protocol proto;
  std::uint64_t hash;
};

class micro_topo_golden : public ::testing::TestWithParam<micro_golden_case> {};

TEST_P(micro_topo_golden, fct_records_bitwise_match) {
  const micro_golden_case& c = GetParam();
  for (const bool flat : {true, false}) {
    const workload_result got = run_micro_workload(c.shape, c.proto, flat);
    EXPECT_EQ(hash_workload(got), c.hash)
        << "observed hash 0x" << std::hex << hash_workload(got) << " for "
        << to_string(c.shape) << "/" << to_string(c.proto)
        << (flat ? " (flat dispatch)" : " (virtual dispatch)");
  }
}

INSTANTIATE_TEST_SUITE_P(
    all_transports, micro_topo_golden,
    // As on the FatTree goldens, DCTCP never crosses its marking threshold
    // here and coincides with TCP bit for bit.
    ::testing::Values(
        micro_golden_case{micro_shape::back_to_back, protocol::ndp,
                          0xee032f7701263faaull},
        micro_golden_case{micro_shape::back_to_back, protocol::tcp,
                          0xa1eb39e370f5ad85ull},
        micro_golden_case{micro_shape::back_to_back, protocol::dctcp,
                          0xa1eb39e370f5ad85ull},
        micro_golden_case{micro_shape::back_to_back, protocol::mptcp,
                          0xdc8ac2ebe10da0aeull},
        micro_golden_case{micro_shape::back_to_back, protocol::dcqcn,
                          0x3fb12b6bafc45fd5ull},
        micro_golden_case{micro_shape::back_to_back, protocol::phost,
                          0xece3d895ad7c7af6ull},
        micro_golden_case{micro_shape::star, protocol::ndp,
                          0xf6be8094806528ffull},
        micro_golden_case{micro_shape::star, protocol::tcp,
                          0x108e6b0532e3d1fcull},
        micro_golden_case{micro_shape::star, protocol::dctcp,
                          0x108e6b0532e3d1fcull},
        micro_golden_case{micro_shape::star, protocol::mptcp,
                          0x4bef28607d49097dull},
        micro_golden_case{micro_shape::star, protocol::dcqcn,
                          0x5ebf9da4561a5cc2ull},
        micro_golden_case{micro_shape::star, protocol::phost,
                          0x52c283fce8f4a8d5ull},
        micro_golden_case{micro_shape::leaf_spine, protocol::ndp,
                          0xd1e82e965dc0cfe2ull},
        micro_golden_case{micro_shape::leaf_spine, protocol::tcp,
                          0xa91e9cd3349516f6ull},
        micro_golden_case{micro_shape::leaf_spine, protocol::dctcp,
                          0xa91e9cd3349516f6ull},
        micro_golden_case{micro_shape::leaf_spine, protocol::mptcp,
                          0xd3e3882e554c456bull},
        micro_golden_case{micro_shape::leaf_spine, protocol::dcqcn,
                          0xfeb1259d615221c4ull},
        micro_golden_case{micro_shape::leaf_spine, protocol::phost,
                          0x667252a85ba7ed6eull}),
    [](const auto& info) {
      return std::string(to_string(info.param.shape)) + "_" +
             to_string(info.param.proto);
    });

// ---------------------------------------------------------------------------
// Scheduler-level identity: zero-delay self-rescheduling lane sources racing
// a heap timer at the same timestamps.  This is the nastiest ordering case —
// a flat run must not swallow entries scheduled *during* the run (they carry
// later seqs), and heap/lane ties at one timestamp must break identically in
// both modes.
// ---------------------------------------------------------------------------

std::vector<int>* g_log = nullptr;

class zero_delay_source final : public event_source {
 public:
  zero_delay_source(event_list& ev, int id, std::uint32_t lane, int fires)
      : event_source(ev, dispatch_class::pacer_tick),
        id_(id),
        lane_(lane),
        remaining_(fires) {}

  void kick(simtime_t when) { events().schedule_lane(lane_, *this, when); }

  void fire() {
    g_log->push_back(id_);
    if (--remaining_ > 0) events().schedule_lane(lane_, *this, events().now());
  }

  void do_next_event() override { FAIL() << "zero_delay_source uses lanes"; }
  void do_lane_event(std::uint64_t /*payload*/) override { fire(); }

  static void dispatch_run(event_source* const* srcs,
                           const std::uint64_t* /*payloads*/, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      static_cast<zero_delay_source*>(srcs[i])->fire();
    }
  }

 private:
  int id_;
  std::uint32_t lane_;
  int remaining_;
};

class heap_ticker final : public event_source {
 public:
  heap_ticker(event_list& ev, int id, int fires, simtime_t period)
      : event_source(ev),
        id_(id),
        remaining_(fires),
        period_(period) {}

  void kick(simtime_t when) { (void)events().schedule_at(*this, when); }

  void do_next_event() override {
    g_log->push_back(id_);
    // Reschedule at the SAME timestamp a few times, then step forward, so
    // heap entries contend with lane entries at identical times.
    if (--remaining_ <= 0) return;
    const simtime_t next =
        remaining_ % 3 == 0 ? events().now() + period_ : events().now();
    (void)events().schedule_at(*this, next);
  }

 private:
  int id_;
  int remaining_;
  simtime_t period_;
};

std::vector<int> run_zero_delay(bool flat) {
  std::vector<int> log;
  g_log = &log;
  sim_env env(7);
  env.events.set_flat_dispatch(flat);
  env.events.set_flat_handler(dispatch_class::pacer_tick,
                              &zero_delay_source::dispatch_run);
  const std::uint32_t lane = env.events.lane_for(dispatch_class::pacer_tick, 0);
  EXPECT_NE(lane, event_list::kNoLane);
  zero_delay_source a(env.events, 1, lane, 40);
  zero_delay_source b(env.events, 2, lane, 40);
  heap_ticker h(env.events, 3, 30, from_us(1));
  a.kick(from_us(1));
  b.kick(from_us(1));
  h.kick(from_us(1));
  env.events.run_until(from_us(100));
  if (flat) {
    EXPECT_GT(env.events.dispatch_stats().flat_runs, 0u);
  }
  g_log = nullptr;
  return log;
}

TEST(flat_dispatch, zero_delay_self_rescheduling_order_identical) {
  const std::vector<int> virt = run_zero_delay(false);
  const std::vector<int> flat = run_zero_delay(true);
  ASSERT_FALSE(virt.empty());
  EXPECT_EQ(virt, flat);
}

}  // namespace
}  // namespace ndpsim
