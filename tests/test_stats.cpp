#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "net/fifo_queues.h"
#include "stats/cdf.h"
#include "stats/fct_recorder.h"
#include "stats/fct_summary.h"
#include "stats/quantile_sketch.h"
#include "stats/rate_sampler.h"
#include "test_util.h"

namespace ndpsim {
namespace {

TEST(sample_set, quantiles_nearest_rank) {
  sample_set s;
  for (int i = 10; i >= 1; --i) s.add(i);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 10.0);
  EXPECT_DOUBLE_EQ(s.median(), 5.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.9), 9.0);
  EXPECT_DOUBLE_EQ(s.mean(), 5.5);
}

TEST(sample_set, mean_lowest_fraction) {
  sample_set s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  // Worst 10% = values 1..10, mean 5.5 (the paper's "worst 10%" metric).
  EXPECT_DOUBLE_EQ(s.mean_lowest(0.10), 5.5);
}

TEST(sample_set, add_after_quantile_resorts) {
  sample_set s;
  s.add(5.0);
  EXPECT_DOUBLE_EQ(s.median(), 5.0);
  s.add(1.0);
  s.add(9.0);
  EXPECT_DOUBLE_EQ(s.median(), 5.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(sample_set, cdf_rows_end_at_one) {
  sample_set s;
  for (int i = 0; i < 200; ++i) s.add(i);
  const std::string rows = s.cdf_rows(10);
  EXPECT_NE(rows.find(" 1\n"), std::string::npos);
}

TEST(sample_set, empty_quantile_throws) {
  sample_set s;
  EXPECT_THROW((void)s.median(), simulation_error);
}

TEST(fct_recorder, records_durations) {
  fct_recorder rec;
  rec.flow_started(1, from_us(10), 1000);
  rec.flow_started(2, from_us(10), 1000);
  rec.flow_completed(1, from_us(110));
  rec.flow_completed(2, from_us(210));
  EXPECT_EQ(rec.completed(), 2u);
  EXPECT_EQ(rec.still_open(), 0u);
  EXPECT_DOUBLE_EQ(rec.fct_us().min(), 100.0);
  EXPECT_DOUBLE_EQ(rec.fct_us().max(), 200.0);
  EXPECT_DOUBLE_EQ(rec.last_completion_us(), 210.0);
}

TEST(fct_recorder, double_start_throws) {
  fct_recorder rec;
  rec.flow_started(1, 0, 1);
  EXPECT_THROW(rec.flow_started(1, 0, 1), simulation_error);
}

TEST(fct_recorder, unknown_completion_throws) {
  fct_recorder rec;
  EXPECT_THROW(rec.flow_completed(7, 0), simulation_error);
}

TEST(rate_sampler, measures_queue_drain_rate) {
  sim_env env;
  testing::recording_sink sink(env);
  drop_tail_queue q(env, gbps(10), 1000 * 9000);
  const auto tp = testing::arm(q);
  owned_route r;
  r.push_back(&q);
  r.push_back(&sink);

  std::uint64_t delivered = 0;
  rate_sampler sampler(
      env, [&q] { return q.telemetry().deq_bytes; }, from_us(100));
  (void)delivered;
  sampler.start(0);

  // Saturate the 10G queue for 1ms.
  for (std::uint64_t i = 0; i < 138; ++i) {
    send_to_next_hop(*testing::make_data(env, &r, 9000, i + 1));
  }
  env.events.run_until(from_ms(1));
  ASSERT_GE(sampler.samples().size(), 5u);
  // Mid-experiment samples should be ~10Gb/s.
  const double mid = sampler.samples()[2].rate_bps;
  EXPECT_NEAR(mid, 10e9, 0.5e9);
}

TEST(rate_sampler, overall_rate) {
  sim_env env;
  std::uint64_t counter = 0;
  rate_sampler sampler(env, [&counter] { return counter; }, from_us(10));
  sampler.start(0);
  // Manually bump the counter between polls via an auxiliary event source.
  struct bumper : event_source {
    std::uint64_t* c;
    bumper(event_list& el, std::uint64_t* cc) : event_source(el), c(cc) {}
    void do_next_event() override {
      *c += 1250;  // 1250 bytes per 10us = 1Gb/s
      events().schedule_in(*this, from_us(10));
    }
  } b(env.events, &counter);
  env.events.schedule_at(b, 0);
  env.events.run_until(from_ms(1));
  EXPECT_NEAR(sampler.overall_rate_bps(), 1e9, 0.1e9);
}

// ---------------------------------------------------------------------------
// quantile_sketch: the campaign spill sketch.  Determinism here is
// structural (bucket index is a pure function of the value), so the same
// multiset of samples must yield the identical sketch whatever order it
// arrives in — directly, shuffled, or pre-aggregated through merges in any
// grouping.
// ---------------------------------------------------------------------------

// A deterministic heavy-tailed-ish FCT sample: most values around 100us,
// a long tail into tens of ms (no RNG — tests must not depend on libc rand).
std::vector<double> synthetic_fcts(std::size_t n) {
  std::vector<double> v;
  v.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double base = 80.0 + static_cast<double>((i * 37) % 100);
    const double tail = (i % 17 == 0) ? 50.0 * static_cast<double>(1 + i % 7)
                                      : 1.0;
    v.push_back(base * tail);
  }
  return v;
}

TEST(quantile_sketch, insertion_order_independent) {
  const std::vector<double> vals = synthetic_fcts(500);
  quantile_sketch forward;
  for (const double v : vals) forward.add(v);
  quantile_sketch reverse;
  for (auto it = vals.rbegin(); it != vals.rend(); ++it) reverse.add(*it);
  // Strided order as a shuffle stand-in (7 is coprime to 500).
  quantile_sketch strided;
  for (std::size_t i = 0; i < vals.size(); ++i) {
    strided.add(vals[(i * 7) % vals.size()]);
  }
  EXPECT_EQ(forward, reverse);
  EXPECT_EQ(forward, strided);
  EXPECT_EQ(forward.count(), vals.size());
}

TEST(quantile_sketch, merge_grouping_and_order_independent) {
  const std::vector<double> vals = synthetic_fcts(600);
  quantile_sketch whole;
  for (const double v : vals) whole.add(v);

  // Split into three parts, merge in both associations and both orders.
  quantile_sketch part[3];
  for (std::size_t i = 0; i < vals.size(); ++i) part[i % 3].add(vals[i]);

  quantile_sketch ab = part[0];
  ab.merge_from(part[1]);
  quantile_sketch ab_c = ab;
  ab_c.merge_from(part[2]);

  quantile_sketch bc = part[2];
  bc.merge_from(part[1]);
  quantile_sketch c_ba = bc;
  c_ba.merge_from(part[0]);

  EXPECT_EQ(ab_c, whole);
  EXPECT_EQ(c_ba, whole);
}

TEST(quantile_sketch, error_bound_against_exact_quantiles) {
  // The guarantee under test: for in-domain values, quantile(q) is within
  // alpha (relative) of the exact nearest-rank quantile, because the exact
  // rank-q sample lies inside the bucket the sketch answers from.
  fct_recorder rec;
  const std::vector<double> vals = synthetic_fcts(1000);
  for (std::size_t i = 0; i < vals.size(); ++i) {
    const auto id = static_cast<std::uint32_t>(i);
    rec.flow_started(id, 0, 1000);
    rec.flow_completed(id, from_us(vals[i]));
  }
  const fct_summary s = fct_summary::from_recorder(rec);
  const sample_set& exact = rec.fct_us();
  for (const double q : {0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999}) {
    const double e = exact.quantile(q);
    EXPECT_NEAR(s.quantile_us(q), e, s.sketch.alpha() * e + 1e-9)
        << "q=" << q;
  }
  // Exact fields are exact, not sketched.
  EXPECT_EQ(s.flows, vals.size());
  EXPECT_DOUBLE_EQ(s.min_us, exact.min());
  EXPECT_DOUBLE_EQ(s.max_us, exact.max());
  EXPECT_NEAR(s.mean_us(), exact.mean(), 1e-9);
}

TEST(quantile_sketch, clamps_out_of_domain_values) {
  quantile_sketch s;
  s.add(0.0);       // <= min clamps (so do negatives and NaN)
  s.add(-5.0);
  s.add(1e30);      // > max clamps
  EXPECT_EQ(s.count(), 3u);
  EXPECT_LE(s.quantile(0.0), quantile_sketch::kMinValue * (1 + s.alpha()));
  EXPECT_GE(s.quantile(1.0), quantile_sketch::kMaxValue * (1 - s.alpha()));
}

TEST(quantile_sketch, restore_rejects_malformed_buckets) {
  quantile_sketch s;
  // Unsorted.
  EXPECT_FALSE(s.restore(0.02, {{10, 1}, {5, 1}}));
  EXPECT_TRUE(s.empty());
  // Duplicate index.
  EXPECT_FALSE(s.restore(0.02, {{5, 1}, {5, 2}}));
  // Zero count.
  EXPECT_FALSE(s.restore(0.02, {{5, 0}}));
  // Out of the clamped index range.
  EXPECT_FALSE(s.restore(0.02, {{1 << 30, 1}}));
  // A valid restore round-trips.
  quantile_sketch built;
  built.add(100.0, 3);
  built.add(250.0, 2);
  quantile_sketch restored;
  EXPECT_TRUE(restored.restore(built.alpha(), built.raw_buckets()));
  EXPECT_EQ(restored, built);
}

// ---------------------------------------------------------------------------
// fct_summary: the per-job spill record.  The campaign resume contract needs
// (a) byte-identical re-emission after a parse round trip and (b) strict
// rejection of anything malformed.
// ---------------------------------------------------------------------------

fct_summary sample_summary(bool with_telemetry) {
  fct_recorder rec;
  const std::vector<double> vals = synthetic_fcts(64);
  for (std::size_t i = 0; i < vals.size(); ++i) {
    const auto id = static_cast<std::uint32_t>(i);
    rec.flow_started(id, 0, 9000 * (i + 1));
    rec.flow_completed(id, from_us(vals[i]));
  }
  rec.flow_started(1000, from_us(5), 123);  // left open
  fct_summary s = fct_summary::from_recorder(rec);
  s.job = 42;
  s.hash = 0xdeadbeefcafef00dULL;
  s.name = "odd \"name\"\\with\tescapes";
  s.events = 123456789;
  if (with_telemetry) {
    s.tele.present = true;
    s.tele.armed_slots = 96;
    s.tele.queues.enq_pkts = 1000;
    s.tele.queues.enq_bytes = 9000000;
    s.tele.queues.trim_bytes = 8892;
    s.tele.pipes.enq_pkts = 5000;
    s.tele.pipes.deq_pkts = 5000;
    s.tele.demuxes.enq_pkts = 990;
    s.tele.demuxes.stale_drops = 3;
  }
  return s;
}

TEST(fct_summary, jsonl_round_trip_is_byte_identical) {
  for (const bool with_tele : {false, true}) {
    const fct_summary s = sample_summary(with_tele);
    const std::string line = s.to_jsonl();
    fct_summary parsed;
    ASSERT_TRUE(fct_summary::from_jsonl(line, parsed)) << line;
    EXPECT_EQ(parsed, s);
    EXPECT_EQ(parsed.to_jsonl(), line);  // re-emission: the resume identity
  }
}

TEST(fct_summary, parser_rejects_corruption) {
  const std::string line = sample_summary(true).to_jsonl();
  fct_summary out;
  // Truncations at every prefix length must fail, never half-parse.
  for (const std::size_t cut : {std::size_t{1}, line.size() / 4,
                                line.size() / 2, line.size() - 1}) {
    EXPECT_FALSE(fct_summary::from_jsonl(line.substr(0, cut), out));
  }
  // Trailing garbage.
  EXPECT_FALSE(fct_summary::from_jsonl(line + "x", out));
  // A flow-count/sketch mismatch (flipped digit) is caught by the
  // one-sample-per-flow invariant.
  std::string flipped = line;
  const std::size_t fpos = flipped.find("\"flows\":");
  flipped[fpos + 8] = flipped[fpos + 8] == '9' ? '8' : '9';
  EXPECT_FALSE(fct_summary::from_jsonl(flipped, out));
  // Unknown escape in the name (a tab is emitted as the six-byte sequence backslash-u0009).
  std::string bad_esc = line;
  const std::size_t epos = bad_esc.find("\\u0009");
  ASSERT_NE(epos, std::string::npos);
  bad_esc.replace(epos, 6, "\\q");
  EXPECT_FALSE(fct_summary::from_jsonl(bad_esc, out));
}

TEST(fct_summary, merge_accumulates_exact_fields_and_sketch) {
  fct_recorder r1;
  r1.flow_started(1, 0, 100);
  r1.flow_completed(1, from_us(10));
  fct_recorder r2;
  r2.flow_started(1, 0, 200);
  r2.flow_completed(1, from_us(1000));
  r2.flow_started(2, 0, 1);  // open

  // Telemetry halves: every field of every component distinct, so a field
  // summed into the wrong place shows.
  const auto counters = [](std::uint64_t base) {
    telemetry_counters c;
    std::uint64_t v = base;
    for (std::uint64_t* f :
         {&c.enq_pkts, &c.enq_bytes, &c.deq_pkts, &c.deq_bytes, &c.drop_pkts,
          &c.drop_bytes, &c.trim_pkts, &c.trim_bytes, &c.bounce_pkts,
          &c.bounce_bytes, &c.mark_pkts, &c.stale_drops}) {
      *f = ++v;
    }
    return c;
  };
  const auto with_plane = [&counters](std::uint64_t base, std::uint64_t slots) {
    telemetry_summary t;
    t.present = true;
    t.armed_slots = slots;
    t.queues = counters(base);
    t.pipes = counters(base + 100);
    t.demuxes = counters(base + 200);
    return t;
  };
  const auto expect_sum = [](const telemetry_counters& got,
                             const telemetry_counters& x,
                             const telemetry_counters& y) {
    EXPECT_EQ(got.enq_pkts, x.enq_pkts + y.enq_pkts);
    EXPECT_EQ(got.enq_bytes, x.enq_bytes + y.enq_bytes);
    EXPECT_EQ(got.deq_pkts, x.deq_pkts + y.deq_pkts);
    EXPECT_EQ(got.deq_bytes, x.deq_bytes + y.deq_bytes);
    EXPECT_EQ(got.drop_pkts, x.drop_pkts + y.drop_pkts);
    EXPECT_EQ(got.drop_bytes, x.drop_bytes + y.drop_bytes);
    EXPECT_EQ(got.trim_pkts, x.trim_pkts + y.trim_pkts);
    EXPECT_EQ(got.trim_bytes, x.trim_bytes + y.trim_bytes);
    EXPECT_EQ(got.bounce_pkts, x.bounce_pkts + y.bounce_pkts);
    EXPECT_EQ(got.bounce_bytes, x.bounce_bytes + y.bounce_bytes);
    EXPECT_EQ(got.mark_pkts, x.mark_pkts + y.mark_pkts);
    EXPECT_EQ(got.stale_drops, x.stale_drops + y.stale_drops);
  };

  fct_summary a = fct_summary::from_recorder(r1);
  a.tele = with_plane(0, 3);
  fct_summary b = fct_summary::from_recorder(r2);
  b.tele = with_plane(1000, 5);
  const telemetry_summary a_tele = a.tele;
  a.merge_from(b);
  EXPECT_EQ(a.flows, 2u);
  EXPECT_EQ(a.still_open, 1u);
  EXPECT_EQ(a.bytes, 300u);
  EXPECT_DOUBLE_EQ(a.min_us, 10.0);
  EXPECT_DOUBLE_EQ(a.max_us, 1000.0);
  EXPECT_DOUBLE_EQ(a.sum_us, 1010.0);
  EXPECT_EQ(a.sketch.count(), 2u);
  EXPECT_TRUE(a.tele.present);
  EXPECT_EQ(a.tele.armed_slots, 8u);
  expect_sum(a.tele.queues, a_tele.queues, b.tele.queues);
  expect_sum(a.tele.pipes, a_tele.pipes, b.tele.pipes);
  expect_sum(a.tele.demuxes, a_tele.demuxes, b.tele.demuxes);

  // A summary whose job carried no plane adds nothing to the telemetry,
  // whatever its counter fields hold.
  fct_summary no_plane;
  no_plane.tele = with_plane(5000, 7);
  no_plane.tele.present = false;
  const telemetry_summary merged = a.tele;
  a.merge_from(no_plane);
  EXPECT_EQ(a.tele, merged);

  // Merging into an empty summary adopts the other's min/max.
  fct_summary empty;
  empty.merge_from(b);
  EXPECT_DOUBLE_EQ(empty.min_us, 1000.0);
  EXPECT_DOUBLE_EQ(empty.max_us, 1000.0);
}

}  // namespace
}  // namespace ndpsim
