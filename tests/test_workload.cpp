#include <gtest/gtest.h>

#include <set>

#include "net/fifo_queues.h"
#include "topo/micro_topo.h"
#include "topo/path_table.h"
#include "workload/cbr_source.h"
#include "workload/closed_loop.h"
#include "workload/size_distributions.h"
#include "workload/traffic_matrix.h"

namespace ndpsim {
namespace {

TEST(traffic_matrix, permutation_is_derangement_with_unit_in_degree) {
  std::mt19937_64 rng(1);
  for (int trial = 0; trial < 10; ++trial) {
    const auto perm = permutation_matrix(rng, 64);
    std::set<std::uint32_t> receivers;
    for (std::size_t i = 0; i < perm.size(); ++i) {
      EXPECT_NE(perm[i], i) << "host must not send to itself";
      receivers.insert(perm[i]);
    }
    EXPECT_EQ(receivers.size(), 64u) << "every host receives exactly once";
  }
}

TEST(traffic_matrix, random_matrix_avoids_self) {
  std::mt19937_64 rng(2);
  const auto m = random_matrix(rng, 32);
  for (std::size_t i = 0; i < m.size(); ++i) EXPECT_NE(m[i], i);
}

TEST(traffic_matrix, incast_senders_distinct_and_exclude_receiver) {
  std::mt19937_64 rng(3);
  const auto s = incast_senders(rng, 100, 42, 50);
  EXPECT_EQ(s.size(), 50u);
  std::set<std::uint32_t> uniq(s.begin(), s.end());
  EXPECT_EQ(uniq.size(), 50u);
  EXPECT_EQ(uniq.count(42), 0u);
}

TEST(size_distribution, fixed_size_is_degenerate) {
  std::mt19937_64 rng(4);
  const auto d = fixed_size(5000);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(d.sample(rng), 5000u);
}

TEST(size_distribution, facebook_web_is_small_flow_dominated) {
  std::mt19937_64 rng(5);
  const auto& d = facebook_web_sizes();
  std::size_t tiny = 0, big = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const auto s = d.sample(rng);
    if (s <= 1500) ++tiny;
    if (s >= 100'000) ++big;
  }
  // Most flows fit in a single 1500B MTU; a small tail is large.
  EXPECT_GT(tiny, n / 2);
  EXPECT_GT(big, 0u);
  EXPECT_LT(big, n / 20);
}

TEST(size_distribution, rejects_malformed_cdf) {
  EXPECT_THROW(flow_size_distribution({{0.5, 100.0}}), simulation_error);
  EXPECT_THROW(flow_size_distribution({{0.7, 100.0}, {0.6, 10.0}, {1.0, 1.0}}),
               simulation_error);
}

TEST(cbr_source, sends_at_configured_rate) {
  sim_env env;
  auto factory = [&env](link_level, std::size_t,
                        linkspeed_bps rate) -> std::unique_ptr<queue_base> {
    return std::make_unique<drop_tail_queue>(env, rate, 1000 * 9000);
  };
  single_switch star(env, 2, gbps(10), from_us(1), factory);
  counting_sink sink(env);
  cbr_source cbr(env, gbps(5), 9000, 1);
  cbr.start(star.paths().single(0, 1, 0), &sink, 0, 1, 0);
  env.events.run_until(from_ms(10));
  const double gb =
      static_cast<double>(sink.payload_bytes()) * 8 / to_sec(from_ms(10)) / 1e9;
  // 5Gb/s offered minus header overhead.
  EXPECT_NEAR(gb, 5.0 * 8936 / 9000, 0.1);
  // Nothing drops: once drained, every data packet sent has arrived.
  cbr.stop();
  env.events.run_all();
  EXPECT_EQ(cbr.stats().packets_sent * 8936, sink.payload_bytes());
}

TEST(closed_loop, keeps_population_and_records_fcts) {
  sim_env env;
  // Instant-completion starter: flows "finish" after 10us via an event.
  struct finisher : event_source {
    std::vector<std::pair<simtime_t, std::function<void()>>> pending;
    explicit finisher(event_list& el) : event_source(el) {}
    void do_next_event() override {
      std::vector<std::function<void()>> due;
      std::erase_if(pending, [&](auto& e) {
        if (e.first <= events().now()) {
          due.push_back(std::move(e.second));
          return true;
        }
        return false;
      });
      for (auto& cb : due) cb();
    }
  } fin(env.events);

  auto d = fixed_size(1000);
  closed_loop_generator gen(
      env, 4, 2, d, from_ms(1),
      [&](std::uint32_t src, std::uint32_t dst, std::uint64_t bytes,
          simtime_t start, std::function<void()> done) {
        EXPECT_NE(src, dst);
        EXPECT_EQ(bytes, 1000u);
        EXPECT_GE(start, env.now());
        fin.pending.emplace_back(start + from_us(10), std::move(done));
        env.events.schedule_at(fin, start + from_us(10));
      });
  gen.start();
  env.events.run_until(from_ms(50));
  gen.stop();
  // 4 hosts x 2 workers; gaps median 1ms over 50ms => roughly 40+ flows
  // per worker-pair; just assert sustained activity and bookkeeping sanity.
  EXPECT_GT(gen.fcts().completed(), 100u);
  EXPECT_LE(gen.fcts().still_open(), 8u);
}

}  // namespace
}  // namespace ndpsim
