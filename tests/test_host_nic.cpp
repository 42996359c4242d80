// The end-host NIC queue's capacity semantics: control always admitted,
// data bounded when a cap is set — the property that lets window-based
// transports see their own backlog as loss (see DESIGN.md).
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "net/fifo_queues.h"
#include "topo/fat_tree.h"
#include "test_util.h"

namespace ndpsim {
namespace {

using testing::make_data;
using testing::recording_sink;

TEST(host_nic, unbounded_by_default) {
  sim_env env;
  recording_sink sink(env);
  host_priority_queue q(env, gbps(10));
  const auto tp = testing::arm(q);
  owned_route r;
  r.push_back(&q);
  r.push_back(&sink);
  for (std::uint64_t i = 1; i <= 500; ++i) send_to_next_hop(*make_data(env, &r, 9000, i));
  env.events.run_all();
  EXPECT_EQ(sink.count(), 500u);
  EXPECT_EQ(q.telemetry().drop_pkts, 0u);
}

TEST(host_nic, data_cap_drops_excess_data) {
  sim_env env;
  recording_sink sink(env);
  host_priority_queue q(env, gbps(10), 3 * 9000);
  const auto tp = testing::arm(q);
  owned_route r;
  r.push_back(&q);
  r.push_back(&sink);
  // 1 in service + 3 buffered; the rest dropped.
  for (std::uint64_t i = 1; i <= 6; ++i) send_to_next_hop(*make_data(env, &r, 9000, i));
  env.events.run_all();
  EXPECT_EQ(sink.count(), 4u);
  EXPECT_EQ(q.telemetry().drop_pkts, 2u);
  EXPECT_EQ(env.pool.outstanding(), 0u);
}

TEST(host_nic, control_ignores_the_data_cap) {
  sim_env env;
  recording_sink sink(env);
  host_priority_queue q(env, gbps(10), 9000);
  const auto tp = testing::arm(q);
  q.set_paused(true);
  owned_route r;
  r.push_back(&q);
  r.push_back(&sink);
  send_to_next_hop(*make_data(env, &r, 9000, 1));  // fills the data budget
  for (int i = 0; i < 50; ++i) {
    packet* a = env.pool.alloc();
    a->type = packet_type::ndp_ack;
    a->size_bytes = kHeaderBytes;
    a->rt = &r;
    a->next_hop = 0;
    send_to_next_hop(*a);
  }
  EXPECT_EQ(q.telemetry().drop_pkts, 0u);  // every ACK admitted
  q.set_paused(false);
  env.events.run_all();
  EXPECT_EQ(sink.count(), 51u);
}

TEST(host_nic, cap_accounts_data_only) {
  sim_env env;
  recording_sink sink(env);
  host_priority_queue q(env, gbps(10), 2 * 9000);
  const auto tp = testing::arm(q);
  q.set_paused(true);
  owned_route r;
  r.push_back(&q);
  r.push_back(&sink);
  // Control backlog must not eat the data budget.
  for (int i = 0; i < 100; ++i) {
    packet* a = env.pool.alloc();
    a->type = packet_type::ndp_pull;
    a->size_bytes = kHeaderBytes;
    a->rt = &r;
    a->next_hop = 0;
    send_to_next_hop(*a);
  }
  send_to_next_hop(*make_data(env, &r, 9000, 1));
  send_to_next_hop(*make_data(env, &r, 9000, 2));
  EXPECT_EQ(q.telemetry().drop_pkts, 0u);
  q.set_paused(false);
  env.events.run_all();
  EXPECT_EQ(sink.count(), 102u);
}

// FatTree route-uniqueness properties, parameterized over k.
class fat_tree_paths : public ::testing::TestWithParam<unsigned> {};

TEST_P(fat_tree_paths, interpod_paths_are_pairwise_distinct) {
  sim_env env;
  fat_tree_config cfg;
  cfg.k = GetParam();
  fat_tree ft(env, cfg, [&env](link_level, std::size_t, linkspeed_bps rate) {
    return std::unique_ptr<queue_base>(
        std::make_unique<drop_tail_queue>(env, rate, 100 * 9000));
  });
  const std::uint32_t src = 0;
  const std::uint32_t dst = static_cast<std::uint32_t>(ft.n_hosts() - 1);
  const std::size_t n = ft.n_paths(src, dst);
  // Each path must differ from every other in at least one middle hop, and
  // all paths share the first (NIC) and last (ToR->host) queues.
  std::set<std::vector<const packet_sink*>> middles;
  const packet_sink* first = nullptr;
  const packet_sink* last = nullptr;
  for (std::size_t p = 0; p < n; ++p) {
    auto fwd = testing::fabric_route(ft, src, dst, p);
    std::vector<const packet_sink*> middle;
    for (std::size_t i = 2; i + 2 < fwd->size(); i += 2) {
      middle.push_back(&fwd->at(i));
    }
    middles.insert(middle);
    if (first == nullptr) {
      first = &fwd->at(0);
      last = &fwd->at(fwd->size() - 2);
    } else {
      EXPECT_EQ(&fwd->at(0), first);
      EXPECT_EQ(&fwd->at(fwd->size() - 2), last);
    }
  }
  EXPECT_EQ(middles.size(), n) << "every path must be distinct";
}

TEST_P(fat_tree_paths, reverse_of_reverse_is_forward_shape) {
  sim_env env;
  fat_tree_config cfg;
  cfg.k = GetParam();
  fat_tree ft(env, cfg, [&env](link_level, std::size_t, linkspeed_bps rate) {
    return std::unique_ptr<queue_base>(
        std::make_unique<drop_tail_queue>(env, rate, 100 * 9000));
  });
  const auto far = static_cast<std::uint32_t>(ft.n_hosts() - 2);
  auto fwd = testing::fabric_route(ft, 1, far, 0);
  auto rev = testing::fabric_route(ft, far, 1, 0);
  EXPECT_EQ(fwd->size(), rev->size());
  EXPECT_EQ(fwd->queue_hops(), rev->queue_hops());
}

INSTANTIATE_TEST_SUITE_P(ks, fat_tree_paths, ::testing::Values(4u, 6u, 8u));

}  // namespace
}  // namespace ndpsim
