// NDP/TCP coexistence port (paper §3 "Limitations"): separate queues per
// class, fair-queued onto the shared link.
#include <gtest/gtest.h>

#include "ndp/coexist_queue.h"
#include "ndp/ndp_sink.h"
#include "ndp/ndp_source.h"
#include "ndp/pull_pacer.h"
#include "net/pipe.h"
#include "tcp/tcp_sink.h"
#include "tcp/tcp_source.h"
#include "topo/micro_topo.h"
#include "topo/path_table.h"
#include "test_util.h"

namespace ndpsim {
namespace {

using testing::make_data;
using testing::recording_sink;

coexist_config small_cfg() {
  coexist_config c;
  c.ndp.data_capacity_bytes = 8 * 9000;
  c.ndp.header_capacity_bytes = 8 * 9000;
  c.tcp_capacity_bytes = 50 * 9000;
  return c;
}

TEST(coexist_queue, classifies_by_protocol) {
  sim_env env;
  recording_sink sink(env);
  coexist_queue q(env, gbps(10), small_cfg());
  const auto tp = testing::arm(q);
  q.set_paused(true);
  owned_route r;
  r.push_back(&q);
  r.push_back(&sink);
  packet* t = env.pool.alloc();
  t->type = packet_type::tcp_data;
  t->size_bytes = 9000;
  t->rt = &r;
  t->next_hop = 0;
  send_to_next_hop(*t);
  send_to_next_hop(*make_data(env, &r, 9000, 1));  // ndp_data
  // The port and both children share one slot: each arrival counts once.
  EXPECT_EQ(q.telemetry().enq_pkts, 2u);
  EXPECT_EQ(q.buffered_packets(), 2u);
  q.set_paused(false);
  env.events.run_all();
  EXPECT_EQ(sink.count(), 2u);
}

TEST(coexist_queue, ndp_side_still_trims) {
  sim_env env;
  recording_sink sink(env);
  coexist_config cfg = small_cfg();
  cfg.ndp.data_capacity_bytes = 9000;  // one packet
  coexist_queue q(env, gbps(10), cfg);
  const auto tp = testing::arm(q);
  q.set_paused(true);
  owned_route r;
  r.push_back(&q);
  r.push_back(&sink);
  for (std::uint64_t i = 1; i <= 3; ++i) send_to_next_hop(*make_data(env, &r, 9000, i));
  EXPECT_EQ(q.telemetry().trim_pkts, 2u);
  q.set_paused(false);
  env.events.run_all();
  EXPECT_EQ(sink.count(), 3u);  // nothing lost, two arrived as headers
}

TEST(coexist_queue, tcp_side_still_drops) {
  sim_env env;
  recording_sink sink(env);
  coexist_config cfg = small_cfg();
  cfg.tcp_capacity_bytes = 2 * 9000;
  coexist_queue q(env, gbps(10), cfg);
  const auto tp = testing::arm(q);
  q.set_paused(true);
  owned_route r;
  r.push_back(&q);
  r.push_back(&sink);
  for (std::uint64_t i = 1; i <= 4; ++i) {
    packet* t = env.pool.alloc();
    t->type = packet_type::tcp_data;
    t->size_bytes = 9000;
    t->seqno = i;
    t->rt = &r;
    t->next_hop = 0;
    send_to_next_hop(*t);
  }
  EXPECT_EQ(q.telemetry().drop_pkts, 2u);
  q.set_paused(false);
  env.events.run_all();
  EXPECT_EQ(sink.count(), 2u);
  EXPECT_EQ(env.pool.outstanding(), 0u);
}

TEST(coexist_queue, drr_shares_bytes_evenly_under_backlog) {
  sim_env env;
  recording_sink sink(env);
  coexist_queue q(env, gbps(10), small_cfg());
  q.set_paused(true);
  owned_route r;
  r.push_back(&q);
  r.push_back(&sink);
  // Backlog both classes; the NDP side can hold 8, the TCP side many more.
  for (std::uint64_t i = 1; i <= 8; ++i) send_to_next_hop(*make_data(env, &r, 9000, i));
  for (std::uint64_t i = 1; i <= 8; ++i) {
    packet* t = env.pool.alloc();
    t->type = packet_type::tcp_data;
    t->size_bytes = 9000;
    t->seqno = 100 + i;
    t->rt = &r;
    t->next_hop = 0;
    send_to_next_hop(*t);
  }
  q.set_paused(false);
  env.events.run_all();
  ASSERT_EQ(sink.count(), 16u);
  EXPECT_EQ(q.ndp_bytes_sent(), q.tcp_bytes_sent());
  // Interleaved, not one class then the other.
  bool saw_tcp_before_last_ndp = false;
  bool ndp_pending = false;
  for (auto it = sink.arrivals().rbegin(); it != sink.arrivals().rend(); ++it) {
    if (it->type == packet_type::ndp_data) ndp_pending = true;
    if (it->type == packet_type::tcp_data && ndp_pending) {
      saw_tcp_before_last_ndp = true;
      break;
    }
  }
  EXPECT_TRUE(saw_tcp_before_last_ndp);
}

TEST(coexist_integration, tcp_and_ndp_flows_share_a_port_fairly) {
  // One long TCP flow and one long NDP flow into the same host, through a
  // coexistence port: each should get roughly half the link.
  sim_env env(33);
  auto factory = [&env](link_level level, std::size_t,
                        linkspeed_bps rate) -> std::unique_ptr<queue_base> {
    if (level == link_level::host_up) {
      return std::make_unique<host_priority_queue>(env, rate, 200 * 9000ull);
    }
    return std::make_unique<coexist_queue>(env, rate, coexist_config{});
  };
  single_switch star(env, 3, gbps(10), from_us(1), factory);

  pull_pacer pacer(env, gbps(10));
  ndp_source nsrc(env, {}, 1);
  ndp_sink nsnk(env, pacer, {}, 1);
  nsrc.connect(nsnk, star.paths().all(0, 2), 0, 2, 0, 0);
  tcp_config tc;
  tc.handshake = false;
  tc.min_rto = from_ms(5);
  tcp_source tsrc(env, tc, 2);
  tcp_sink tsnk(env, 2);
  tsrc.connect(tsnk, star.paths().single(1, 2, 0), 1, 2, 0, 0);

  env.events.run_until(from_ms(10));
  const std::uint64_t n0 = nsnk.payload_received();
  const std::uint64_t t0 = tsnk.payload_received();
  env.events.run_until(from_ms(60));
  const double nshare = static_cast<double>(nsnk.payload_received() - n0);
  const double tshare = static_cast<double>(tsnk.payload_received() - t0);
  const double frac = nshare / (nshare + tshare);
  EXPECT_GT(frac, 0.35);
  EXPECT_LT(frac, 0.65);
  // And the link stays busy: combined goodput near line rate.
  const double total_gb = (nshare + tshare) * 8 / to_sec(from_ms(50)) / 1e9;
  EXPECT_GT(total_gb, 8.5);
}

}  // namespace
}  // namespace ndpsim
