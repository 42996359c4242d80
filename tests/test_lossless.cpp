#include <gtest/gtest.h>

#include "net/fifo_queues.h"
#include "net/lossless.h"
#include "net/pipe.h"
#include "test_util.h"

namespace ndpsim {
namespace {

using testing::make_data;
using testing::recording_sink;

// Minimal PFC chain: upstream NIC queue -> pipe -> pfc_ingress -> egress
// queue -> pipe -> sink.  The egress queue can be paused (jammed) to build
// backlog attributed to the ingress.
struct pfc_chain {
  explicit pfc_chain(sim_env& env, std::uint64_t xoff, std::uint64_t xon)
      : nic(env, gbps(10)),
        wire_up(env, from_us(1)),
        egress(env, gbps(10), 1000 * 9000),
        wire_down(env, from_us(1)),
        sink(env),
        ingress(env, &nic, from_us(1), xoff, xon) {
    egress.enable_pfc_credit();
    rt.push_back(&nic);
    rt.push_back(&wire_up);
    rt.push_back(&ingress);
    rt.push_back(&egress);
    rt.push_back(&wire_down);
    rt.push_back(&sink);
  }
  host_priority_queue nic;
  pipe wire_up;
  drop_tail_queue egress;
  pipe wire_down;
  recording_sink sink;
  pfc_ingress ingress;
  owned_route rt;
};

TEST(pfc, no_pause_below_xoff) {
  sim_env env;
  pfc_chain c(env, 5 * 9000, 3 * 9000);
  for (std::uint64_t i = 1; i <= 4; ++i) send_to_next_hop(*make_data(env, &c.rt, 9000, i));
  env.events.run_all();
  EXPECT_EQ(c.ingress.pauses_sent(), 0u);
  EXPECT_EQ(c.sink.count(), 4u);
}

TEST(pfc, xoff_pauses_upstream_and_xon_resumes) {
  sim_env env;
  pfc_chain c(env, 3 * 9000, 1 * 9000);
  const auto tp = testing::arm(c.egress);
  c.egress.set_paused(true);  // jam the egress so ingress accounting builds
  for (std::uint64_t i = 1; i <= 8; ++i) send_to_next_hop(*make_data(env, &c.rt, 9000, i));
  env.events.run_until(from_ms(1));
  EXPECT_EQ(c.ingress.pauses_sent(), 1u);
  EXPECT_TRUE(c.nic.paused());
  // Some packets are stuck in the NIC behind the pause.
  EXPECT_GT(c.nic.buffered_packets(), 0u);

  c.egress.set_paused(false);  // unjam: egress drains, credits ingress
  env.events.run_all();
  EXPECT_FALSE(c.nic.paused());
  EXPECT_EQ(c.sink.count(), 8u);  // lossless: everything arrives
  EXPECT_EQ(c.egress.telemetry().drop_pkts, 0u);
  EXPECT_EQ(env.pool.outstanding(), 0u);
}

TEST(pfc, accounting_credits_on_departure) {
  sim_env env;
  pfc_chain c(env, 100 * 9000, 50 * 9000);
  for (std::uint64_t i = 1; i <= 3; ++i) send_to_next_hop(*make_data(env, &c.rt, 9000, i));
  env.events.run_all();
  EXPECT_EQ(c.ingress.buffered_bytes(), 0u);  // all departed
}

TEST(pfc, pause_arrives_after_propagation_delay) {
  sim_env env;
  pfc_chain c(env, 1 * 9000, 0);
  c.egress.set_paused(true);
  // Two packets: the second arrival pushes accounting over 9000 bytes.
  send_to_next_hop(*make_data(env, &c.rt, 9000, 1));
  send_to_next_hop(*make_data(env, &c.rt, 9000, 2));
  // Arrival at ingress: 7.2 + 1 = 8.2us (first), 15.4us (second). The pause
  // is sent at 15.4+1e... it crosses XOFF at the second arrival and reaches
  // the NIC one link delay (1us) later.
  env.events.run_until(from_us(16.0));
  EXPECT_FALSE(c.nic.paused());
  env.events.run_until(from_us(17.0));
  EXPECT_TRUE(c.nic.paused());
}

TEST(pfc, head_of_line_blocking_hits_innocent_traffic) {
  // Two NICs feed one ingress-accounted port... simplified: one NIC paused by
  // PFC cannot send even packets destined to an uncongested output — the
  // essence of PFC collateral damage.
  sim_env env;
  pfc_chain c(env, 2 * 9000, 1 * 9000);
  c.egress.set_paused(true);
  for (std::uint64_t i = 1; i <= 6; ++i) send_to_next_hop(*make_data(env, &c.rt, 9000, i));
  env.events.run_until(from_ms(1));
  ASSERT_TRUE(c.nic.paused());
  // An "innocent" packet through the same NIC is now stuck behind the pause.
  recording_sink other(env);
  owned_route r2;
  r2.push_back(&c.nic);
  r2.push_back(&other);
  send_to_next_hop(*make_data(env, &r2, 9000, 99));
  env.events.run_until(from_ms(2));
  EXPECT_EQ(other.count(), 0u);  // blocked although its path is idle
  c.egress.set_paused(false);
  env.events.run_all();
  EXPECT_EQ(other.count(), 1u);
}

}  // namespace
}  // namespace ndpsim
