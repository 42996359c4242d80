#include <gtest/gtest.h>

#include "net/fifo_queues.h"
#include "net/pipe.h"
#include "test_util.h"

namespace ndpsim {
namespace {

using testing::make_data;
using testing::recording_sink;

TEST(pipe, delays_by_propagation) {
  sim_env env;
  recording_sink sink(env);
  pipe pp(env, from_us(1));
  owned_route r;
  r.push_back(&pp);
  r.push_back(&sink);
  packet* p = make_data(env, &r);
  send_to_next_hop(*p);
  env.events.run_all();
  ASSERT_EQ(sink.count(), 1u);
  EXPECT_EQ(sink.arrivals()[0].at, from_us(1));
}

TEST(pipe, preserves_order_and_spacing) {
  sim_env env;
  recording_sink sink(env);
  pipe pp(env, from_us(2));
  owned_route r;
  r.push_back(&pp);
  r.push_back(&sink);
  for (std::uint64_t i = 1; i <= 3; ++i) {
    packet* p = make_data(env, &r, 9000, i);
    env.events.run_until(from_us(i));  // stagger entries 1us apart
    send_to_next_hop(*p);
  }
  env.events.run_all();
  ASSERT_EQ(sink.count(), 3u);
  for (std::uint64_t i = 0; i < 3; ++i) {
    EXPECT_EQ(sink.arrivals()[i].seqno, i + 1);
    EXPECT_EQ(sink.arrivals()[i].at, from_us(2 + 1 + i));
  }
}

TEST(drop_tail, serializes_at_line_rate) {
  sim_env env;
  recording_sink sink(env);
  drop_tail_queue q(env, gbps(10), 100 * 9000);
  owned_route r;
  r.push_back(&q);
  r.push_back(&sink);
  for (std::uint64_t i = 1; i <= 3; ++i) send_to_next_hop(*make_data(env, &r, 9000, i));
  env.events.run_all();
  ASSERT_EQ(sink.count(), 3u);
  // Store-and-forward: arrivals at 7.2, 14.4, 21.6 us.
  EXPECT_EQ(sink.arrivals()[0].at, from_us(7.2));
  EXPECT_EQ(sink.arrivals()[1].at, from_us(14.4));
  EXPECT_EQ(sink.arrivals()[2].at, from_us(21.6));
}

TEST(drop_tail, drops_when_full) {
  sim_env env;
  recording_sink sink(env);
  drop_tail_queue q(env, gbps(10), 2 * 9000);
  const auto tp = testing::arm(q);
  owned_route r;
  r.push_back(&q);
  r.push_back(&sink);
  // First packet goes into service immediately; two fill the buffer; the
  // fourth is dropped.
  for (std::uint64_t i = 1; i <= 4; ++i) send_to_next_hop(*make_data(env, &r, 9000, i));
  env.events.run_all();
  EXPECT_EQ(sink.count(), 3u);
  EXPECT_EQ(q.telemetry().drop_pkts, 1u);
  EXPECT_EQ(env.pool.outstanding(), 0u);  // dropped packet was released
}

TEST(drop_tail, byte_capacity_not_packet_count) {
  sim_env env;
  recording_sink sink(env);
  drop_tail_queue q(env, gbps(10), 18000);
  const auto tp = testing::arm(q);
  owned_route r;
  r.push_back(&q);
  r.push_back(&sink);
  // 1 in service + buffer holds 12 x 1500 = 18000.
  for (std::uint64_t i = 1; i <= 14; ++i) send_to_next_hop(*make_data(env, &r, 1500, i));
  env.events.run_all();
  EXPECT_EQ(sink.count(), 13u);
  EXPECT_EQ(q.telemetry().drop_pkts, 1u);
}

// Overrides only the scheduling discipline: LIFO service over drop-tail's
// buffer and admission.
class lifo_queue final : public drop_tail_queue {
 public:
  using drop_tail_queue::drop_tail_queue;

 protected:
  [[nodiscard]] packet* dequeue_next() override {
    if (fifo_.empty()) return nullptr;
    packet* p = fifo_.back();
    fifo_.pop_back();
    bytes_ -= p->size_bytes;
    return p;
  }
};

TEST(drop_tail, subclass_dequeue_override_is_honored) {
  sim_env env;
  recording_sink sink(env);
  lifo_queue q(env, gbps(10), 100 * 9000);
  owned_route r;
  r.push_back(&q);
  r.push_back(&sink);
  // Packet 1 goes straight into service; 2 and 3 wait, and the override
  // serves the newest first.
  for (std::uint64_t i = 1; i <= 3; ++i) send_to_next_hop(*make_data(env, &r, 9000, i));
  env.events.run_all();
  ASSERT_EQ(sink.count(), 3u);
  EXPECT_EQ(sink.arrivals()[0].seqno, 1u);
  EXPECT_EQ(sink.arrivals()[1].seqno, 3u);
  EXPECT_EQ(sink.arrivals()[2].seqno, 2u);
}

TEST(ecn_threshold, marks_ect_above_threshold) {
  sim_env env;
  recording_sink sink(env);
  ecn_threshold_queue q(env, gbps(10), 100 * 9000, 2 * 9000);
  const auto tp = testing::arm(q);
  owned_route r;
  r.push_back(&q);
  r.push_back(&sink);
  for (std::uint64_t i = 1; i <= 6; ++i) {
    packet* p = make_data(env, &r, 9000, i);
    p->set_flag(pkt_flag::ect);
    send_to_next_hop(*p);
  }
  env.events.run_all();
  ASSERT_EQ(sink.count(), 6u);
  // Packet 1 enters service; 2,3 fill up to the threshold; marking is
  // strictly-above, so 4 sees exactly K (unmarked) and 5,6 are marked.
  int marked = 0;
  for (const auto& a : sink.arrivals()) {
    if ((a.flags & pkt_flag::ce) != 0) ++marked;
  }
  EXPECT_EQ(marked, 2);
  EXPECT_EQ(q.telemetry().mark_pkts, 2u);
}

TEST(ecn_threshold, ignores_non_ect) {
  sim_env env;
  recording_sink sink(env);
  ecn_threshold_queue q(env, gbps(10), 100 * 9000, 0);
  owned_route r;
  r.push_back(&q);
  r.push_back(&sink);
  for (std::uint64_t i = 1; i <= 3; ++i) send_to_next_hop(*make_data(env, &r, 9000, i));
  env.events.run_all();
  for (const auto& a : sink.arrivals()) EXPECT_EQ(a.flags & pkt_flag::ce, 0);
}

TEST(red_ecn, marks_probabilistically_between_thresholds) {
  sim_env env(7);
  recording_sink sink(env);
  red_ecn_queue q(env, gbps(10), 1000 * 1500, 5 * 1500, 50 * 1500, 1.0);
  const auto tp = testing::arm(q);
  owned_route r;
  r.push_back(&q);
  r.push_back(&sink);
  for (std::uint64_t i = 1; i <= 200; ++i) {
    packet* p = make_data(env, &r, 1500, i);
    p->set_flag(pkt_flag::ect);
    send_to_next_hop(*p);
  }
  env.events.run_all();
  // Queue fills far beyond kmax, so most packets after the first few must be
  // marked — but the first five (below kmin) must not be.
  EXPECT_GT(q.telemetry().mark_pkts, 100u);
  int first_marked = -1;
  int idx = 0;
  for (const auto& a : sink.arrivals()) {
    if ((a.flags & pkt_flag::ce) != 0) {
      first_marked = idx;
      break;
    }
    ++idx;
  }
  EXPECT_GE(first_marked, 5);
}

TEST(host_priority, control_preempts_data) {
  sim_env env;
  recording_sink sink(env);
  host_priority_queue q(env, gbps(10));
  owned_route r;
  r.push_back(&q);
  r.push_back(&sink);
  // Fill with data, then inject a control packet: it must jump the queue
  // (but not preempt the packet already serializing).
  for (std::uint64_t i = 1; i <= 3; ++i) send_to_next_hop(*make_data(env, &r, 9000, i));
  packet* ack = env.pool.alloc();
  ack->type = packet_type::ndp_ack;
  ack->size_bytes = kHeaderBytes;
  ack->seqno = 99;
  ack->rt = &r;
  ack->next_hop = 0;
  send_to_next_hop(*ack);
  env.events.run_all();
  ASSERT_EQ(sink.count(), 4u);
  EXPECT_EQ(sink.arrivals()[0].seqno, 1u);   // already in service
  EXPECT_EQ(sink.arrivals()[1].seqno, 99u);  // control next
  EXPECT_EQ(sink.arrivals()[2].seqno, 2u);
}

TEST(queue_pausing, paused_queue_finishes_current_packet_only) {
  sim_env env;
  recording_sink sink(env);
  drop_tail_queue q(env, gbps(10), 100 * 9000);
  owned_route r;
  r.push_back(&q);
  r.push_back(&sink);
  send_to_next_hop(*make_data(env, &r, 9000, 1));
  send_to_next_hop(*make_data(env, &r, 9000, 2));
  q.set_paused(true);
  env.events.run_until(from_us(50));
  EXPECT_EQ(sink.count(), 1u);  // in-flight packet completed, next one held
  q.set_paused(false);
  env.events.run_all();
  EXPECT_EQ(sink.count(), 2u);
  // Resume happened at 50us; the second packet serialized from there.
  EXPECT_EQ(sink.arrivals()[1].at, from_us(57.2));
}

TEST(queue_stats, byte_and_packet_counters) {
  sim_env env;
  recording_sink sink(env);
  drop_tail_queue q(env, gbps(10), 100 * 9000);
  const auto tp = testing::arm(q);
  owned_route r;
  r.push_back(&q);
  r.push_back(&sink);
  send_to_next_hop(*make_data(env, &r, 9000, 1));
  send_to_next_hop(*make_data(env, &r, 1500, 2));
  env.events.run_all();
  EXPECT_EQ(q.telemetry().enq_pkts, 2u);
  EXPECT_EQ(q.telemetry().deq_pkts, 2u);
  EXPECT_EQ(q.telemetry().deq_bytes, 10500u);
}

}  // namespace
}  // namespace ndpsim
