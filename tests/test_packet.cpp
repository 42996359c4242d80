#include <gtest/gtest.h>

#include <set>

#include "net/packet.h"
#include "net/route.h"
#include "net/sim_env.h"
#include "test_util.h"

namespace ndpsim {
namespace {

TEST(packet_pool, alloc_returns_value_initialized) {
  packet_pool pool;
  packet* p = pool.alloc();
  p->seqno = 42;
  p->flags = 0xff;
  pool.release(p);
  packet* q = pool.alloc();
  EXPECT_EQ(q->seqno, 0u);
  EXPECT_EQ(q->flags, 0u);
  pool.release(q);
}

TEST(packet_pool, tracks_outstanding) {
  packet_pool pool;
  EXPECT_EQ(pool.outstanding(), 0u);
  packet* a = pool.alloc();
  packet* b = pool.alloc();
  EXPECT_EQ(pool.outstanding(), 2u);
  pool.release(a);
  EXPECT_EQ(pool.outstanding(), 1u);
  pool.release(b);
  EXPECT_EQ(pool.outstanding(), 0u);
}

TEST(packet_pool, double_free_throws) {
  packet_pool pool;
  packet* a = pool.alloc();
  pool.release(a);
  EXPECT_THROW(pool.release(a), simulation_error);
}

TEST(packet_pool, interleaved_double_free_throws) {
  // With another packet still outstanding, the aggregate counter alone would
  // let this re-release slip through; the per-packet in-pool flag catches it.
  packet_pool pool;
  packet* a = pool.alloc();
  packet* b = pool.alloc();
  pool.release(a);
  EXPECT_THROW(pool.release(a), simulation_error);
  EXPECT_EQ(pool.outstanding(), 1u);  // the failed release changed nothing
  pool.release(b);
  EXPECT_EQ(pool.outstanding(), 0u);
}

TEST(packet_pool, released_packet_can_be_reallocated_cleanly) {
  packet_pool pool;
  packet* a = pool.alloc();
  a->seqno = 7;
  pool.release(a);
  packet* b = pool.alloc();  // same storage, poison must be wiped
  EXPECT_EQ(b, a);
  EXPECT_EQ(b->seqno, 0u);
  EXPECT_FALSE(b->in_pool);
  pool.release(b);
}

TEST(packet_pool, lifo_reuses_last_released_slot) {
  // The free list is a plain stack: the last slot released is the next one
  // handed out, whatever order the releases before it came in.
  packet_pool pool;
  std::vector<packet*> ps;
  for (int i = 0; i < 8; ++i) ps.push_back(pool.alloc());
  for (int i : {5, 2, 7}) pool.release(ps[i]);
  EXPECT_EQ(pool.alloc(), ps[7]);
  EXPECT_EQ(pool.alloc(), ps[2]);
  EXPECT_EQ(pool.alloc(), ps[5]);
}

TEST(packet_pool, fresh_slab_is_handed_out_in_ascending_address_order) {
  packet_pool pool;
  std::vector<packet*> ps;
  for (int i = 0; i < 2048; ++i) ps.push_back(pool.alloc());  // two slabs
  for (std::uint32_t i = 0; i < ps.size(); ++i) {
    EXPECT_EQ(ps[i]->pool_index, i);
    EXPECT_EQ(ps[i], ps[i - i % 1024] + i % 1024);  // slab base + slot
  }
}

TEST(packet_pool, double_free_detected_after_churn_across_two_slabs) {
  // The in-pool flag lives in the packet itself, so a stale pointer is
  // rejected however churn has reordered the free list, and every slot
  // comes back exactly once.
  packet_pool pool;
  std::vector<packet*> ps, again;
  for (int i = 0; i < 1500; ++i) ps.push_back(pool.alloc());
  for (std::size_t i = 0; i < ps.size(); i += 2) pool.release(ps[i]);
  for (int i = 0; i < 300; ++i) again.push_back(pool.alloc());
  for (std::size_t i = 1; i < ps.size(); i += 2) pool.release(ps[i]);
  EXPECT_THROW(pool.release(ps[0]), simulation_error);     // first slab
  EXPECT_THROW(pool.release(ps[1101]), simulation_error);  // second slab
  EXPECT_EQ(pool.outstanding(), again.size());
  for (packet* p : again) pool.release(p);
  std::set<packet*> seen;
  for (int i = 0; i < 1500; ++i) seen.insert(pool.alloc());
  EXPECT_EQ(seen.size(), 1500u);
  EXPECT_EQ(pool.capacity(), 2048u);
}

TEST(packet_pool, live_packets_keep_contents_while_others_churn) {
  packet_pool pool;
  std::vector<packet*> live;
  for (int round = 0; round < 4; ++round) {
    std::vector<packet*> tmp;
    for (int i = 0; i < 1500; ++i) tmp.push_back(pool.alloc());
    for (std::size_t i = 0; i < tmp.size(); ++i) {
      if (i % 100 == 0) {
        tmp[i]->seqno = live.size();
        live.push_back(tmp[i]);
      }
    }
    // Release the rest out of allocation order: odd slots, then even ones.
    for (std::size_t i = 1; i < tmp.size(); i += 2) pool.release(tmp[i]);
    for (std::size_t i = 2; i < tmp.size(); i += 2) {
      if (i % 100 != 0) pool.release(tmp[i]);
    }
  }
  for (std::size_t i = 0; i < live.size(); ++i) {
    EXPECT_EQ(live[i]->seqno, i);
    EXPECT_FALSE(live[i]->in_pool);
  }
  for (packet* p : live) pool.release(p);
  EXPECT_EQ(pool.outstanding(), 0u);
}

TEST(packet_pool, grows_beyond_one_block) {
  packet_pool pool;
  std::vector<packet*> ps;
  for (int i = 0; i < 3000; ++i) ps.push_back(pool.alloc());
  EXPECT_GE(pool.capacity(), 3000u);
  for (packet* p : ps) pool.release(p);
  EXPECT_EQ(pool.outstanding(), 0u);
}

TEST(packet, flag_helpers) {
  packet p;
  EXPECT_FALSE(p.has_flag(pkt_flag::syn));
  p.set_flag(pkt_flag::syn);
  p.set_flag(pkt_flag::last);
  EXPECT_TRUE(p.has_flag(pkt_flag::syn));
  EXPECT_TRUE(p.has_flag(pkt_flag::last));
  p.clear_flag(pkt_flag::syn);
  EXPECT_FALSE(p.has_flag(pkt_flag::syn));
  EXPECT_TRUE(p.has_flag(pkt_flag::last));
}

TEST(packet, header_class_classification) {
  packet p;
  p.type = packet_type::ndp_data;
  EXPECT_FALSE(p.is_header_class());
  p.set_flag(pkt_flag::trimmed);
  EXPECT_TRUE(p.is_header_class());  // trimmed data rides the header queue
  packet a;
  a.type = packet_type::ndp_ack;
  EXPECT_TRUE(a.is_header_class());
  packet t;
  t.type = packet_type::tcp_data;
  EXPECT_FALSE(t.is_header_class());
  packet k;
  k.type = packet_type::tcp_ack;
  EXPECT_TRUE(k.is_header_class());
}

TEST(packet, control_type_classification) {
  EXPECT_FALSE(is_control(packet_type::ndp_data));
  EXPECT_FALSE(is_control(packet_type::cbr_data));
  EXPECT_FALSE(is_control(packet_type::phost_data));
  EXPECT_TRUE(is_control(packet_type::ndp_pull));
  EXPECT_TRUE(is_control(packet_type::dcqcn_cnp));
  EXPECT_TRUE(is_control(packet_type::phost_token));
}

TEST(packet, send_to_next_hop_walks_route) {
  sim_env env;
  testing::recording_sink s1(env), s2(env);
  owned_route r;
  r.push_back(&s1);
  packet* p = testing::make_data(env, &r);
  send_to_next_hop(*p);
  EXPECT_EQ(s1.count(), 1u);
  EXPECT_EQ(s2.count(), 0u);
  EXPECT_EQ(env.pool.outstanding(), 0u);
}

TEST(packet, running_off_route_throws) {
  sim_env env;
  owned_route r;  // empty
  packet* p = testing::make_data(env, &r);
  EXPECT_THROW(send_to_next_hop(*p), simulation_error);
  env.pool.release(p);
}

TEST(route, reverse_registration) {
  owned_route f, r;
  f.set_reverse(&r);
  r.set_reverse(&f);
  EXPECT_EQ(f.reverse(), &r);
  EXPECT_EQ(r.reverse(), &f);
}

TEST(route, queue_hops_counts_pairs) {
  sim_env env;
  testing::recording_sink end(env);
  owned_route r;
  // [q, p, q, p, endpoint] -> 2 queue hops
  testing::recording_sink a(env), b(env), c(env), d(env);
  r.push_back(&a);
  r.push_back(&b);
  r.push_back(&c);
  r.push_back(&d);
  r.push_back(&end);
  EXPECT_EQ(r.queue_hops(), 2u);
}

}  // namespace
}  // namespace ndpsim
