// Property test for return-to-sender route reversal: a header bounced at the
// t-th queue of an n-queue symmetric path must come back to the source
// endpoint, whatever t and n.
#include <gtest/gtest.h>

#include <memory>

#include "ndp/ndp_queue.h"
#include "net/pipe.h"
#include "test_util.h"

namespace ndpsim {
namespace {

struct bounce_case {
  int n_queues;   // path length
  int jam_index;  // queue that bounces (0 = source NIC itself)
};

class bounce_math : public ::testing::TestWithParam<bounce_case> {};

TEST_P(bounce_math, header_returns_to_source_endpoint) {
  const auto [n, t] = GetParam();
  sim_env env;
  testing::recording_sink src_end(env), dst_end(env);

  // Build a forward chain of n ndp queues and a symmetric reverse chain.
  std::vector<std::unique_ptr<ndp_queue>> fq(n), rq(n);
  std::vector<std::unique_ptr<pipe>> fp(n), rp(n);
  ndp_queue_config roomy;
  roomy.data_capacity_bytes = 64 * 9000;
  roomy.header_capacity_bytes = 64 * 9000;
  ndp_queue_config jammed;
  jammed.data_capacity_bytes = 64 * 9000;
  jammed.header_capacity_bytes = 1;  // nothing fits: every header bounces
  auto fwd = std::make_unique<owned_route>();
  auto rev = std::make_unique<owned_route>();
  for (int i = 0; i < n; ++i) {
    fq[i] = std::make_unique<ndp_queue>(env, gbps(10), i == t ? jammed : roomy);
    rq[i] = std::make_unique<ndp_queue>(env, gbps(10), roomy);
    fp[i] = std::make_unique<pipe>(env, from_us(1));
    rp[i] = std::make_unique<pipe>(env, from_us(1));
    fwd->push_back(fq[i].get());
    fwd->push_back(fp[i].get());
    rev->push_back(rq[i].get());
    rev->push_back(rp[i].get());
  }
  fwd->push_back(&dst_end);
  rev->push_back(&src_end);
  fwd->set_reverse(rev.get());
  rev->set_reverse(fwd.get());

  // A pre-trimmed header travelling the forward path: at queue t its header
  // queue is full, forcing a bounce.
  packet* p = env.pool.alloc();
  p->type = packet_type::ndp_data;
  p->set_flag(pkt_flag::trimmed);
  p->size_bytes = kHeaderBytes;
  p->seqno = 77;
  p->src = 10;
  p->dst = 20;
  p->rt = fwd.get();
  p->reverse_rt = rev.get();
  p->next_hop = 0;
  send_to_next_hop(*p);
  env.events.run_all();

  ASSERT_EQ(src_end.count(), 1u) << "bounce from queue " << t << "/" << n;
  EXPECT_EQ(dst_end.count(), 0u);
  const auto& got = src_end.arrivals()[0];
  EXPECT_EQ(got.seqno, 77u);
  EXPECT_NE(got.flags & pkt_flag::bounced, 0);
  EXPECT_EQ(env.pool.outstanding(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    chain_positions, bounce_math,
    ::testing::Values(bounce_case{1, 0}, bounce_case{2, 0}, bounce_case{2, 1},
                      bounce_case{3, 1}, bounce_case{4, 0}, bounce_case{4, 2},
                      bounce_case{4, 3}, bounce_case{6, 1}, bounce_case{6, 3},
                      bounce_case{6, 5}));

}  // namespace
}  // namespace ndpsim
