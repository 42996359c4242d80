// Example: bringing your own topology and switch configuration.
//
// Shows the extension points a downstream user needs:
//   * a custom queue_factory (here: NDP queues with a deliberately tiny
//     header queue plus return-to-sender, to watch RTS kick in),
//   * a leaf-spine topology instead of the FatTree,
//   * direct access to per-queue statistics,
//   * the zero-RTT acceptor for listen-style applications.
//
//   ./examples/custom_topology
#include <algorithm>
#include <cstdio>

#include "harness/flow_factory.h"
#include "harness/queue_factory.h"
#include "ndp/ndp_acceptor.h"
#include "ndp/ndp_queue.h"
#include "net/fifo_queues.h"
#include "topo/micro_topo.h"
#include "workload/cbr_source.h"
#include "workload/traffic_matrix.h"

using namespace ndpsim;

int main() {
  sim_env env(11);

  // A queue factory is just a function: build whatever discipline you like
  // per link level. Here: 6-packet data queues and a header queue of only
  // four headers, so large incasts must fall back to return-to-sender.
  queue_factory factory = [&env](link_level level, std::size_t,
                                 linkspeed_bps rate)
      -> std::unique_ptr<queue_base> {
    if (level == link_level::host_up) {
      return std::make_unique<host_priority_queue>(env, rate);
    }
    ndp_queue_config qc;
    qc.data_capacity_bytes = 6 * 9000;
    qc.header_capacity_bytes = 2 * kHeaderBytes;
    qc.enable_rts = true;
    return std::make_unique<ndp_queue>(env, rate, qc);
  };

  // 6 leaves x 4 hosts, 3 spines.
  leaf_spine topo(env, 6, 3, 4, gbps(10), from_us(1), factory);
  flow_factory flows(env, topo);
  std::printf("leaf-spine: %zu hosts, %zu paths between distant hosts\n",
              topo.n_hosts(), topo.n_paths(0, 23));

  // 20-to-1 incast of single-packet responses: the worst case for the tiny
  // header queue.
  const auto senders = incast_senders(env.rng, topo.n_hosts(), 0, 20);
  std::vector<flow*> fs;
  for (auto s : senders) {
    flow_options o;
    o.bytes = 30 * 8936;  // a full initial window each
    fs.push_back(&flows.create(protocol::ndp, s, 0, o));
  }
  while (env.events.run_next_event()) {
    if (std::all_of(fs.begin(), fs.end(),
                    [](flow* f) { return f->complete(); })) {
      break;
    }
  }

  std::uint64_t bounces = 0;
  std::uint64_t timeouts = 0;
  std::size_t done = 0;
  for (flow* f : fs) {
    done += f->complete() ? 1 : 0;
    bounces += f->ndp_src()->stats().bounces_received;
    timeouts += f->ndp_src()->stats().rtx_after_timeout;
  }
  std::printf("incast 20x30pkt: %zu/20 complete, %llu return-to-sender "
              "bounces, %llu RTO retransmissions\n",
              done, static_cast<unsigned long long>(bounces),
              static_cast<unsigned long long>(timeouts));

  // Zero-RTT listen: an acceptor creates per-connection state from whichever
  // first-RTT packet shows up first, and rejects time-wait duplicates.
  ndp_acceptor acceptor(env, [&](std::uint32_t flow_id) -> packet_sink* {
    std::printf("acceptor: connection %u established (SYN seen)\n", flow_id);
    static counting_sink sink{env};
    return &sink;
  });
  packet* p = env.pool.alloc();
  p->type = packet_type::ndp_data;
  p->flow_id = 4242;
  p->seqno = 5;  // not the first packet of the window — establishment still works
  p->set_flag(pkt_flag::syn);
  acceptor.receive(*p);
  acceptor.close(4242);
  std::printf("acceptor: %llu established, duplicates rejected so far %llu\n",
              static_cast<unsigned long long>(acceptor.established()),
              static_cast<unsigned long long>(acceptor.duplicates_rejected()));
  return done == 20 ? 0 : 1;
}
