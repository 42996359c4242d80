// Quickstart: the smallest useful NDP simulation.
//
// Builds a k=4 FatTree (16 hosts) with NDP switches, transfers 1MB between
// two hosts in different pods, and prints what happened: zero-RTT start,
// per-packet spraying across all 4 core paths, and completion statistics.
//
//   ./examples/quickstart
#include <cstdio>

#include "harness/experiments.h"

using namespace ndpsim;

int main() {
  // 1. A testbed = simulation env + FatTree with NDP queues + flow factory.
  fabric_params fabric;
  fabric.proto = protocol::ndp;       // trimming switches, 8-packet queues
  auto bed = make_fat_tree_testbed(/*seed=*/1, /*k=*/4, fabric);
  std::printf("topology: %zu hosts, %zu cores, %zu paths between distant hosts\n",
              bed->topo->n_hosts(), bed->topo->n_cores(),
              bed->topo->n_paths(0, 15));

  // 2. One 1MB NDP flow from host 0 to host 15 (different pod).
  flow_options opts;
  opts.bytes = 1'000'000;
  opts.iw_packets = 30;  // zero-RTT: the whole first window is pushed
  flow& f = bed->flows->create(protocol::ndp, 0, 15, opts);

  // 3. Run the event loop until the flow completes.
  run_until_complete(bed->env, {&f}, from_sec(1));

  // 4. Inspect the result.
  std::printf("completed: %s\n", f.complete() ? "yes" : "no");
  std::printf("flow completion time: %.1f us\n", f.fct_us());
  std::printf("payload delivered: %llu bytes\n",
              static_cast<unsigned long long>(f.payload_received()));
  const transport_counters s = f.stats();
  std::printf("packets sent: %llu (rtx %llu), ACKs %llu, NACKs %llu, "
              "PULLs %llu\n",
              static_cast<unsigned long long>(s.packets_sent),
              static_cast<unsigned long long>(s.rtx_after_nack +
                                              s.rtx_after_bounce +
                                              s.rtx_after_timeout),
              static_cast<unsigned long long>(s.acks_received),
              static_cast<unsigned long long>(s.nacks_received),
              static_cast<unsigned long long>(s.pulls_received));
  const double wire_us =
      to_us(serialization_time(f.payload_received(), gbps(10)));
  std::printf("(payload alone would take %.1f us to serialize at 10G)\n",
              wire_us);
  return f.complete() ? 0 : 1;
}
