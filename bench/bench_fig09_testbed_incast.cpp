// Fig 9: seven-to-one incast on the 8-server two-tier testbed (four-port
// switches: 4 ToRs x 2 hosts, 2 spines), response size 10KB..1MB.
// NDP vs TCP, median and 90th percentile of the incast completion time,
// against the theoretical optimum (receiver link saturated).
#include "bench_util.h"
#include "harness/experiments.h"
#include "harness/flow_factory.h"
#include "topo/micro_topo.h"

namespace ndpsim {
namespace {

struct trial_result {
  double median_ms;
  double p90_ms;
};

trial_result run_trials(protocol proto, std::uint64_t bytes, int n_trials) {
  sample_set completion_ms;
  for (int trial = 0; trial < n_trials; ++trial) {
    sim_env env(100 + trial);
    fabric_params fp;
    fp.proto = proto;
    if (proto == protocol::tcp) {
      // The Linux side of the testbed: 1500B MTU and the NetFPGA's modest
      // per-port buffering (its output queues are small), so slow-start
      // overshoot actually loses packets as it did on the testbed.
      fp.mtu_bytes = 1500;
      fp.droptail_pkts = 300;  // ~450KB shared-ish buffer at 1500B
    }
    leaf_spine topo(env, 4, 2, 2, gbps(10), from_us(1),
                    make_queue_factory(env, fp));
    flow_factory flows(env, topo);
    std::vector<flow*> fs;
    for (std::uint32_t s = 1; s < 8; ++s) {
      flow_options o;
      o.bytes = bytes;
      o.start = static_cast<simtime_t>(env.rand_below(1000)) * kNanosecond;
      // Paper's Linux TCP: handshake + 200ms MinRTO, 1500B frames.
      o.handshake = true;
      o.min_rto = from_ms(200);
      if (proto == protocol::tcp) {
        o.mss_bytes = 1500;
        // Typical (small-RTT datacenter) receive-window autotuning bound:
        // keeps slow-start overshoot recoverable by fast retransmit, as on
        // the testbed ("median flows do not suffer timeouts").
        o.max_cwnd_mss = 64;
      }
      fs.push_back(&flows.create(proto, s, 0, o));
    }
    run_until_complete(env, fs, from_sec(3));
    double last = 0;
    for (flow* f : fs) {
      if (f->complete()) last = std::max(last, to_us(f->completion_time()));
    }
    completion_ms.add(last / 1000.0);
  }
  return trial_result{completion_ms.median(), completion_ms.quantile(0.90)};
}

}  // namespace
}  // namespace ndpsim

int main() {
  using namespace ndpsim;
  bench::print_banner(
      "Fig 9: 7:1 incast completion time vs response size (testbed topology)",
      "NDP within ~5% of the optimum and its 90th percentile within 10% of "
      "its median; TCP ~4x slower in the median with a 90th percentile blown "
      "up by 200ms RTOs");
  for (const std::uint64_t kb : {10, 50, 100, 250, 500, 1000}) {
    for (const protocol proto : {protocol::ndp, protocol::tcp}) {
      const trial_result r = run_trials(proto, kb * 1000, 9);
      bench::print_row(
          std::string(to_string(proto)) + " " + std::to_string(kb) + "KB",
          {{"median_ms", r.median_ms},
           {"p90_ms", r.p90_ms},
           {"optimal_ms",
            incast_optimal_us(7, kb * 1000, 9000, gbps(10), from_us(18)) /
                1000.0}});
    }
  }
  return 0;
}
