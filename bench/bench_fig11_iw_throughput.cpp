// Fig 11: throughput of a single NDP flow between two back-to-back hosts as
// a function of the initial window, with and without the host-processing
// delay model ("Perfect" vs "Experimental").
//
// The link one-way delay is 50us, so the bandwidth-delay product is ~15 full
// 9K packets: the Perfect curve saturates at IW~15.  The prototype buffers
// ~10 extra packets of host processing (36us per direction), pushing the
// knee to IW~25 — exactly the paper's observation.
#include "bench_util.h"
#include "harness/flow_factory.h"
#include "harness/queue_factory.h"
#include "host/artifacts.h"
#include "topo/micro_topo.h"

namespace ndpsim {
namespace {

double run_iw(std::uint32_t iw, bool host_delays) {
  sim_env env(3);
  fabric_params fp;
  fp.proto = protocol::ndp;
  const simtime_t delay =
      from_us(50) + (host_delays ? host_delay_model{}.per_direction : 0);
  back_to_back topo(env, gbps(10), delay, make_queue_factory(env, fp));
  flow_factory flows(env, topo);
  flow_options o;  // unbounded
  o.iw_packets = iw;
  // A grossly oversized IW self-inflates the RTT past the 1ms default RTO
  // (256 packets = 1.8ms of NIC backlog); the paper's point here is
  // throughput vs IW, so keep the RTO backstop out of the way.
  o.ndp_rto = from_ms(10);
  flow& f = flows.create(protocol::ndp, 0, 1, o);
  env.events.run_until(from_ms(5));
  const std::uint64_t base = f.payload_received();
  env.events.run_until(from_ms(15));
  return static_cast<double>(f.payload_received() - base) * 8 /
         to_sec(from_ms(10)) / 1e9;
}

}  // namespace
}  // namespace ndpsim

int main() {
  using namespace ndpsim;
  bench::print_banner(
      "Fig 11: throughput vs initial window, back-to-back hosts",
      "Perfect saturates 10G at IW~15; with host processing delays the knee "
      "moves to IW~25 (the prototype's extra ~10 buffered packets)");
  for (const bool host_delays : {false, true}) {
    for (const std::uint32_t iw :
         {1, 2, 4, 8, 12, 15, 20, 25, 32, 64, 128, 256}) {
      bench::print_row(
          std::string(host_delays ? "Experimental (host delays)" : "Perfect") +
              " IW=" + std::to_string(iw),
          {{"throughput_gbps", run_iw(iw, host_delays)}});
    }
  }
  return 0;
}
