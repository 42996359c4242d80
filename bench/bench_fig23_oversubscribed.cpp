// Fig 23: the Facebook "web" workload (small packets, no rack locality) on a
// 4:1 oversubscribed three-tier FatTree, closed-loop arrivals, at two load
// levels (5 and 10 simultaneous connections per host).  NDP vs DCTCP FCTs.
//
// This is NDP's least favourable regime: most traffic crosses the
// oversubscribed core, and small packets give a poor trimming compression
// ratio — yet it should still beat DCTCP in the median and hold the tail,
// with no congestion collapse.
//
// LIMITATION — how the 4:1 is produced: `fat_tree` emulates oversubscription
// by hanging `oversubscription * k/2` hosts off each ToR while keeping the
// ToR->agg and agg->core tiers fully provisioned.  That concentrates the
// entire 4:1 ratio at the ToR uplink tier; a production 4:1 fabric typically
// spreads it across tiers (fewer uplinks/cores), which shapes where queues
// build and where NDP trims.  The headline comparison (NDP vs DCTCP under
// core-crossing load) survives this, but per-tier queue depths should not be
// read as a literal reproduction of the paper's fabric.  Each run emits the
// effective ratio actually wired — host ingress capacity over ToR uplink
// capacity, from the instantiated queues, not the config knob — as the
// `effective_oversubscription` counter of its row, so readers can see what
// fabric the numbers came from.
#include "bench_util.h"
#include "harness/experiments.h"
#include "sim/telemetry.h"
#include "workload/closed_loop.h"
#include "workload/size_distributions.h"

namespace ndpsim {
namespace {

struct load_result {
  double median_ms;
  double p90_ms;
  double p99_ms;
  double completed;
  double trim_frac_tor;
  double effective_oversubscription;
};

/// The ratio actually wired into the instantiated fabric: aggregate host
/// ingress capacity per ToR over aggregate ToR uplink capacity (computed
/// from the live queues' rates, so a speed override or config change shows
/// up here rather than silently diverging from the `oversubscription` knob).
double effective_ratio(const fat_tree& ft) {
  const double host_in = static_cast<double>(ft.hosts_per_tor()) *
                         static_cast<double>(ft.host_link_speed(0));
  const auto& tor_up = ft.queues_at(link_level::tor_up);
  const std::size_t uplinks_per_tor = tor_up.size() / ft.n_tors();
  double uplink_out = 0;
  for (std::size_t u = 0; u < uplinks_per_tor; ++u) {
    uplink_out += static_cast<double>(tor_up[u]->rate());
  }
  return uplink_out > 0 ? host_in / uplink_out : 0.0;
}

load_result run_load(protocol proto, unsigned conns_per_host) {
  fabric_params fp;
  fp.proto = proto;
  fp.mtu_bytes = 1500;  // web traffic: small packets
  const unsigned k = bench::paper_scale() ? 8 : 4;  // 512 or 64 hosts at 4:1
  // The ToR trim fraction is read from the telemetry plane, which must be
  // attached before the fabric is built.
  sim_env env(23);
  const auto bp = make_fat_tree_blueprint(k, fp, /*oversubscription=*/4);
  env.telemetry = std::make_shared<telemetry_plane>(bp->n_slots(), bp.get());
  testbed bed(env, bp, fp);

  closed_loop_generator gen(
      env, bed.topo->n_hosts(), conns_per_host, facebook_web_sizes(),
      from_ms(1),
      [&](std::uint32_t src, std::uint32_t dst, std::uint64_t bytes,
          simtime_t start, std::function<void()> done) {
        flow_options o;
        o.bytes = bytes;
        o.start = start;
        o.mss_bytes = 1500;
        o.handshake = false;
        o.min_rto = from_ms(1);
        flow& f = bed.flows->create(proto, src, dst, o);
        f.on_complete(std::move(done));
      });
  gen.start();
  env.events.run_until(from_ms(bench::paper_scale() ? 120 : 80));
  gen.stop();

  load_result r{};
  const auto& fct = gen.fcts().fct_us();
  r.median_ms = fct.median() / 1000.0;
  r.p90_ms = fct.quantile(0.90) / 1000.0;
  r.p99_ms = fct.quantile(0.99) / 1000.0;
  r.completed = static_cast<double>(gen.fcts().completed());
  const auto tor_up = bed.topo->aggregate_stats(link_level::tor_up);
  r.trim_frac_tor =
      tor_up.enq_pkts > 0
          ? static_cast<double>(tor_up.trim_pkts) /
                static_cast<double>(tor_up.enq_pkts)
          : 0.0;
  r.effective_oversubscription = effective_ratio(*bed.topo);
  return r;
}

}  // namespace
}  // namespace ndpsim

int main() {
  using namespace ndpsim;
  bench::print_banner(
      "Fig 23: Facebook web workload, 4:1 oversubscribed fabric",
      "medium load: NDP median FCT ~half DCTCP's, ~1/3 at the 99th; high "
      "load (~70% ToR trimming): NDP still slightly ahead in median and "
      "tail, and no congestion collapse");
  for (const unsigned conns : {5, 10}) {
    for (const protocol proto : {protocol::ndp, protocol::dctcp}) {
      const load_result r = run_load(proto, conns);
      bench::print_row(std::string(to_string(proto)) +
                           (conns <= 5 ? " medium load" : " high load"),
                       {{"median_ms", r.median_ms},
                        {"p90_ms", r.p90_ms},
                        {"p99_ms", r.p99_ms},
                        {"flows_completed", r.completed},
                        {"tor_uplink_trim_frac", r.trim_frac_tor},
                        {"effective_oversubscription",
                         r.effective_oversubscription}});
    }
  }
  return 0;
}
