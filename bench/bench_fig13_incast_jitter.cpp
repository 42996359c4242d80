// Fig 13: does imperfect pull pacing matter?  A large incast (200:1 at paper
// scale) with flow sizes 10..120KB, run once with perfect pacing and once
// with the measured pull-spacing distribution plugged into the pacer.  The
// completion times should be indistinguishable.
#include "bench_util.h"
#include "harness/experiments.h"
#include "host/artifacts.h"
#include "workload/traffic_matrix.h"

namespace ndpsim {
namespace {

double run_incast_fct(std::uint64_t bytes, bool jittered) {
  fabric_params fp;
  fp.proto = protocol::ndp;
  fp.mtu_bytes = 1500;  // paper uses 1500B packets here
  auto bed = make_fat_tree_testbed(23, bench::default_k(), fp);
  const std::size_t n =
      std::min<std::size_t>(bench::paper_scale() ? 200 : 100,
                            bed->topo->n_hosts() - 1);
  if (jittered) {
    bed->flows->ndp_pacer(0).set_interval_jitter(
        make_pull_jitter(bed->env, 1500));
  }
  const auto senders = incast_senders(bed->env.rng, bed->topo->n_hosts(), 0, n);
  flow_options o;
  o.mss_bytes = 1500;
  o.iw_packets = 30;
  const auto res =
      run_incast(*bed, protocol::ndp, senders, 0, bytes, o, from_sec(5));
  return res.last_fct_us;
}

}  // namespace
}  // namespace ndpsim

int main() {
  using namespace ndpsim;
  bench::print_banner(
      "Fig 13: incast completion, perfect vs measured pull spacing",
      "the two curves overlap: real-world pull jitter has no discernible "
      "effect on incast FCTs");
  for (const bool jittered : {false, true}) {
    for (const std::uint64_t kb : {10, 20, 40, 60, 80, 120}) {
      bench::print_row(
          std::string(jittered ? "experimental pulls" : "perfect pulls") +
              " " + std::to_string(kb) + "KB",
          {{"last_fct_us", run_incast_fct(kb * 1000, jittered)}});
    }
  }
  return 0;
}
