// Fig 2: congestion collapse and phase problems with CP vs the NDP switch.
//
// N unresponsive line-rate flows converge on one 10Gb/s port.  With CP's
// single FIFO, trimmed headers consume a growing share of the link and
// deterministic trimming favours some senders (phase effects): mean goodput
// collapses and the worst-10% flows collapse faster.  The NDP queue's WRR
// (10 headers : 1 data) caps header overhead and the 50% trim coin breaks
// phase locking: both curves stay near 100% of fair share.
#include <algorithm>

#include "bench_util.h"
#include "cp/cp_queue.h"
#include "net/fifo_queues.h"
#include "ndp/ndp_queue.h"
#include "topo/micro_topo.h"
#include "topo/path_table.h"
#include "stats/cdf.h"
#include "workload/cbr_source.h"

namespace ndpsim {
namespace {

struct collapse_result {
  double mean_pct;
  double worst10_pct;
};

collapse_result run_collapse(bool use_ndp_queue, std::size_t n_flows,
                             std::uint64_t seed) {
  sim_env env(seed);
  const std::uint32_t mtu = 9000;
  auto factory = [&](link_level level, std::size_t,
                     linkspeed_bps rate) -> std::unique_ptr<queue_base> {
    if (level == link_level::host_up) {
      return std::make_unique<host_priority_queue>(env, rate);
    }
    if (use_ndp_queue) {
      ndp_queue_config c;
      c.data_capacity_bytes = 8ull * mtu;
      c.header_capacity_bytes = 8ull * mtu;
      return std::make_unique<ndp_queue>(env, rate, c);
    }
    return std::make_unique<cp_queue>(env, rate, 8ull * mtu);
  };
  single_switch star(env, n_flows + 1, gbps(10), from_us(1), factory);
  const auto rx = static_cast<std::uint32_t>(n_flows);

  std::vector<std::unique_ptr<cbr_source>> sources;
  std::vector<std::unique_ptr<counting_sink>> sinks;
  for (std::uint32_t i = 0; i < n_flows; ++i) {
    auto sink = std::make_unique<counting_sink>(env);
    // Send jitter plus per-sender clock skew model OS/NIC timing
    // variability and crystal tolerance (the paper notes real-world phase
    // effects are partially masked by exactly this); skew makes sender
    // phases precess through each other instead of locking.
    const double skew = 1.0 + (static_cast<double>((i * 7919u) % 101u) - 50.0) * 1e-4;
    const auto rate = static_cast<linkspeed_bps>(10e9 * skew);
    auto src = std::make_unique<cbr_source>(env, rate, mtu, i, 0.10);
    src->start(star.paths().single(i, rx, 0), sink.get(), i, rx,
               static_cast<simtime_t>(i) * 100);
    sources.push_back(std::move(src));
    sinks.push_back(std::move(sink));
  }

  const simtime_t warmup = from_ms(4);
  // Longer windows for larger N so per-flow goodput has enough packets for
  // the worst-10% statistic to be about fairness rather than sampling noise.
  const simtime_t measure =
      std::min<simtime_t>(from_ms(20) + n_flows * from_ms(0.4), from_ms(60));
  env.events.run_until(warmup);
  std::vector<std::uint64_t> base(n_flows);
  for (std::size_t i = 0; i < n_flows; ++i) base[i] = sinks[i]->payload_bytes();
  env.events.run_until(warmup + measure);

  // Fair share of goodput: the link carries payload at rate * (payload/mtu).
  const double fair_bps = 10e9 * (mtu - kHeaderBytes) / mtu /
                          static_cast<double>(n_flows);
  sample_set pct;
  for (std::size_t i = 0; i < n_flows; ++i) {
    const double bps =
        static_cast<double>(sinks[i]->payload_bytes() - base[i]) * 8 /
        to_sec(measure);
    pct.add(100.0 * bps / fair_bps);
  }
  return collapse_result{pct.mean(), pct.mean_lowest(0.10)};
}

}  // namespace
}  // namespace ndpsim

int main() {
  using namespace ndpsim;
  bench::print_banner(
      "Fig 2: percent of fair goodput vs number of unresponsive flows",
      "CP mean decays with N and its worst-10% collapses (phase effects); "
      "NDP stays ~90-100% for both, flat in N");
  for (const std::size_t n : {4, 10, 20, 40, 80, 140, 200}) {
    for (const bool ndp : {false, true}) {
      const collapse_result r = run_collapse(ndp, n, 1);
      bench::print_row(
          std::string(ndp ? "NDP switch" : "CP switch") + " n=" +
              std::to_string(n),
          {{"goodput_pct_mean", r.mean_pct},
           {"goodput_pct_worst10", r.worst10_pct}});
    }
  }
  return 0;
}
