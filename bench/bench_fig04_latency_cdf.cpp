// Fig 4: CDF of NDP delivery latency (first send -> ACK at the sender,
// including retransmission delay) on a FatTree under four traffic matrices:
// permutation, random, and 100-flow incasts of 135KB and 1350KB.
#include "bench_util.h"
#include "harness/experiments.h"
#include "workload/traffic_matrix.h"

namespace ndpsim {
namespace {

using bench::paper_scale;

sample_set run_matrix(const char* kind, std::uint64_t flow_bytes) {
  fabric_params fp;
  fp.proto = protocol::ndp;
  auto bed = make_fat_tree_testbed(42, bench::default_k(), fp);
  const std::size_t n = bed->topo->n_hosts();

  sample_set latency_us;
  auto attach = [&latency_us](flow& f) {
    f.set_latency_callback(
        [&latency_us](simtime_t l) { latency_us.add(to_us(l)); });
  };

  flow_options o;
  if (std::string(kind) == "permutation" || std::string(kind) == "random") {
    const auto matrix = std::string(kind) == "permutation"
                            ? permutation_matrix(bed->env.rng, n)
                            : random_matrix(bed->env.rng, n);
    for (std::uint32_t h = 0; h < n; ++h) {
      flow_options fo = o;
      fo.start = static_cast<simtime_t>(bed->env.rand_below(100)) * kMicrosecond / 10;
      attach(bed->flows->create(protocol::ndp, h, matrix[h], fo));
    }
    bed->env.events.run_until(from_ms(paper_scale() ? 50 : 15));
    return latency_us;
  }
  // Incast.
  const std::size_t n_senders = std::min<std::size_t>(100, n - 1);
  const auto senders = incast_senders(bed->env.rng, n, 0, n_senders);
  std::vector<flow*> flows;
  for (auto s : senders) {
    flow_options fo = o;
    fo.bytes = flow_bytes;
    fo.start = static_cast<simtime_t>(bed->env.rand_below(1000)) * kNanosecond;
    flow& f = bed->flows->create(protocol::ndp, s, 0, fo);
    attach(f);
    flows.push_back(&f);
  }
  run_until_complete(bed->env, flows, from_sec(2));
  return latency_us;
}

void report(const char* label, const sample_set& s) {
  bench::print_row(label, {{"p10_us", s.quantile(0.10)},
                           {"median_us", s.median()},
                           {"p90_us", s.quantile(0.90)},
                           {"p99_us", s.quantile(0.99)},
                           {"max_us", s.max()},
                           {"samples", static_cast<double>(s.size())}});
}

}  // namespace
}  // namespace ndpsim

int main() {
  using namespace ndpsim;
  bench::print_banner(
      "Fig 4: delivery latency CDF under permutation / random / incast",
      "permutation+random medians ~100us even fully loaded; 135KB incast "
      "pushes whole flows into the first RTT (high tail, ~11ms last packet "
      "at 100 senders); 1350KB incast settles to paced pulls with a ~95us "
      "median");
  report("BM_permutation", run_matrix("permutation", 0));
  report("BM_random", run_matrix("random", 0));
  report("BM_incast_135KB", run_matrix("incast", 135'000));
  report("BM_incast_1350KB", run_matrix("incast", 1'350'000));
  return 0;
}
