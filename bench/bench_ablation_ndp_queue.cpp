// Ablation: which parts of the NDP switch actually matter?
//
// The paper motivates three changes over CP (§3.1): priority forwarding of
// headers with a 10:1 WRR cap, the 50% trim-position coin, and
// return-to-sender.  This bench disables one mechanism at a time and runs
// the two stress scenarios that exposed them:
//   (a) a 40:1 line-rate overload (collapse/fairness, Fig 2's setting),
//   (b) a 60:1 single-packet-flow incast (RTS's reason to exist, §3.2.4).
#include "bench_util.h"
#include "ndp/ndp_queue.h"
#include "ndp/ndp_sink.h"
#include "ndp/ndp_source.h"
#include "ndp/pull_pacer.h"
#include "net/fifo_queues.h"
#include "stats/cdf.h"
#include "topo/micro_topo.h"
#include "topo/path_table.h"
#include "workload/cbr_source.h"

namespace ndpsim {
namespace {

enum class variant : int {
  full,        // the NDP queue as published
  no_wrr,      // strict header priority (WRR cap removed)
  no_coin,     // always trim the arriving packet (CP-style victim choice)
  no_rts,      // drop headers when the header queue fills
  no_trim,     // plain drop-tail (the "who needs trimming" strawman)
};

ndp_queue_config make_cfg(variant v) {
  ndp_queue_config c;
  switch (v) {
    case variant::full:
      break;
    case variant::no_wrr:
      c.wrr_headers_per_data = 1u << 30;
      break;
    case variant::no_coin:
      c.random_trim_position = false;
      break;
    case variant::no_rts:
      c.enable_rts = false;
      break;
    case variant::no_trim:
      c.enable_trimming = false;
      break;
  }
  return c;
}

const char* variant_name(variant v) {
  switch (v) {
    case variant::full: return "full NDP queue";
    case variant::no_wrr: return "no WRR cap (strict header prio)";
    case variant::no_coin: return "no trim coin (always arrival)";
    case variant::no_rts: return "no return-to-sender";
    case variant::no_trim: return "no trimming (drop-tail)";
  }
  return "?";
}

queue_factory factory_for(sim_env& env, variant v) {
  return [&env, v](link_level level, std::size_t,
                   linkspeed_bps rate) -> std::unique_ptr<queue_base> {
    if (level == link_level::host_up) {
      return std::make_unique<host_priority_queue>(env, rate);
    }
    return std::make_unique<ndp_queue>(env, rate, make_cfg(v));
  };
}

// (a) 40 unresponsive line-rate senders -> one port: mean and worst-10% of
// fair-share goodput.
void run_overload(variant v) {
  sim_env env(4);
  const std::size_t n = 40;
  single_switch star(env, n + 1, gbps(10), from_us(1), factory_for(env, v));
  std::vector<std::unique_ptr<cbr_source>> sources;
  std::vector<std::unique_ptr<counting_sink>> sinks;
  for (std::uint32_t i = 0; i < n; ++i) {
    auto sink = std::make_unique<counting_sink>(env);
    const double skew =
        1.0 + (static_cast<double>((i * 7919u) % 101u) - 50.0) * 1e-4;
    auto src = std::make_unique<cbr_source>(
        env, static_cast<linkspeed_bps>(10e9 * skew), 9000, i, 0.10);
    src->start(star.paths().single(i, static_cast<std::uint32_t>(n), 0),
               sink.get(), i, static_cast<std::uint32_t>(n), 0);
    sources.push_back(std::move(src));
    sinks.push_back(std::move(sink));
  }
  env.events.run_until(from_ms(4));
  std::vector<std::uint64_t> base(n);
  for (std::size_t i = 0; i < n; ++i) base[i] = sinks[i]->payload_bytes();
  env.events.run_until(from_ms(40));
  sample_set pct;
  const double fair =
      10e9 * 8936 / 9000 / static_cast<double>(n) * to_sec(from_ms(36)) / 8;
  for (std::size_t i = 0; i < n; ++i) {
    pct.add(100.0 * static_cast<double>(sinks[i]->payload_bytes() - base[i]) /
            fair);
  }
  bench::print_row(std::string("overload: ") + variant_name(v),
                   {{"goodput_pct_mean", pct.mean()},
                    {"goodput_pct_worst10", pct.mean_lowest(0.10)}});
}

// (b) 60 single-window flows -> one port with a small header queue: how
// fast does everything complete, and how many RTOs were needed?
void run_tiny_flow_incast(variant v) {
  sim_env env(6);
  const std::size_t n = 60;
  auto factory = [&env, v](link_level level, std::size_t, linkspeed_bps rate)
      -> std::unique_ptr<queue_base> {
    if (level == link_level::host_up) {
      return std::make_unique<host_priority_queue>(env, rate);
    }
    ndp_queue_config c = make_cfg(v);
    c.header_capacity_bytes = 8 * kHeaderBytes;  // stress the header queue
    return std::make_unique<ndp_queue>(env, rate, c);
  };
  single_switch star(env, n + 1, gbps(10), from_us(1), factory);
  pull_pacer pacer(env, gbps(10));
  struct conn {
    std::unique_ptr<ndp_source> src;
    std::unique_ptr<ndp_sink> snk;
  };
  std::vector<conn> conns;
  ndp_source_config sc;
  sc.iw_packets = 30;
  sc.rto = from_ms(2);
  for (std::uint32_t s = 0; s < n; ++s) {
    conn c;
    c.src = std::make_unique<ndp_source>(env, sc, 100 + s);
    c.snk = std::make_unique<ndp_sink>(env, pacer, ndp_sink_config{}, 100 + s);
    c.src->connect(*c.snk, star.paths().all(s, static_cast<std::uint32_t>(n)),
                   s, static_cast<std::uint32_t>(n), 2 * 8936, 0);
    conns.push_back(std::move(c));
  }
  env.events.run_until(from_ms(100));
  std::size_t completed = 0;
  double last_fct_us = 0;
  double timeouts = 0;
  double bounces = 0;
  for (const auto& c : conns) {
    if (c.snk->complete()) {
      ++completed;
      last_fct_us = std::max(last_fct_us, to_us(c.snk->completion_time()));
    }
    timeouts += static_cast<double>(c.src->stats().rtx_after_timeout);
    bounces += static_cast<double>(c.src->stats().bounces_received);
  }
  bench::print_row(std::string("tiny-flow incast: ") + variant_name(v),
                   {{"completed", static_cast<double>(completed)},
                    {"last_fct_us", last_fct_us},
                    {"rto_retransmissions", timeouts},
                    {"bounces", bounces}});
}

constexpr variant kVariants[] = {variant::full, variant::no_wrr,
                                 variant::no_coin, variant::no_rts,
                                 variant::no_trim};

}  // namespace
}  // namespace ndpsim

int main() {
  using namespace ndpsim;
  bench::print_banner(
      "Ablation: NDP switch mechanisms (WRR / trim coin / RTS / trimming)",
      "removing WRR invites header-flood collapse under overload; removing "
      "the coin hurts worst-10% fairness; removing RTS turns header-queue "
      "overflow into RTO stalls; removing trimming is drop-tail (loss blind)");
  for (const variant v : kVariants) run_overload(v);
  for (const variant v : kVariants) run_tiny_flow_incast(v);
  return 0;
}
