// Flow lifecycle engine for long-running churn workloads.
//
// One-shot experiments create flows and keep every object until the sim_env
// dies.  Steady-state workloads (closed-loop RPC churn, Poisson arrival
// sweeps) cannot: over millions of arrivals the flow table and the per-host
// demux registries would grow without bound.  The recycler closes the loop:
// when a flow completes it
//
//   1. records the FCT (tagged with its churn generation — the epoch),
//   2. lets the flow *linger* for a drain window so in-flight packets and
//      control traffic addressed to it still find their endpoints,
//   3. tears the transport pair down through `flow_factory::destroy`
//      (timers cancelled, pacer rings left, demux entries unbound, flow
//      slot and path subset freed), and
//   4. starts the replacement: immediately (closed loop) or on the next
//      draw of a Poisson arrival process (open loop).
//
// Teardown never happens inside a transport callback — completions only
// queue the flow; the destruction runs from the recycler's own scheduled
// event.  Flow ids are never reused, so stale packets that outlive the
// linger window reach an unbound id and are dropped at the demux
// (`path_table::enable_stale_drop`, armed by the recycler).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <utility>

#include "harness/flow_factory.h"
#include "harness/queue_factory.h"
#include "stats/fct_recorder.h"

namespace ndpsim {

struct recycler_config {
  protocol proto = protocol::ndp;
  /// Per-flow template.  `opts.bytes` is the flow size unless a size picker
  /// is supplied; `opts.start` is ignored (the recycler schedules starts).
  flow_options opts;
  /// Drain window between completion and teardown.  In-flight packets for
  /// the completed flow arriving within it are handled normally; anything
  /// later is dropped as stale at the demux.  A few RTOs covers every
  /// straggler the transports can still produce.
  simtime_t linger = from_ms(2.0);
  /// Open loop: Poisson arrival rate in flows/sec (> 0 switches the
  /// replacement policy from closed-loop to open-loop arrivals).
  double open_rate_per_sec = 0;
  /// Stop creating flows after this many starts (existing ones drain).
  std::uint64_t max_starts = UINT64_MAX;
};

class flow_recycler final : public event_source {
 public:
  /// Draws the (src, dst) pair of the next flow.
  using pair_picker =
      std::function<std::pair<std::uint32_t, std::uint32_t>(sim_env&)>;
  /// Draws the size in bytes of the next flow (optional; defaults to
  /// `cfg.opts.bytes`).
  using size_picker = std::function<std::uint64_t(sim_env&)>;

  flow_recycler(sim_env& env, fabric_instance& topo, flow_factory& flows,
                recycler_config cfg, pair_picker pick_pair,
                size_picker pick_size = {});

  /// Launch the initial population (closed loop: the fixed number of
  /// concurrently live flows; open loop: `initial` immediate arrivals, then
  /// the Poisson process takes over).
  void start(std::size_t initial);
  /// Stop creating flows; live ones complete and are torn down normally.
  void stop() { stopped_ = true; }

  void do_next_event() override;

  [[nodiscard]] const fct_recorder& fcts() const { return fcts_; }
  [[nodiscard]] std::uint64_t flows_started() const { return started_; }
  [[nodiscard]] std::uint64_t flows_recycled() const { return recycled_; }
  /// Completed churn generations: every live slot has turned over this many
  /// times (closed loop; open loop: recycled / initial arrivals).
  [[nodiscard]] std::uint64_t generations() const {
    return population_ == 0 ? 0 : recycled_ / population_;
  }
  /// Flows waiting out their linger window.
  [[nodiscard]] std::size_t lingering() const { return retire_queue_.size(); }

 private:
  void launch(std::uint32_t src, std::uint32_t dst, simtime_t at);
  void on_flow_complete(flow& f);
  void schedule_next_arrival();
  void rearm();

  struct pending_retire {
    flow* f;
    simtime_t due;
  };

  sim_env& env_;
  flow_factory& flows_;
  recycler_config cfg_;
  pair_picker pick_pair_;
  size_picker pick_size_;

  std::deque<pending_retire> retire_queue_;  ///< FIFO: linger is constant
  simtime_t next_arrival_ = -1;              ///< open loop; -1 = none pending
  timer_handle timer_;

  fct_recorder fcts_;
  std::uint64_t started_ = 0;
  std::uint64_t recycled_ = 0;
  std::size_t population_ = 0;  ///< initial population (epoch divisor)
  bool stopped_ = false;
};

}  // namespace ndpsim
