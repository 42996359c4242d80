// Closed-loop workload generator (paper Fig 23): each host keeps a fixed
// number of outstanding connections; when one finishes it waits an
// exponentially-distributed think gap (median ~1ms) and opens a new one to a
// fresh random destination with a size drawn from a flow-size distribution.
#pragma once

#include <cstdint>
#include <functional>

#include "net/sim_env.h"
#include "sim/eventlist.h"
#include "stats/fct_recorder.h"
#include "workload/size_distributions.h"

namespace ndpsim {

class closed_loop_generator final : public event_source {
 public:
  /// Starts flow (src -> dst) of `bytes` at `start`; must invoke `done` when
  /// the flow completes.
  using flow_starter = std::function<void(
      std::uint32_t src, std::uint32_t dst, std::uint64_t bytes,
      simtime_t start, std::function<void()> done)>;

  closed_loop_generator(sim_env& env, std::size_t n_hosts,
                        unsigned flows_per_host,
                        const flow_size_distribution& sizes,
                        simtime_t median_gap, flow_starter starter);

  /// Launch the initial population (staggered over one gap).
  void start();
  /// Stop creating replacement flows (existing flows finish naturally).
  void stop() { stopped_ = true; }

  void do_next_event() override {}  // all work happens in callbacks

  [[nodiscard]] const fct_recorder& fcts() const { return fcts_; }
  [[nodiscard]] std::uint64_t flows_started() const { return next_id_; }

 private:
  void launch_flow(std::uint32_t src, simtime_t at);

  sim_env& env_;
  std::size_t n_hosts_;
  unsigned flows_per_host_;
  const flow_size_distribution& sizes_;
  double gap_lambda_;  ///< rate of the exponential think time
  flow_starter starter_;
  fct_recorder fcts_;
  std::uint32_t next_id_ = 0;
  bool stopped_ = false;
};

}  // namespace ndpsim
