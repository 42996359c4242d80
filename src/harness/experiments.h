// Shared experiment runners: the permutation and incast scaffolding used by
// most benches, tests and examples.
#pragma once

#include <memory>
#include <vector>

#include "harness/flow_factory.h"
#include "harness/queue_factory.h"
#include "stats/cdf.h"
#include "topo/fat_tree.h"

namespace ndpsim {

/// Convenience bundle: env + fat-tree + factory for one experiment.
struct testbed {
  testbed(std::uint64_t seed, fat_tree_config topo_cfg,
          const fabric_params& fabric);
  /// Borrow an externally-owned env (e.g. the per-job env handed out by
  /// `parallel_runner`) instead of owning one.
  testbed(sim_env& external_env, fat_tree_config topo_cfg,
          const fabric_params& fabric);
  /// Borrow an env AND a shared immutable blueprint: the structure/state
  /// split for sweeps — every job stamps its own queues/pipes out of one
  /// read-only blueprint instead of rebuilding the fabric (the blueprint's
  /// pfc/link config must already match `fabric`; see
  /// `make_fat_tree_blueprint`).  The blueprint must outlive the testbed.
  testbed(sim_env& external_env, std::shared_ptr<const fabric_blueprint> bp,
          const fabric_params& fabric);

 private:
  std::unique_ptr<sim_env> owned_env_;  ///< null when borrowing
  void init(fat_tree_config topo_cfg);

 public:
  sim_env& env;
  fabric_params fabric;
  std::unique_ptr<fat_tree> topo;
  std::unique_ptr<flow_factory> flows;
};

/// Build a fat-tree testbed with the fabric implied by `fabric.proto`.
[[nodiscard]] std::unique_ptr<testbed> make_fat_tree_testbed(
    std::uint64_t seed, unsigned k, const fabric_params& fabric,
    unsigned oversubscription = 1,
    std::function<linkspeed_bps(link_level, std::size_t, linkspeed_bps)>
        speed_override = {});

/// Build the shared blueprint matching what `make_fat_tree_testbed` would
/// wire for this fabric (including the protocol-implied PFC config), for
/// handing to many per-env testbeds/instances at once.
[[nodiscard]] std::shared_ptr<const fabric_blueprint> make_fat_tree_blueprint(
    unsigned k, const fabric_params& fabric, unsigned oversubscription = 1,
    std::function<linkspeed_bps(link_level, std::size_t, linkspeed_bps)>
        speed_override = {});

struct permutation_result {
  std::vector<double> flow_gbps;  ///< per-flow goodput, ascending
  double mean_gbps = 0;
  double utilization = 0;  ///< mean goodput / host link rate
};

/// Long-running permutation traffic matrix; goodput measured over
/// [warmup, warmup+measure).
[[nodiscard]] permutation_result run_permutation(testbed& bed, protocol proto,
                                                 flow_options opts,
                                                 simtime_t warmup,
                                                 simtime_t measure);

struct incast_result {
  sample_set fct_us;          ///< per-flow completion times
  double last_fct_us = 0;     ///< completion of the whole incast
  double first_fct_us = 0;    ///< fastest flow (fairness spread)
  std::size_t completed = 0;
  transport_counters stats;  ///< the completed flows' `flow::stats()`, summed
};

/// n-to-1 incast of `bytes` per sender into `receiver`; runs until all flows
/// complete or `deadline` passes.
[[nodiscard]] incast_result run_incast(testbed& bed, protocol proto,
                                       const std::vector<std::uint32_t>& senders,
                                       std::uint32_t receiver,
                                       std::uint64_t bytes, flow_options opts,
                                       simtime_t deadline);

/// Ideal last-flow completion time for an n-to-1 incast: the receiver link
/// stays saturated with each packet delivered exactly once (paper Fig 20a's
/// baseline), plus one unloaded one-way traversal.
[[nodiscard]] double incast_optimal_us(std::size_t n_senders,
                                       std::uint64_t bytes_per_sender,
                                       std::uint32_t mss_bytes,
                                       linkspeed_bps link_rate,
                                       simtime_t one_way_us);

/// Drive the event loop until `flows` have all completed or `deadline` hits.
void run_until_complete(sim_env& env, const std::vector<flow*>& flows,
                        simtime_t deadline);

}  // namespace ndpsim
