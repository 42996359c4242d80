// k-ary three-tier FatTree (Al-Fares et al.), the paper's evaluation fabric.
//
// k pods; per pod k/2 ToR and k/2 aggregation switches; (k/2)^2 core
// switches.  Each ToR serves `oversubscription * k/2` hosts (oversubscription
// 1 = fully provisioned; 4 = the paper's Fig 23 fabric).  k=8/12/32 give the
// paper's 128/432/8192-host networks.
//
// Path structure:
//   inter-pod pairs:  (k/2)^2 paths, one per core switch;
//   intra-pod pairs:  k/2 paths, one per aggregation switch;
//   same-ToR pairs:   1 path.
//
// Link-speed overrides support the failure experiments (Fig 22: one
// core<->agg link negotiated down to 1Gb/s). Optional PFC (lossless mode)
// inserts per-link ingress buffer accounting for DCQCN.
//
// Structure/state split: the wiring itself lives in an immutable
// `fabric_blueprint` (topo/fabric_blueprint.h) and this class is a
// `fabric_instance` of a FatTree-shaped one plus FatTree-geometry
// accessors.  The one-argument constructor builds a private blueprint (the
// classic single-run shape); the shared_ptr constructor stamps an instance
// out of a blueprint shared with other simulations (e.g. one per
// `parallel_runner` job).
#pragma once

#include <memory>

#include "topo/fabric_instance.h"

namespace ndpsim {

class fat_tree final : public fabric_instance {
 public:
  fat_tree(sim_env& env, fat_tree_config cfg, const queue_factory& make_queue)
      : fabric_instance(env, fabric_blueprint::fat_tree(std::move(cfg)),
                        make_queue) {}
  /// Instantiate over a shared (possibly concurrently used) FatTree
  /// blueprint.
  fat_tree(sim_env& env, std::shared_ptr<const fabric_blueprint> bp,
           const queue_factory& make_queue)
      : fabric_instance(env, std::move(bp), make_queue) {
    NDPSIM_ASSERT_MSG(config().k != 0, "fat_tree over a non-FatTree blueprint");
  }

  [[nodiscard]] const fat_tree_config& config() const {
    return blueprint()->config();
  }
  [[nodiscard]] std::size_t n_tors() const { return blueprint()->n_tors(); }
  [[nodiscard]] std::size_t n_aggs() const { return blueprint()->n_aggs(); }
  [[nodiscard]] std::size_t n_cores() const { return blueprint()->n_cores(); }
  [[nodiscard]] unsigned hosts_per_tor() const {
    return blueprint()->hosts_per_tor();
  }
  [[nodiscard]] std::uint32_t pod_of(std::uint32_t host) const {
    return blueprint()->pod_of(host);
  }
};

}  // namespace ndpsim
