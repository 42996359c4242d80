// The paper's small testbeds as fabric instances: a back-to-back host pair,
// a single switch (star) and a two-tier leaf-spine (the 8-server NetFPGA
// testbed, Fig 9).  Each is a thin constructor over its blueprint
// (topo/fabric_blueprint.h), so routing, demuxes and telemetry work exactly
// as on a FatTree.
#pragma once

#include "topo/fabric_instance.h"

namespace ndpsim {

/// Two hosts joined by one bidirectional link; the only queue is the sending
/// host's NIC.  Used for RPC latency and initial-window experiments.
class back_to_back final : public fabric_instance {
 public:
  back_to_back(sim_env& env, linkspeed_bps speed, simtime_t delay,
               const queue_factory& make_queue)
      : fabric_instance(env, fabric_blueprint::back_to_back(speed, delay),
                        make_queue) {}

  [[nodiscard]] queue_base& nic(std::uint32_t host) const {
    return *queues_at(link_level::host_up)[host];
  }
};

/// H hosts hanging off one switch. Exercises a single contended output port:
/// the CP-vs-NDP collapse experiment (Fig 2) and the sender-limited fairness
/// scenario (Fig 21).
class single_switch final : public fabric_instance {
 public:
  single_switch(sim_env& env, std::size_t n_hosts, linkspeed_bps speed,
                simtime_t delay, const queue_factory& make_queue)
      : fabric_instance(
            env, fabric_blueprint::single_switch(n_hosts, speed, delay),
            make_queue) {}

  /// The switch egress port towards `host` (where contention happens).
  [[nodiscard]] queue_base& switch_port(std::uint32_t host) const {
    return *queues_at(link_level::tor_down)[host];
  }
};

/// Two-tier leaf-spine: `n_leaf` ToR switches with `hosts_per_leaf` hosts
/// each, every ToR connected to every one of `n_spine` spines. The paper's
/// testbed is leaf_spine(4 leaves, 2 spines, 2 hosts/leaf) built from 4-port
/// switches.
class leaf_spine final : public fabric_instance {
 public:
  leaf_spine(sim_env& env, std::size_t n_leaf, std::size_t n_spine,
             std::size_t hosts_per_leaf, linkspeed_bps speed, simtime_t delay,
             const queue_factory& make_queue)
      : fabric_instance(env,
                        fabric_blueprint::leaf_spine(n_leaf, n_spine,
                                                     hosts_per_leaf, speed,
                                                     delay),
                        make_queue) {}
};

}  // namespace ndpsim
