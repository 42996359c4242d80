// Fabric vocabulary shared by blueprints, instances and queue factories:
// where a link sits in the fabric (`link_level`) and the factory that builds
// each link's egress queue.  Fabrics themselves are `fabric_instance`s of a
// `fabric_blueprint` (topo/fabric_instance.h).
#pragma once

#include <functional>
#include <memory>

#include "net/queue.h"

namespace ndpsim {

/// Where a queue sits in the topology (used for per-level statistics, e.g.
/// counting trims on core uplinks, and for queue-type selection).
enum class link_level : std::uint8_t {
  host_up,    ///< host NIC egress
  tor_up,     ///< ToR -> aggregation
  agg_up,     ///< aggregation -> core
  core_down,  ///< core -> aggregation
  agg_down,   ///< aggregation -> ToR
  tor_down,   ///< ToR -> host
};

[[nodiscard]] constexpr const char* to_string(link_level l) {
  switch (l) {
    case link_level::host_up: return "host_up";
    case link_level::tor_up: return "tor_up";
    case link_level::agg_up: return "agg_up";
    case link_level::core_down: return "core_down";
    case link_level::agg_down: return "agg_down";
    case link_level::tor_down: return "tor_down";
  }
  return "?";
}

/// Builds the egress queue for one directed link, given its level, its
/// flat index within the level and its rate.
using queue_factory = std::function<std::unique_ptr<queue_base>(
    link_level level, std::size_t index, linkspeed_bps rate)>;

}  // namespace ndpsim
