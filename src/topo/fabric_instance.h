// Per-simulation fabric state, stamped out from a shared immutable
// `fabric_blueprint`.
//
// A `fabric_instance` materializes the blueprint's link records into live
// queues (via the experiment's `queue_factory`), pipes and PFC ingress
// elements — all bound to one `sim_env` — and keeps them in a flat sink
// table indexed by blueprint slot id.  Routes are the blueprint's interned
// slot sequences resolved through that table (`net/route.h`), so N parallel
// jobs over one blueprint share all structural route state and duplicate
// only the mutable per-env objects.  Components carry no names; telemetry
// output names a slot through the blueprint (`fabric_blueprint::format_name`).
//
// Every fabric is an instance: `fat_tree` (topo/fat_tree.h) and the micro
// testbeds (topo/micro_topo.h) are thin constructors over their blueprints.
//
// Counters: the fabric's queues, pipes and demuxes keep none of their own.
// When the env carries a telemetry plane, each is armed with its blueprint
// slot (queues and pipes at construction, demuxes when they mount), and that
// slot is the only place its events are counted; `aggregate_stats` and
// `telemetry_plane::totals` read it.
//
// Lifetime: the instance holds a shared_ptr keeping the blueprint alive;
// the instance itself must outlive every flow connected over it (its
// `path_table` holds routes into the sink table).
#pragma once

#include <deque>
#include <memory>
#include <vector>

#include "net/lossless.h"
#include "net/pipe.h"
#include "net/sim_env.h"
#include "topo/fabric_blueprint.h"
#include "topo/topology.h"

namespace ndpsim {

class flow_demux;
class path_table;

class fabric_instance {
 public:
  fabric_instance(sim_env& env, std::shared_ptr<const fabric_blueprint> bp,
                  const queue_factory& make_queue);
  ~fabric_instance();
  fabric_instance(const fabric_instance&) = delete;
  fabric_instance& operator=(const fabric_instance&) = delete;

  [[nodiscard]] std::size_t n_hosts() const { return bp_->n_hosts(); }
  /// Number of distinct paths from `src` to `dst`.
  [[nodiscard]] std::size_t n_paths(std::uint32_t src,
                                    std::uint32_t dst) const {
    return bp_->n_paths(src, dst);
  }
  [[nodiscard]] linkspeed_bps host_link_speed(std::uint32_t host) const {
    return bp_->host_link_speed(host);
  }

  /// The interned path table: shared routes for every flow on this fabric.
  /// Built lazily; lives (and keeps every handed-out route alive) as long as
  /// the instance.
  [[nodiscard]] path_table& paths();

  [[nodiscard]] const fabric_blueprint* blueprint() const { return bp_.get(); }
  /// Per-env sink table indexed by blueprint slot id.
  [[nodiscard]] packet_sink* const* sink_table() const { return sinks_.data(); }
  /// Called by the path table when it creates a host's demux: mounts it at
  /// the host's demux slot, where structural routes end.
  void bind_demux_slot(std::uint32_t host, flow_demux* d);

  /// Telemetry counters summed over all queues at one level (e.g. trims on
  /// uplinks).  The queues' slots are the only counters kept, so this needs
  /// a plane attached to the env before the fabric was built; reading an
  /// unarmed queue throws `simulation_error`.
  [[nodiscard]] telemetry_counters aggregate_stats(link_level level) const;
  /// All queues at a level (test/bench introspection), indexed like the
  /// blueprint's per-level flat link indices.
  [[nodiscard]] const std::vector<queue_base*>& queues_at(
      link_level level) const;

  /// Resident bytes of this instance's own state (estimate: sink table,
  /// link object storage, bookkeeping — excludes the shared blueprint and
  /// the per-env path table, which report separately).
  [[nodiscard]] std::size_t resident_bytes() const;

 private:
  // Declared first so it is destroyed last, after the queues and pipes
  // whose routes end at its demuxes.
  std::unique_ptr<path_table> paths_;
  sim_env& env_;
  std::shared_ptr<const fabric_blueprint> bp_;
  std::vector<std::unique_ptr<queue_base>> queues_;  // [link id]
  std::deque<pipe> pipes_;                           // [link id], pinned slab
  std::deque<pfc_ingress> ingresses_;                // pinned slab (PFC only)
  std::vector<packet_sink*> sinks_;  // [slot id]; demux slots filled lazily
  std::vector<std::vector<queue_base*>> by_level_;
};

}  // namespace ndpsim
