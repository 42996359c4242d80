// Immutable fabric structure, split from per-simulation state.
//
// A `fabric_blueprint` is an env-free description of a fabric's wiring: flat
// link records (level, flat index, rate, delay, slot assignment), slot names
// formatted on demand from those records (it is the telemetry plane's
// `name_pool`: only telemetry output names a slot), and a structural path
// table that interns each (src, dst, path) route exactly once as a sequence
// of **sink-slot ids** rather than device pointers.  Because nothing in it
// touches a `sim_env`, one blueprint is shared read-only by any number of
// `fabric_instance`s — including concurrently across `parallel_runner` jobs
// (the structural path table interns lazily under a mutex; everything else
// is immutable after construction).
//
// Every fabric is one geometry: pods of ToRs and aggregation switches, with
// a core layer joining the pods when there is more than one.  A k-ary
// FatTree has k pods of k/2 ToRs and k/2 aggs; a leaf-spine is one coreless
// pod (leaves are ToRs, spines are aggs); a single switch is a leaf-spine
// with one leaf and no spines; back-to-back NICs are the one switchless
// case, where a route is just the sender's NIC link.
//
// Slot layout: each directed link owns 2 or 3 consecutive slots —
// [queue, pipe, pfc-ingress?] in traversal order — followed by one slot per
// host for its `flow_demux` terminal.  A `fabric_instance` materializes the
// link slots from a `queue_factory` and mounts demuxes as its path table
// creates them; a structural path is then resolved per packet hop as
// `sink_table[slot]` (see net/route.h).
//
// Lifetime contract: the blueprint must outlive every `fabric_instance`
// built from it (enforced by shared_ptr), and every instance must outlive
// the flows connected over it — routes handed to flows point into the
// blueprint's slot arena *and* the instance's sink table.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/sim_env.h"
#include "sim/telemetry.h"
#include "topo/topology.h"

namespace ndpsim {

struct pfc_config {
  bool enabled = false;
  std::uint64_t xoff_bytes = 25 * 9000;  ///< per-ingress pause threshold
  std::uint64_t xon_bytes = 23 * 9000;
};

struct fat_tree_config {
  unsigned k = 8;  ///< pods; must be even (0 on the micro-testbed blueprints)
  unsigned oversubscription = 1;
  linkspeed_bps link_speed = gbps(10);
  simtime_t link_delay = from_us(1);
  pfc_config pfc = {};
  /// Optional per-link speed override (failure injection). Called with the
  /// directed link's level/index and the default speed; returns the speed to
  /// use. Leave empty for uniform fabric.
  std::function<linkspeed_bps(link_level, std::size_t, linkspeed_bps)>
      speed_override = {};
};

class fabric_blueprint final : public name_pool {
 public:
  /// One directed link of the fabric.  `index` is the flat index within the
  /// level (the same indexing the speed-override hooks use).
  struct link_record {
    link_level level;
    std::uint32_t index;
    linkspeed_bps rate;
    simtime_t delay;
    std::uint32_t first_slot;  ///< queue; pipe = +1; ingress = +2 if present
    bool has_ingress;          ///< PFC ingress accounting at the far end
  };

  /// Span of interned slot ids (points into the blueprint's arena; valid for
  /// the blueprint's lifetime).
  struct slot_span {
    const std::uint32_t* slots = nullptr;
    std::uint32_t n = 0;
  };
  struct structural_pair_view {
    slot_span fwd, rev;
  };

  /// A k-ary FatTree.
  [[nodiscard]] static std::shared_ptr<const fabric_blueprint> fat_tree(
      fat_tree_config cfg);
  /// `n_leaf` ToRs of `hosts_per_leaf` hosts, each wired to all `n_spine`
  /// spines (one coreless pod).  The paper's 8-server testbed is
  /// leaf_spine(4, 2, 2).
  [[nodiscard]] static std::shared_ptr<const fabric_blueprint> leaf_spine(
      std::size_t n_leaf, std::size_t n_spine, std::size_t hosts_per_leaf,
      linkspeed_bps speed, simtime_t delay);
  /// `n_hosts` hosts on one switch: leaf_spine(1, 0, n_hosts).
  [[nodiscard]] static std::shared_ptr<const fabric_blueprint> single_switch(
      std::size_t n_hosts, linkspeed_bps speed, simtime_t delay);
  /// Two hosts whose NICs are wired to each other.
  [[nodiscard]] static std::shared_ptr<const fabric_blueprint> back_to_back(
      linkspeed_bps speed, simtime_t delay);

  fabric_blueprint(const fabric_blueprint&) = delete;
  fabric_blueprint& operator=(const fabric_blueprint&) = delete;

  // --- geometry ----------------------------------------------------------
  [[nodiscard]] const fat_tree_config& config() const { return cfg_; }
  [[nodiscard]] std::size_t n_hosts() const { return n_hosts_; }
  [[nodiscard]] std::size_t n_tors() const { return n_tor_; }
  [[nodiscard]] std::size_t n_aggs() const { return n_agg_; }
  [[nodiscard]] std::size_t n_cores() const { return n_core_; }
  [[nodiscard]] unsigned hosts_per_tor() const { return hosts_per_tor_; }
  [[nodiscard]] std::uint32_t tor_of(std::uint32_t host) const {
    return host / hosts_per_tor_;
  }
  [[nodiscard]] std::uint32_t pod_of(std::uint32_t host) const {
    return tor_of(host) / tors_per_pod_;
  }
  // Flat per-level link indices.  Each agg has as many core uplinks as it
  // has ToRs below it, so `port` ranges over tors-per-pod.
  [[nodiscard]] std::size_t tor_up_index(std::size_t tor, unsigned agg) const {
    return tor * aggs_per_pod_ + agg;
  }
  [[nodiscard]] std::size_t agg_up_index(unsigned pod, unsigned agg,
                                         unsigned port) const {
    return (static_cast<std::size_t>(pod) * aggs_per_pod_ + agg) *
               tors_per_pod_ +
           port;
  }
  [[nodiscard]] std::size_t core_down_index(unsigned core, unsigned pod) const {
    return static_cast<std::size_t>(core) * n_pods_ + pod;
  }
  [[nodiscard]] std::size_t agg_down_index(unsigned pod, unsigned agg,
                                           unsigned tor) const {
    return (static_cast<std::size_t>(pod) * aggs_per_pod_ + agg) *
               tors_per_pod_ +
           tor;
  }
  [[nodiscard]] std::size_t n_paths(std::uint32_t src, std::uint32_t dst) const;
  /// Rate of the host's own NIC link (its `host_up` record, overrides
  /// included): what receiver-driven pacing must run at.
  [[nodiscard]] linkspeed_bps host_link_speed(std::uint32_t host) const {
    return links_[link_id(link_level::host_up, host)].rate;
  }

  // --- links & slots -----------------------------------------------------
  [[nodiscard]] const std::vector<link_record>& links() const { return links_; }
  /// Link id (index into `links()`) of a level's flat `index`.
  [[nodiscard]] std::uint32_t link_id(link_level level, std::size_t index) const;
  /// Total sink slots: link slots followed by one demux slot per host.
  [[nodiscard]] std::size_t n_slots() const {
    return demux_base_ + n_hosts_;
  }
  [[nodiscard]] std::uint32_t demux_slot(std::uint32_t host) const {
    NDPSIM_ASSERT(host < n_hosts_);
    return demux_base_ + host;
  }

  // --- slot names ---------------------------------------------------------
  /// Format the name of a sink slot ("aggup3.1.2", "...pipe", "...pfc",
  /// "demux17").  Cold path — only telemetry output reads slot names.
  [[nodiscard]] std::string format_name(std::uint32_t slot) const override;

  // --- structural path table --------------------------------------------
  /// The interned slot sequences of `count` (src, dst, path) route pairs,
  /// each ending at the destination's demux slot.  Each path is built
  /// exactly once, lazily, under one lock for the whole batch (a multipath
  /// connect resolves its sampled set at once — per-path locking showed up
  /// at k=32 scale) — safe to call concurrently from parallel jobs sharing
  /// the blueprint.  `out` receives one view per entry of `paths`, in order;
  /// the spans stay valid for the blueprint's lifetime.
  void structural_paths(std::uint32_t src, std::uint32_t dst,
                        const std::size_t* paths, std::size_t count,
                        structural_pair_view* out) const;

  /// Compute (without interning) the link-slot sequence of one direction of
  /// a path, excluding the demux terminal.
  void build_path(std::uint32_t src, std::uint32_t dst, std::size_t path,
                  std::vector<std::uint32_t>& out) const;

  // --- introspection -----------------------------------------------------
  /// Distinct (src, dst, path) structural routes interned so far.
  [[nodiscard]] std::size_t interned_paths() const;
  /// Resident bytes of the shared structure: link records + slot arena +
  /// pair index.  Counted once per sweep, however many envs share it.
  [[nodiscard]] std::size_t resident_bytes() const;

 private:
  fabric_blueprint(fat_tree_config cfg, unsigned pods, unsigned tors_per_pod,
                   unsigned aggs_per_pod, unsigned hosts_per_tor);

  void add_link(link_level level, std::uint32_t index);
  /// Append one link's traversal slots (queue, pipe, ingress?) to `out`.
  void append_link_slots(std::uint32_t link, std::vector<std::uint32_t>& out) const;
  [[nodiscard]] const std::uint32_t* intern_slots(
      const std::vector<std::uint32_t>& seq) const;

  fat_tree_config cfg_;
  unsigned n_pods_, tors_per_pod_, aggs_per_pod_, hosts_per_tor_;
  std::size_t n_tor_, n_agg_, n_core_, n_hosts_;

  std::vector<link_record> links_;
  std::uint32_t level_base_[6] = {};  ///< first link id per level
  std::uint32_t demux_base_ = 0;     ///< first demux slot id
  std::uint32_t next_slot_ = 0;

  // Structural path interning (lazy, shared): chunked u32 arena + per-pair
  // index.  Mutable behind a mutex — the blueprint stays logically immutable
  // (a path's slot sequence is a pure function of the wiring); the cache
  // just fills in on first use from whichever env asks first.
  struct path_entry {
    std::uint32_t path = 0;
    slot_span fwd, rev;
  };
  // Sparse per-pair index: only interned paths are stored (append-only,
  // linear scan — sets are small: capped samples or one full-set build).
  // An eager vector sized n_paths costs 8KB per inter-pod pair at k=32 —
  // that dwarfed the slot arena itself for capped-multipath workloads.
  struct pair_entry {
    std::vector<path_entry> paths;
  };

  mutable std::mutex paths_mu_;
  mutable std::unordered_map<std::uint64_t, pair_entry> pairs_;
  mutable std::vector<std::unique_ptr<std::uint32_t[]>> blocks_;
  mutable std::size_t block_used_ = 0;
  mutable std::size_t block_cap_ = 0;
  mutable std::size_t slots_total_ = 0;
  mutable std::size_t interned_ = 0;
};

}  // namespace ndpsim
