// Topology-owned interned path table (the FatPaths idea: multipath route
// sets are per-pair fabric properties, not per-flow state).
//
// Each distinct (src, dst, path) route is built exactly once — lazily, on
// first use — and shared by every flow on that pair: two flows on the same
// (src, dst) receive pointer-identical `const route*`s.  Every route
// terminates at the destination host's `flow_demux`, where transports
// register their per-flow endpoints at connect time.  Route memory is
// therefore O(pairs-used x paths) for the whole fabric instead of
// O(flows x paths x hops).
//
// Each route is a view over the shared `fabric_blueprint`'s interned slot
// sequence, resolved through this instance's sink table: the hop sequence
// lives once in the blueprint, and this env only creates two small route
// views per path.  N parallel jobs over one blueprint duplicate none of the
// hop storage.
//
// Forward and reverse of a path are interned together and neither is freed
// before the table, which is what makes the raw `route::reverse()` pointer
// safe (see the lifetime contract in net/route.h).  Reciprocity
// (`fwd->reverse()->reverse() == fwd`) is asserted at interning time.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/path_set.h"
#include "net/sim_env.h"
#include "topo/fabric_blueprint.h"

namespace ndpsim {

class fabric_instance;

class path_table {
 public:
  explicit path_table(fabric_instance& topo);
  path_table(const path_table&) = delete;
  path_table& operator=(const path_table&) = delete;

  /// All n_paths(src, dst) routes of a pair, interning any not yet built.
  /// The returned view is cached: every caller gets the same arrays.
  [[nodiscard]] path_set all(std::uint32_t src, std::uint32_t dst);

  /// Up to `max_paths` routes of a pair (all if 0 or >= n_paths).  When a
  /// subset is taken it is a seeded random subset drawn via
  /// `env.rand_below` — not the first `max_paths` indices, which would bias
  /// every flow onto the low core/agg switches.  Distinct calls can return
  /// distinct subsets (each draw advances the env's RNG); only the sampled
  /// paths are interned.
  ///
  /// A capped subset is written into the caller's `storage` (forward routes,
  /// then reverse routes) and the view points into it, so it stays valid
  /// while the caller keeps that vector unmodified.  An uncapped call
  /// returns the cached full set and leaves `storage` untouched.
  [[nodiscard]] path_set sample(sim_env& env, std::uint32_t src,
                                std::uint32_t dst, std::size_t max_paths,
                                std::vector<const route*>& storage);

  /// Single-path view (per-flow-ECMP transports: TCP, DCQCN).
  [[nodiscard]] path_set single(std::uint32_t src, std::uint32_t dst,
                                std::size_t path);

  /// The interned route for one path (forward / reverse direction).
  [[nodiscard]] const route* forward(std::uint32_t src, std::uint32_t dst,
                                     std::size_t path);
  [[nodiscard]] const route* reverse(std::uint32_t src, std::uint32_t dst,
                                     std::size_t path);

  /// Per-host terminal demux (endpoint registry).
  [[nodiscard]] flow_demux& demux(std::uint32_t host);

  /// Recycling mode: deliveries for unbound flows at any of this table's
  /// demuxes (stale packets of torn-down flows) are dropped back into `pool`
  /// instead of asserting.  Applies to existing and future demuxes.  The
  /// drops are counted only in an attached telemetry plane:
  /// `totals(telemetry_kind::demux).stale_drops` sums them over the fabric.
  void enable_stale_drop(packet_pool& pool);

  // --- introspection (tests, benches) -----------------------------------
  /// Distinct (src, dst, path) routes interned so far (forward + reverse
  /// count as one path).
  [[nodiscard]] std::size_t interned_paths() const { return interned_; }
  /// Resident bytes of this table's route state: route views + pair
  /// pointer arrays (the slot sequences are the blueprint's).
  [[nodiscard]] std::size_t resident_bytes() const;

 private:
  /// One interned path's route pair.  Lives in the table-wide `slots_`
  /// deque so the two pointers are address-stable: `single()` hands out
  /// 1-element views directly over them.
  struct path_slot {
    const route* fwd = nullptr;
    const route* rev = nullptr;
  };

  struct pair_entry {
    // Sparse interned-path index, sorted by path id: only paths actually
    // built are stored.  Eagerly sizing per-pair pointer vectors to
    // n_paths cost ~33MB at k=32 when capped sampling touches 16 of 256
    // paths per pair (ROADMAP open item 5).  `all()` converts the pair to
    // the dense arrays below (stable once built — every path exists) and
    // clears the sparse index.
    std::vector<std::pair<std::uint32_t, std::uint32_t>> sparse;  // (path, slot)
    std::vector<const route*> dense_fwd, dense_rev;  // full set, `all()` only
    std::uint32_t n_paths = 0;
    std::size_t built = 0;
    [[nodiscard]] bool dense() const { return !dense_fwd.empty(); }
  };

  [[nodiscard]] pair_entry& entry_for(std::uint32_t src, std::uint32_t dst);
  /// The pair's slot for `path`, or UINT32_MAX if not yet interned.
  [[nodiscard]] static std::uint32_t find_slot(const pair_entry& e,
                                               std::uint32_t path);
  void ensure_path(pair_entry& e, std::uint32_t src, std::uint32_t dst,
                   std::size_t path);
  /// Build all not-yet-built paths in `paths` at once, interning the whole
  /// batch under one blueprint lock (per-path locking dominated connect cost
  /// at k=32 scale).
  void ensure_paths(pair_entry& e, std::uint32_t src, std::uint32_t dst,
                    const std::size_t* paths, std::size_t count);

  fabric_instance& topo_;
  std::unordered_map<std::uint64_t, pair_entry> pairs_;
  std::deque<route> routes_;  // deque: handed-out route*s are pinned
  std::deque<path_slot> slots_;  // deque: single() views point into these

  std::vector<std::unique_ptr<flow_demux>> demux_;  // [host], lazy
  packet_pool* stale_pool_ = nullptr;  ///< forwarded to every demux when set
  std::size_t interned_ = 0;

  // Connect-path scratch (reused across calls; connects are frequent under
  // churn and per-call vectors showed up at k=32 scale).
  std::vector<std::size_t> idx_scratch_;      ///< sample()'s Fisher-Yates
  std::vector<std::size_t> missing_scratch_;  ///< not-yet-built batch
  std::vector<fabric_blueprint::structural_pair_view>
      views_scratch_;  ///< blueprint batch results
};

}  // namespace ndpsim
