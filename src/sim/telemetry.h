// The telemetry plane: flat per-slot counters + an epoch-driven collector.
//
// Counters live in one pre-sized flat array indexed by the fabric
// blueprint's dense sink-slot ids (topo/fabric_blueprint.h slot layout:
// [queue, pipe, pfc?] per directed link, then one demux slot per host), so
// arming telemetry costs no per-component allocation and a hot-path update
// is a single indexed increment on a pointer the component cached at arm
// time.  Components carry no names: output names a slot through the
// plane's `name_pool`, the blueprint, whose `format_name` builds names such
// as "aggup3.1.2.pipe" from its link records on demand.
//
// The plane is the simulator's only store of fabric counters: queues, pipes
// and demuxes keep none of their own.  The cost contract, in two modes:
//  * off (the default): each component holds a `telemetry_hot_counters*
//    tele_` that stays nullptr until a plane is attached to the `sim_env`
//    *before* fabric construction.  Nothing is counted; the only residue is
//    one never-taken predictable branch per site — bench_eventcore's
//    `telemetry` section gates that this is within noise of the committed
//    baseline.  Reading an unarmed component's counters throws
//    `simulation_error`, so a "nothing dropped" check cannot pass on
//    counters that were never kept;
//  * on: one pointer-indirect increment per counted event, gated at <=10%
//    end-to-end overhead on the k=16 NDP permutation.
//
// Telemetry is OBSERVATIONAL ONLY: it never schedules differently, never
// touches the RNG, never changes a packet.  tests/test_flat_dispatch.cpp
// pins that with bitwise FCT identity on-vs-off across all six transports,
// and tests/test_telemetry.cpp checks the counters against conservation
// laws (enqueued == dequeued + dropped + bounced + resident, and the byte
// equivalent including trimmed-away payload).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/assert.h"
#include "sim/eventlist.h"

namespace ndpsim {

/// Guard for a hot-path telemetry update.  Convention: the enclosing class
/// keeps its armed slot's hot half as a member named `tele_` (nullptr =
/// off) and, if it has rare events to count, the rare half as `tele_rare_`
/// (armed and disarmed together, so the one null check guards both):
///   NDPSIM_TELE(++tele_->enq_pkts; tele_->enq_bytes += p.size_bytes);
///   NDPSIM_TELE(++tele_rare_->drop_pkts);
#define NDPSIM_TELE(...)      \
  do {                        \
    if (tele_ != nullptr) {   \
      __VA_ARGS__;            \
    }                         \
  } while (false)

/// Hot half of a slot's counters: the four fields every accepted packet
/// (enq) and every completion/delivery (deq) touches.  Kept in their own
/// dense 32-byte-per-slot array so the armed fast path dirties exactly one
/// cache line per update, two slots share each line (a link's queue and
/// pipe slots are blueprint neighbours), and the whole hot array stays
/// small enough to live in L2 beside the simulator's working set — the
/// hot/rare split is what holds armed overhead inside the <=10% budget
/// (bench_eventcore's `telemetry` section gates it).  Written only by the
/// owning component; monotone non-decreasing, so epoch deltas are always
/// well-defined.
struct alignas(32) telemetry_hot_counters {
  std::uint64_t enq_pkts = 0;
  std::uint64_t enq_bytes = 0;
  std::uint64_t deq_pkts = 0;
  std::uint64_t deq_bytes = 0;

  void add(const telemetry_hot_counters& o) {
    enq_pkts += o.enq_pkts;
    enq_bytes += o.enq_bytes;
    deq_pkts += o.deq_pkts;
    deq_bytes += o.deq_bytes;
  }

  bool operator==(const telemetry_hot_counters&) const = default;
};
static_assert(sizeof(telemetry_hot_counters) == 32);

/// Rare half: drops, trims, bounces, ECN marks, stale deliveries — updated
/// only when those events occur, so they live in a separate (cold) array
/// and cost the every-packet path nothing.
struct telemetry_rare_counters {
  std::uint64_t drop_pkts = 0;
  std::uint64_t drop_bytes = 0;
  std::uint64_t trim_pkts = 0;
  std::uint64_t trim_bytes = 0;  ///< payload bytes removed by trimming
  std::uint64_t bounce_pkts = 0;
  std::uint64_t bounce_bytes = 0;
  std::uint64_t mark_pkts = 0;  ///< ECN CE marks applied here
  std::uint64_t stale_drops = 0;  ///< demux only: unbound-flow deliveries

  void add(const telemetry_rare_counters& o) {
    drop_pkts += o.drop_pkts;
    drop_bytes += o.drop_bytes;
    trim_pkts += o.trim_pkts;
    trim_bytes += o.trim_bytes;
    bounce_pkts += o.bounce_pkts;
    bounce_bytes += o.bounce_bytes;
    mark_pkts += o.mark_pkts;
    stale_drops += o.stale_drops;
  }

  bool operator==(const telemetry_rare_counters&) const = default;
};

/// The pair of armed pointers a component caches: both halves of one slot,
/// set and cleared together (the hot pointer doubles as the armed flag).
struct telemetry_slot {
  telemetry_hot_counters* hot = nullptr;
  telemetry_rare_counters* rare = nullptr;
};

/// One slot's combined counters — the analysis-side view (collector
/// snapshots, JSON emission, tests).  Storage-wise the plane keeps the two
/// halves split (see telemetry_hot_counters); this struct is materialized
/// on read.
///
/// Semantics per component kind:
///  * queue: enq = packets accepted by `receive` (at arrival size);
///    deq = serialization completions (at departure size); drop/bounce as
///    counted by the queue; trim_pkts = in-place payload truncations, with
///    `trim_bytes` the payload removed (the packet itself stays resident,
///    so bytes conservation is
///    enq_bytes == deq_bytes + drop_bytes + bounce_bytes + trim_bytes +
///    resident_bytes);
///  * pipe: enq = packets entering the wire, deq = deliveries at the far
///    end (equal once drained — a pipe never drops);
///  * demux: enq = terminal deliveries, deq = packets handed to a bound
///    endpoint, stale_drops = deliveries for recycled/unbound flows
///    (enq_pkts == deq_pkts + stale_drops).
struct telemetry_counters {
  std::uint64_t enq_pkts = 0;
  std::uint64_t enq_bytes = 0;
  std::uint64_t deq_pkts = 0;
  std::uint64_t deq_bytes = 0;

  std::uint64_t drop_pkts = 0;
  std::uint64_t drop_bytes = 0;
  std::uint64_t trim_pkts = 0;
  std::uint64_t trim_bytes = 0;  ///< payload bytes removed by trimming
  std::uint64_t bounce_pkts = 0;
  std::uint64_t bounce_bytes = 0;
  std::uint64_t mark_pkts = 0;  ///< ECN CE marks applied here
  std::uint64_t stale_drops = 0;  ///< demux only: unbound-flow deliveries

  [[nodiscard]] bool idle() const {
    return enq_pkts == 0 && deq_pkts == 0 && drop_pkts == 0 &&
           stale_drops == 0;
  }

  void add(const telemetry_counters& o) {
    enq_pkts += o.enq_pkts;
    enq_bytes += o.enq_bytes;
    deq_pkts += o.deq_pkts;
    deq_bytes += o.deq_bytes;
    drop_pkts += o.drop_pkts;
    drop_bytes += o.drop_bytes;
    trim_pkts += o.trim_pkts;
    trim_bytes += o.trim_bytes;
    bounce_pkts += o.bounce_pkts;
    bounce_bytes += o.bounce_bytes;
    mark_pkts += o.mark_pkts;
    stale_drops += o.stale_drops;
  }

  bool operator==(const telemetry_counters&) const = default;
};

/// Zip the two halves into the combined view.  `h` is the armed flag: a
/// null `h` is a component no plane armed, and reading it throws
/// `simulation_error`.  A null `r` (pipes keep only the hot half) reads as
/// zero rare counters.
[[nodiscard]] inline telemetry_counters combine_telemetry(
    const telemetry_hot_counters* h, const telemetry_rare_counters* r) {
  NDPSIM_ASSERT_MSG(h != nullptr,
                    "counters read from a component no telemetry plane "
                    "armed (attach sim_env::telemetry before building the "
                    "fabric)");
  telemetry_counters c;
  c.enq_pkts = h->enq_pkts;
  c.enq_bytes = h->enq_bytes;
  c.deq_pkts = h->deq_pkts;
  c.deq_bytes = h->deq_bytes;
  if (r != nullptr) {
    c.drop_pkts = r->drop_pkts;
    c.drop_bytes = r->drop_bytes;
    c.trim_pkts = r->trim_pkts;
    c.trim_bytes = r->trim_bytes;
    c.bounce_pkts = r->bounce_pkts;
    c.bounce_bytes = r->bounce_bytes;
    c.mark_pkts = r->mark_pkts;
    c.stale_drops = r->stale_drops;
  }
  return c;
}

/// What kind of component owns a slot (drives which conservation law and
/// which JSON series apply to it).
enum class telemetry_kind : std::uint8_t {
  other = 0,
  queue,
  pipe,
  demux,
};

[[nodiscard]] const char* to_string(telemetry_kind k);

/// Formats a slot's name from its id, for telemetry output.  The
/// `fabric_blueprint` implements it from its link records.
class name_pool {
 public:
  virtual ~name_pool() = default;
  [[nodiscard]] virtual std::string format_name(std::uint32_t id) const = 0;
};

/// Registry + counter storage for one simulation.  Pre-sized to the
/// blueprint's slot count; `arm` marks a slot live and returns the pointer
/// the component caches.
///
/// The plane is plain memory — no events, no locks.  Under
/// `parallel_runner` each job owns a private plane; `merge_from` folds job
/// planes together on join (counter sums; the slot layout must match, which
/// it does whenever the jobs share one blueprint).
class telemetry_plane {
 public:
  struct slot_info {
    telemetry_kind kind = telemetry_kind::other;
    std::uint8_t level = 0;       ///< link_level cast for queue/pipe slots
    std::uint64_t rate_bps = 0;   ///< queue slots: link rate (utilization)
    bool armed = false;
  };

  /// `names` (optional) formats slot names on demand — a
  /// `fabric_blueprint` is a `name_pool` whose ids are exactly these slot
  /// ids.  Must outlive the plane if given.
  explicit telemetry_plane(std::size_t n_slots,
                           const name_pool* names = nullptr)
      : hot_(n_slots), rare_(n_slots), info_(n_slots), names_(names) {}

  /// Mark `slot` live and return its counter halves.  The arrays never
  /// grow, so the pointers stay valid for the plane's lifetime.
  telemetry_slot arm(std::uint32_t slot, telemetry_kind kind,
                     std::uint8_t level = 0, std::uint64_t rate_bps = 0) {
    NDPSIM_ASSERT_MSG(slot < hot_.size(),
                      "telemetry slot " << slot << " out of range");
    info_[slot] = slot_info{kind, level, rate_bps, true};
    return telemetry_slot{&hot_[slot], &rare_[slot]};
  }

  [[nodiscard]] std::size_t n_slots() const { return hot_.size(); }
  [[nodiscard]] telemetry_counters counters(std::uint32_t slot) const {
    NDPSIM_ASSERT(slot < hot_.size());
    return combine_telemetry(&hot_[slot], &rare_[slot]);
  }
  [[nodiscard]] const slot_info& info(std::uint32_t slot) const {
    NDPSIM_ASSERT(slot < info_.size());
    return info_[slot];
  }
  /// Raw counter halves — contiguous, so a collector snapshot is two
  /// straight vector copies rather than a per-slot gather.
  [[nodiscard]] const std::vector<telemetry_hot_counters>& hot_counters()
      const {
    return hot_;
  }
  [[nodiscard]] const std::vector<telemetry_rare_counters>& rare_counters()
      const {
    return rare_;
  }
  [[nodiscard]] std::string slot_name(std::uint32_t slot) const {
    if (names_ != nullptr) return names_->format_name(slot);
    return "slot" + std::to_string(slot);
  }

  /// Fold another job's plane into this one (counter sums).  Slot layouts
  /// must match — true for sweeps sharing one blueprint.
  void merge_from(const telemetry_plane& other);

  /// Sum of every armed slot's counters of `kind` — the campaign-scale
  /// spill view: a whole plane reduced to one `telemetry_counters` per
  /// component kind (stats/fct_summary.h), so thousand-job sweeps keep a
  /// few hundred bytes per job instead of the full per-slot arrays.
  [[nodiscard]] telemetry_counters totals(telemetry_kind kind) const;
  /// Number of armed slots (any kind).
  [[nodiscard]] std::size_t armed_slots() const;

  /// Exact counter equality across every slot (serial-vs-parallel checks).
  [[nodiscard]] bool counters_equal(const telemetry_plane& other) const {
    return hot_ == other.hot_ && rare_ == other.rare_;
  }

 private:
  std::vector<telemetry_hot_counters> hot_;    ///< [slot id]
  std::vector<telemetry_rare_counters> rare_;  ///< [slot id]
  std::vector<slot_info> info_;                ///< [slot id]
  const name_pool* names_ = nullptr;
};

/// Epoch-driven sampler: a rescheduled heap timer that snapshots the
/// plane's counter array into a bounded ring of epochs.  Time series
/// (queue depth, link utilization, mark/stale rates) are *derived* from
/// cumulative-counter deltas between epochs, so the collector never reads
/// component state — it cannot perturb the simulation beyond its own timer
/// events, and those ride the generic heap class which flat dispatch never
/// batches.
///
/// The ring keeps the most recent `capacity` epochs; `dropped_epochs`
/// reports how many older ones were overwritten (no silent truncation).
class telemetry_collector final : public event_source {
 public:
  struct epoch_snapshot {
    simtime_t at = 0;
    std::vector<telemetry_hot_counters> hot;
    std::vector<telemetry_rare_counters> rare;
    /// Combined view of one slot as of this epoch.
    [[nodiscard]] telemetry_counters counters(std::uint32_t slot) const {
      return combine_telemetry(&hot[slot], &rare[slot]);
    }
  };

  telemetry_collector(event_list& events, telemetry_plane& plane,
                      simtime_t epoch, std::size_t capacity = 256)
      : event_source(events),
        plane_(plane),
        epoch_(epoch),
        capacity_(capacity) {
    NDPSIM_ASSERT(epoch > 0 && capacity > 0);
    ring_.reserve(capacity_);
  }
  ~telemetry_collector() override { stop(); }

  /// Take the t=now baseline snapshot and start the epoch timer.
  void start() {
    if (events().is_pending(timer_)) return;
    snapshot();
    timer_ = events().schedule_in(*this, epoch_);
  }
  void stop() { (void)events().cancel(timer_); }

  /// One final snapshot at the current time (end-of-run bookend); safe to
  /// call after the event loop drained.
  void finish() {
    stop();
    if (n_recorded_ == 0 || epoch_at(n_epochs() - 1).at != events().now()) {
      snapshot();
    }
  }

  void do_next_event() override {
    snapshot();
    timer_ = events().schedule_in(*this, epoch_);
  }

  [[nodiscard]] const telemetry_plane& plane() const { return plane_; }
  [[nodiscard]] simtime_t epoch() const { return epoch_; }
  /// Epochs currently held (<= capacity), oldest first.
  [[nodiscard]] std::size_t n_epochs() const { return ring_.size(); }
  [[nodiscard]] const epoch_snapshot& epoch_at(std::size_t i) const {
    NDPSIM_ASSERT(i < ring_.size());
    return ring_[(head_ + i) % ring_.size()];
  }
  /// Total snapshots ever taken (>= n_epochs once the ring wrapped).
  [[nodiscard]] std::uint64_t recorded_epochs() const { return n_recorded_; }
  [[nodiscard]] std::uint64_t dropped_epochs() const {
    return n_recorded_ - ring_.size();
  }

 private:
  void snapshot() {
    epoch_snapshot* s;
    if (ring_.size() < capacity_) {
      ring_.emplace_back();
      s = &ring_.back();
    } else {
      s = &ring_[head_];
      head_ = (head_ + 1) % capacity_;
    }
    s->at = events().now();
    // Two contiguous vector copies; once the ring has wrapped they reuse
    // the evicted epoch's storage.
    s->hot = plane_.hot_counters();
    s->rare = plane_.rare_counters();
    ++n_recorded_;
  }

  telemetry_plane& plane_;
  simtime_t epoch_;
  std::size_t capacity_;
  std::vector<epoch_snapshot> ring_;
  std::size_t head_ = 0;  ///< index of the oldest epoch once wrapped
  std::uint64_t n_recorded_ = 0;
  timer_handle timer_;
};

}  // namespace ndpsim
