// Discrete-event simulation kernel: a time-ordered queue of event sources.
//
// Usage: components derive from `event_source`, schedule themselves on the
// shared `event_list`, and get `do_next_event()` callbacks in time order.
// `schedule_at`/`schedule_in` return a `timer_handle` that can be cancelled
// or rescheduled in O(log n); a timer fires exactly once, at exactly the time
// it is (last) armed for.  There are no spurious wake-ups: a source that no
// longer needs a pending event cancels it instead of checking its own state
// when woken, and a source that needs an event at a different time moves the
// existing one instead of scheduling a second and ignoring the first.
//
// Two pending-event stores share one logical timeline:
//
//  * An indexed min-heap for arbitrary (cancellable, reschedulable) timers.
//    Every pending event knows its heap position (a dense slot->position
//    side array), which is what makes cancel and reschedule cheap
//    (decrease-key / delete instead of dead-entry accumulation).  Heap
//    entries are 16 bytes — the timestamp plus the arming sequence, dispatch
//    class and slot packed into one tagged word — so four share a cache
//    line.
//
//  * Monotone FIFO **lanes** for the fabric hot path.  A pipe always fires
//    `delay` after arming and a queue always fires one serialization time
//    after arming, so per (class, delta) their deadlines arrive already
//    sorted: a lane is a plain ring buffer with O(1) push and pop — no
//    sifting, no slot table, and room for a 64-bit payload per entry
//    (lanes are struct-of-arrays event state: deadline + seq + source +
//    payload flat in dispatch order).  Lane entries are not cancellable;
//    anything that may cancel or move stays on the heap.
//
// Ordering contract: heap entries and lane entries draw arming sequence
// numbers from the *same* counter, and dispatch always takes the globally
// smallest (when, seq) across the heap top and every lane head.  Ties are
// therefore broken by arming order (FIFO) exactly as with a single heap —
// the split is invisible to simulation results by construction.
// Rescheduling re-arms, i.e. moves the event behind others already pending
// at the new timestamp.
//
// Flat dispatch: every `event_source` carries a `dispatch_class`.  Lane
// events of a class with a registered flat handler are dispatched in
// batches — a maximal run of consecutive same-lane entries at one timestamp
// whose sequences precede every other pending candidate — through one
// indirect call for the whole run instead of one virtual call per event.
// Classes without a handler (and all heap events) fall back to per-event
// virtual dispatch.  `set_flat_dispatch(false)` forces the virtual path
// everywhere; results must be bitwise-identical either way (gated by
// tests/test_flat_dispatch.cpp and the bench identity checks).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "net/ring_fifo.h"
#include "sim/assert.h"
#include "sim/time.h"

namespace ndpsim {

class event_list;

/// Dispatch class of an event source: which flat-dispatch family its lane
/// events belong to.  `generic` sources (and every heap event, whatever the
/// class) always dispatch virtually.  At most 8 classes fit the tag layout.
enum class dispatch_class : std::uint8_t {
  generic = 0,      ///< virtual `do_next_event` / `do_lane_event` only
  pipe_expiry,      ///< link propagation delivery (payload = packet*)
  queue_service,    ///< queue serialization completion
  pacer_tick,       ///< paced-sender tick (reschedules: heap resident)
  transport_timer,  ///< transport protocol timer (RTO etc.; heap resident)
};
inline constexpr std::size_t kNDispatchClasses = 5;

/// Base class for anything that can be scheduled on the event list.
class event_source {
 public:
  explicit event_source(event_list& events,
                        dispatch_class cls = dispatch_class::generic)
      : events_(events), cls_(cls) {}
  virtual ~event_source() = default;

  event_source(const event_source&) = delete;
  event_source& operator=(const event_source&) = delete;

  /// Called when a scheduled time for this source is reached.
  virtual void do_next_event() = 0;

  /// Per-entry (virtual-mode) delivery of a lane event.  Sources that
  /// schedule lane events with payloads override this; the default ignores
  /// the payload so plain timers can ride lanes too.
  virtual void do_lane_event(std::uint64_t /*payload*/) { do_next_event(); }

  [[nodiscard]] event_list& events() const { return events_; }
  [[nodiscard]] dispatch_class dispatch_cls() const { return cls_; }

 private:
  event_list& events_;
  dispatch_class cls_;
};

/// Token for one pending event.  Trivially copyable; default-constructed
/// handles (and handles whose event has fired or been cancelled) are invalid,
/// and every `event_list` operation on an invalid handle is a safe no-op.
class timer_handle {
 public:
  timer_handle() = default;

 private:
  friend class event_list;
  static constexpr std::uint32_t kNone = UINT32_MAX;
  timer_handle(std::uint32_t slot, std::uint32_t gen)
      : slot_(slot), gen_(gen) {}
  std::uint32_t slot_ = kNone;
  std::uint32_t gen_ = 0;
};

/// Indexed min-heap plus monotone FIFO lanes; ties broken by arming order
/// across both stores.
class event_list {
 public:
  /// Batch handler for one lane run: `srcs[i]` armed the i-th event with
  /// `payloads[i]`.  All entries share one timestamp (== now()) and one
  /// dispatch class.
  using flat_batch_fn = void (*)(event_source* const* srcs,
                                 const std::uint64_t* payloads, std::size_t n);

  /// Returned by `lane_for` when the lane table is full; callers fall back
  /// to `schedule_at` (the heap honors the same (when, seq) order).
  static constexpr std::uint32_t kNoLane = UINT32_MAX;

  event_list() = default;
  event_list(const event_list&) = delete;
  event_list& operator=(const event_list&) = delete;

  [[nodiscard]] simtime_t now() const { return now_; }
  [[nodiscard]] bool empty() const {
    return heap_.empty() && lane_pending_ == 0;
  }
  [[nodiscard]] std::size_t pending() const {
    return heap_.size() + lane_pending_;
  }
  [[nodiscard]] std::uint64_t events_processed() const {
    return stats_.heap_events + stats_.lane_events;
  }

  /// Schedule `src` to run at absolute time `when` (must not be in the past).
  timer_handle schedule_at(event_source& src, simtime_t when) {
    NDPSIM_ASSERT_MSG(when >= now_, "cannot schedule into the past: " << when
                                                                      << " < "
                                                                      << now_);
    const std::uint32_t slot = alloc_slot();
    nodes_[slot].src = &src;
    const std::uint32_t at = static_cast<std::uint32_t>(heap_.size());
    pos_[slot] = at;
    heap_.push_back(heap_item{when, next_tag(slot, src.dispatch_cls())});
    sift_up(at);
    return timer_handle{slot, nodes_[slot].gen};
  }

  /// Schedule `src` to run `delta` picoseconds from now.
  timer_handle schedule_in(event_source& src, simtime_t delta) {
    NDPSIM_ASSERT(delta >= 0);
    return schedule_at(src, now_ + delta);
  }

  // --- lanes --------------------------------------------------------------

  /// The lane of (class, delta), creating it on first use.  A lane accepts
  /// only monotonically non-decreasing deadlines — which (class, delta)
  /// guarantees when every arming is `now + delta` — so callers with one
  /// fixed delta resolve their lane once and reuse the id.  Returns
  /// `kNoLane` when the lane table is full (fall back to `schedule_at`).
  [[nodiscard]] std::uint32_t lane_for(dispatch_class cls, simtime_t delta) {
    NDPSIM_ASSERT(delta >= 0);
    for (std::uint32_t i = 0; i < lanes_.size(); ++i) {
      if (lanes_[i]->cls == cls && lanes_[i]->delta == delta) return i;
    }
    if (lanes_.size() >= kMaxLanes) return kNoLane;
    lanes_.push_back(std::make_unique<lane>(cls, delta));
    return static_cast<std::uint32_t>(lanes_.size() - 1);
  }

  /// Arm a lane event for `src` at `when` carrying `payload`.  `when` must
  /// be >= the lane's last armed deadline (monotone FIFO); lane events fire
  /// exactly once and cannot be cancelled or moved.
  void schedule_lane(std::uint32_t lane_id, event_source& src, simtime_t when,
                     std::uint64_t payload = 0) {
    lane& ln = *lanes_[lane_id];
    NDPSIM_ASSERT_MSG(when >= now_, "cannot schedule into the past: " << when
                                                                      << " < "
                                                                      << now_);
    NDPSIM_ASSERT_MSG(ln.fifo.empty() || when >= ln.fifo.back().when,
                      "lane deadlines must be monotone");
    if (seq_ >= kSeqLimit) [[unlikely]] {
      renumber_tags();
    }
    ln.fifo.emplace_back(lane_entry{when, seq_++, &src, payload});
    ++lane_pending_;
    if (ln.fifo.size() == 1) activate_lane(lane_id);
  }

  /// Pre-size a lane's ring for an expected burst (fabric stamping).
  void reserve_lane(std::uint32_t lane_id, std::size_t n) {
    lanes_[lane_id]->fifo.reserve(n);
  }

  // --- flat dispatch ------------------------------------------------------

  /// Register (or clear, with nullptr) the batch handler of a class.
  void set_flat_handler(dispatch_class cls, flat_batch_fn fn) {
    handlers_[static_cast<std::size_t>(cls)] = fn;
  }

  /// Toggle flat dispatch; when off, every lane event goes through the
  /// per-entry virtual `do_lane_event` instead of the batch handlers.
  void set_flat_dispatch(bool on) { flat_on_ = on; }

  struct dispatch_counters {
    std::uint64_t heap_events = 0;      ///< virtual via the heap
    std::uint64_t lane_events = 0;      ///< via lanes (flat or virtual)
    std::uint64_t flat_events = 0;      ///< lane events batch-dispatched
    std::uint64_t flat_runs = 0;        ///< batch handler invocations
  };
  [[nodiscard]] const dispatch_counters& dispatch_stats() const {
    return stats_;
  }

  // --- timer handles (heap events only) -----------------------------------

  /// True while the handle's event is still pending (not fired, not
  /// cancelled).
  [[nodiscard]] bool is_pending(const timer_handle& h) const {
    return h.slot_ < nodes_.size() && nodes_[h.slot_].gen == h.gen_ &&
           pos_[h.slot_] != kFree;
  }

  /// The time a pending handle will fire at (handle must be pending).
  [[nodiscard]] simtime_t expiry(const timer_handle& h) const {
    NDPSIM_ASSERT(is_pending(h));
    return heap_[pos_[h.slot_]].when;
  }

  /// Remove a pending event.  Returns true if one was removed; invalid
  /// handles are a no-op.  Invalidates `h`.
  bool cancel(timer_handle& h) {
    if (!is_pending(h)) {
      h = timer_handle{};
      return false;
    }
    remove_from_heap(h.slot_);
    free_slot(h.slot_);
    h = timer_handle{};
    return true;
  }

  /// Move a pending event to `when`, or arm a fresh one for `src` if `h` is
  /// not pending.  The moved event is ordered behind events already pending
  /// at `when` (re-arming = new arming order).  Updates `h` in place.
  void reschedule(timer_handle& h, event_source& src, simtime_t when) {
    NDPSIM_ASSERT_MSG(when >= now_, "cannot schedule into the past: " << when
                                                                      << " < "
                                                                      << now_);
    if (!is_pending(h)) {
      h = schedule_at(src, when);
      return;
    }
    NDPSIM_ASSERT_MSG(nodes_[h.slot_].src == &src,
                      "rescheduling another source's timer");
    const std::uint32_t at = pos_[h.slot_];
    heap_item& item = heap_[at];
    const bool earlier = when < item.when;  // equal times sift down: seq grew
    item.when = when;
    item.tag = next_tag(h.slot_, src.dispatch_cls());
    if (earlier) {
      sift_up(at);
    } else {
      sift_down(at);
    }
  }

  // --- dispatch -----------------------------------------------------------

  /// Run the single earliest event. Returns false if none are pending.
  bool run_next_event() {
    const candidate c = peek_next();
    if (!c.found) return false;
    if (c.lane == kNoLane) {
      dispatch_min();
    } else {
      dispatch_lane_one(c.lane);
    }
    return true;
  }

  /// Run every event sharing the earliest pending timestamp (including any
  /// that dispatching schedules at that same timestamp).  Lane events of
  /// flat-handled classes are dispatched in maximal same-lane runs.
  /// Returns the number of events dispatched (0 if none pending).
  std::size_t run_next_batch() { return run_batch_bounded(UINT64_MAX); }

  /// Run all events with time <= `horizon`; afterwards now() == horizon.
  /// Drives candidates directly (one peek per dispatch round) rather than
  /// through batch framing — same global (when, seq) order, less peeking.
  void run_until(simtime_t horizon) {
    NDPSIM_ASSERT(horizon >= now_);
    for (;;) {
      const candidate c = peek_next();
      if (!c.found || c.when > horizon) break;
      dispatch_candidate(c);
    }
    now_ = horizon;
  }

  /// Run until the event list drains (or `max_events` is hit, as a backstop
  /// against runaway simulations).  The budget is enforced per event, inside
  /// the batch, so a zero-delay self-rescheduling source still trips it.
  void run_all(std::uint64_t max_events = UINT64_MAX) {
    std::uint64_t n = 0;
    for (;;) {
      const std::size_t got = run_batch_bounded(max_events - n);
      if (got == 0) break;
      n += got;
    }
  }

 private:
  static constexpr std::uint32_t kFree = UINT32_MAX;
  static constexpr unsigned kSlotBits = 24;  ///< up to 16M pending timers
  static constexpr unsigned kClassBits = 3;  ///< dispatch class in the tag
  static constexpr unsigned kSeqShift = kSlotBits + kClassBits;
  static constexpr std::uint64_t kSlotMask = (1ull << kSlotBits) - 1;
  static constexpr std::uint64_t kLowMask = (1ull << kSeqShift) - 1;
  static constexpr std::uint64_t kSeqLimit = 1ull << (64 - kSeqShift);
  static constexpr std::size_t kMaxLanes = 256;

  /// Heap entries carry their sort key inline so comparisons touch only the
  /// (contiguous, cache-resident) heap array: 16 bytes per entry — the
  /// timestamp, plus `tag` = (arming sequence << 27) | (class << 24) | slot,
  /// which breaks timestamp ties FIFO (the sequence occupies the high bits,
  /// so tag order is sequence order) and finds the slot and class without
  /// another load.
  struct heap_item {
    simtime_t when;
    std::uint64_t tag;
  };

  struct node {
    event_source* src = nullptr;
    std::uint32_t gen = 0;  ///< bumped on fire/cancel: stale handles die
  };

  /// One pending lane event: SoA-ish flat state (deadline, global arming
  /// seq, source, payload) in dispatch order within its ring.
  struct lane_entry {
    simtime_t when;
    std::uint64_t seq;
    event_source* src;
    std::uint64_t payload;
  };

  struct lane {
    lane(dispatch_class c, simtime_t d) : cls(c), delta(d) {}
    dispatch_class cls;
    simtime_t delta;
    std::uint32_t active_pos = UINT32_MAX;  ///< index in active_lanes_
    ring_fifo<lane_entry> fifo;
  };

  struct candidate {
    simtime_t when = 0;
    std::uint64_t seq = 0;
    std::uint32_t lane = kNoLane;  ///< kNoLane = heap top
    bool found = false;
  };

  /// Dispatch one candidate: a heap event, a flat lane run, or a single
  /// virtual lane event.  Returns the number of events dispatched.
  std::size_t dispatch_candidate(const candidate& c) {
    if (c.lane == kNoLane) {
      dispatch_min();
      return 1;
    }
    const flat_batch_fn handler =
        flat_on_ ? handlers_[static_cast<std::size_t>(lanes_[c.lane]->cls)]
                 : nullptr;
    if (handler != nullptr) return dispatch_lane_run(c.lane, c.when, handler);
    dispatch_lane_one(c.lane);
    return 1;
  }

  [[nodiscard]] static std::uint32_t slot_of(const heap_item& it) {
    return static_cast<std::uint32_t>(it.tag & kSlotMask);
  }

  [[nodiscard]] static bool before(const heap_item& a, const heap_item& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.tag < b.tag;  // higher bits are the arming sequence
  }

  /// Next tag for `slot`.  The 37-bit arming sequence lasts ~10^11 arms;
  /// when it would overflow, compact all pending sequences — heap and lanes
  /// share the counter — back to 0..n (their relative order, all that
  /// matters for ties, is preserved).
  [[nodiscard]] std::uint64_t next_tag(std::uint32_t slot,
                                       dispatch_class cls) {
    if (seq_ >= kSeqLimit) [[unlikely]] {
      renumber_tags();
    }
    return (seq_++ << kSeqShift) |
           (static_cast<std::uint64_t>(cls) << kSlotBits) | slot;
  }

  void renumber_tags() {
    struct ref {
      std::uint64_t seq;
      std::uint32_t lane;  ///< kNoLane = heap entry
      std::uint32_t index; ///< heap index or position within the lane ring
    };
    std::vector<ref> order;
    order.reserve(heap_.size() + lane_pending_);
    for (std::uint32_t i = 0; i < heap_.size(); ++i) {
      order.push_back(ref{heap_[i].tag >> kSeqShift, kNoLane, i});
    }
    for (std::uint32_t li = 0; li < lanes_.size(); ++li) {
      const ring_fifo<lane_entry>& f = lanes_[li]->fifo;
      for (std::uint32_t j = 0; j < f.size(); ++j) {
        order.push_back(ref{f.at(j).seq, li, j});
      }
    }
    std::sort(order.begin(), order.end(),
              [](const ref& a, const ref& b) { return a.seq < b.seq; });
    std::uint64_t next = 0;
    for (const ref& r : order) {
      if (r.lane == kNoLane) {
        heap_item& it = heap_[r.index];
        it.tag = (next << kSeqShift) | (it.tag & kLowMask);
      } else {
        lanes_[r.lane]->fifo.at(r.index).seq = next;
      }
      ++next;
    }
    seq_ = next;
  }

  // The slot->heap-position index lives in its own dense array (not in the
  // node table): sift moves store into it once per level, and a 4-byte
  // stride keeps those stores cache-resident even with tens of thousands of
  // pending timers.
  void place(const heap_item& item, std::uint32_t pos) {
    heap_[pos] = item;
    pos_[slot_of(item)] = pos;
  }

  void sift_up(std::uint32_t pos) {
    const heap_item item = heap_[pos];
    while (pos > 0) {
      const std::uint32_t parent = (pos - 1) / 2;
      if (!before(item, heap_[parent])) break;
      place(heap_[parent], pos);
      pos = parent;
    }
    place(item, pos);
  }

  void sift_down(std::uint32_t pos) {
    const heap_item item = heap_[pos];
    const std::uint32_t size = static_cast<std::uint32_t>(heap_.size());
    for (;;) {
      std::uint32_t child = 2 * pos + 1;
      if (child >= size) break;
      if (child + 1 < size && before(heap_[child + 1], heap_[child])) {
        ++child;
      }
      if (!before(heap_[child], item)) break;
      place(heap_[child], pos);
      pos = child;
    }
    place(item, pos);
  }

  [[nodiscard]] std::uint32_t alloc_slot() {
    if (free_slots_.empty()) {
      NDPSIM_ASSERT_MSG(nodes_.size() < kSlotMask, "too many pending events");
      nodes_.emplace_back();
      pos_.push_back(kFree);
      return static_cast<std::uint32_t>(nodes_.size() - 1);
    }
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }

  void free_slot(std::uint32_t slot) {
    pos_[slot] = kFree;
    ++nodes_[slot].gen;  // invalidates every outstanding handle to this slot
    free_slots_.push_back(slot);
  }

  /// Detach `slot` from the heap without freeing it.
  void remove_from_heap(std::uint32_t slot) {
    const std::uint32_t pos = pos_[slot];
    const std::uint32_t last = static_cast<std::uint32_t>(heap_.size() - 1);
    const heap_item moved = heap_.back();
    heap_.pop_back();
    if (pos != last) {
      // The item moved into the hole may belong either way from here.
      place(moved, pos);
      sift_up(pos);
      sift_down(pos_[slot_of(moved)]);
    }
  }

  void activate_lane(std::uint32_t lane_id) {
    lanes_[lane_id]->active_pos =
        static_cast<std::uint32_t>(active_lanes_.size());
    active_lanes_.push_back(lane_id);
  }

  void deactivate_lane(std::uint32_t lane_id) {
    lane& ln = *lanes_[lane_id];
    const std::uint32_t at = ln.active_pos;
    const std::uint32_t moved = active_lanes_.back();
    active_lanes_.pop_back();
    if (moved != lane_id) {
      active_lanes_[at] = moved;
      lanes_[moved]->active_pos = at;
    }
    ln.active_pos = UINT32_MAX;
  }

  /// Globally earliest pending event across the heap top and all lane heads
  /// — strict (when, seq) order, so the heap/lane split cannot reorder ties.
  [[nodiscard]] candidate peek_next() const {
    candidate c;
    if (!heap_.empty()) {
      c.when = heap_.front().when;
      c.seq = heap_.front().tag >> kSeqShift;
      c.lane = kNoLane;
      c.found = true;
    }
    for (const std::uint32_t li : active_lanes_) {
      const lane_entry& e = lanes_[li]->fifo.front();
      if (!c.found || e.when < c.when ||
          (e.when == c.when && e.seq < c.seq)) {
        c.when = e.when;
        c.seq = e.seq;
        c.lane = li;
        c.found = true;
      }
    }
    return c;
  }

  void dispatch_min() {
    const heap_item top = heap_.front();
    NDPSIM_ASSERT(top.when >= now_);
    now_ = top.when;
    const std::uint32_t slot = slot_of(top);
    event_source* src = nodes_[slot].src;
    // Pop: refill the root from the back of the heap and sift it down.
    const heap_item moved = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) {
      place(moved, 0);
      sift_down(0);
    }
    free_slot(slot);
    ++stats_.heap_events;
    src->do_next_event();
  }

  /// Dispatch a lane's head entry virtually (per-entry `do_lane_event`).
  void dispatch_lane_one(std::uint32_t lane_id) {
    lane& ln = *lanes_[lane_id];
    const lane_entry e = ln.fifo.front();
    NDPSIM_ASSERT(e.when >= now_);
    ln.fifo.pop_front();
    --lane_pending_;
    if (ln.fifo.empty()) deactivate_lane(lane_id);
    now_ = e.when;
    ++stats_.lane_events;
    e.src->do_lane_event(e.payload);
  }

  /// Dispatch the maximal run of `lane_id` entries at time `t` whose
  /// sequences precede every other pending candidate at `t`, as one batch
  /// handler call.  The lane head must be the global minimum.  New events
  /// armed by the handler always get larger sequences than the harvested
  /// run, so harvesting before dispatching cannot reorder anything.
  std::size_t dispatch_lane_run(std::uint32_t lane_id, simtime_t t,
                                flat_batch_fn handler) {
    lane& ln = *lanes_[lane_id];
    // Smallest competing sequence at time t bounds the run.
    std::uint64_t bound = UINT64_MAX;
    if (!heap_.empty() && heap_.front().when == t) {
      bound = heap_.front().tag >> kSeqShift;
    }
    for (const std::uint32_t other : active_lanes_) {
      if (other == lane_id) continue;
      const lane_entry& e = lanes_[other]->fifo.front();
      if (e.when == t && e.seq < bound) bound = e.seq;
    }
    run_srcs_.clear();
    run_payloads_.clear();
    while (!ln.fifo.empty()) {
      const lane_entry& e = ln.fifo.front();
      if (e.when != t || e.seq >= bound) break;
      run_srcs_.push_back(e.src);
      run_payloads_.push_back(e.payload);
      ln.fifo.pop_front();
    }
    if (ln.fifo.empty()) deactivate_lane(lane_id);
    const std::size_t m = run_srcs_.size();
    NDPSIM_ASSERT(m > 0);
    lane_pending_ -= m;
    now_ = t;
    stats_.lane_events += m;
    stats_.flat_events += m;
    ++stats_.flat_runs;
    handler(run_srcs_.data(), run_payloads_.data(), m);
    return m;
  }

  /// One same-timestamp batch; throws once more than `budget` events run.
  std::size_t run_batch_bounded(std::uint64_t budget) {
    candidate c = peek_next();
    if (!c.found) return 0;
    const simtime_t t = c.when;
    std::size_t n = 0;
    for (;;) {
      n += dispatch_candidate(c);  // c.when == t throughout the batch
      NDPSIM_ASSERT_MSG(n <= budget, "event budget exhausted");
      c = peek_next();
      if (!c.found || c.when != t) break;
    }
    return n;
  }

  std::vector<node> nodes_;
  std::vector<std::uint32_t> pos_;  ///< slot -> heap index, kFree if not pending
  std::vector<std::uint32_t> free_slots_;
  std::vector<heap_item> heap_;  ///< heap-ordered by (when, seq)

  std::vector<std::unique_ptr<lane>> lanes_;  ///< by lane id (stable)
  std::vector<std::uint32_t> active_lanes_;   ///< non-empty lanes, unordered
  std::size_t lane_pending_ = 0;

  std::array<flat_batch_fn, kNDispatchClasses> handlers_ = {};
  bool flat_on_ = true;
  dispatch_counters stats_;
  std::vector<event_source*> run_srcs_;      ///< batch harvest scratch
  std::vector<std::uint64_t> run_payloads_;  ///< batch harvest scratch

  simtime_t now_ = 0;
  std::uint64_t seq_ = 0;
};

}  // namespace ndpsim
