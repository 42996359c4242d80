// Base class for store-and-forward output queues.
//
// A queue serializes one packet at a time at its link rate, then hands it to
// the next hop (normally a pipe).  Subclasses define buffering policy by
// implementing `enqueue_arrival` (admit / drop / trim / mark) and
// `dequeue_next` (scheduling discipline across internal sub-queues).
//
// Queues support PFC pausing: while paused, the in-flight packet finishes
// serializing but no new packet starts (pause at packet boundary, as 802.1Qbb
// does).  A lossless egress queue also credits each departing packet's PFC
// ingress (`enable_pfc_credit`).
//
// Hot-path layout: service completions are monotone per (rate, packet size)
// — the deadline is always now + serialization_time — so they ride the
// event list's (queue_service, delta) lanes and batch-dispatch through
// `dispatch_run`, one handler call per run.  A queue's traffic
// alternates between very few sizes (full data MTU and header/control), so
// a 2-entry wire-size -> (serialization time, lane) cache keeps service
// start at two compares.  The rate never changes after construction, so the
// time is a pure function of size: only an unseen size pays the 128-bit
// divide and the `lane_for` scan.  If the lane table is ever full the
// completion falls back to a plain heap timer (same ordering, just slower).
// Completion logic itself is the non-virtual `service_complete` — identical
// from the flat batch handler, the per-entry lane path, and the heap
// fallback.
//
// Counting: a queue keeps no statistics of its own.  Arrivals, departures,
// drops, trims, bounces and ECN marks are counted only in the telemetry slot
// the fabric armed it with (sim/telemetry.h); an unarmed queue counts
// nothing, and reading its counters throws.
#pragma once

#include <cstdint>

#include "net/packet.h"
#include "net/route.h"
#include "net/sim_env.h"
#include "sim/eventlist.h"
#include "sim/telemetry.h"

namespace ndpsim {

/// Credit `p`'s PFC ingress, if it has one, for the buffer `p` leaves
/// (net/lossless.cpp).
void pfc_credit_on_depart(packet& p);

class queue_base : public packet_sink, public event_source {
  // coexist_queue composes two child queues and drives their (protected)
  // admission/scheduling hooks directly, without giving them the wire.
  friend class coexist_queue;

 public:
  queue_base(sim_env& env, linkspeed_bps rate)
      : event_source(env.events, dispatch_class::queue_service),
        env_(env),
        rate_(rate) {
    NDPSIM_ASSERT(rate > 0);
  }

  void receive(packet& p) final {
    NDPSIM_TELE(++tele_->enq_pkts; tele_->enq_bytes += p.size_bytes);
    enqueue_arrival(p);
    try_start_service();
  }

  /// Heap-fallback path (lane table full); lanes are the normal route.
  void do_next_event() final { service_complete(); }
  void do_lane_event(std::uint64_t /*payload*/) final { service_complete(); }

  /// Flat batch handler for dispatch_class::queue_service (registered by
  /// `install_flat_handlers`): must do exactly what per-entry
  /// `do_lane_event` does, in order.  Pipelined like pipe::dispatch_run —
  /// the queue object, its in-service packet and that packet's next-hop
  /// resolution are prefetched for future entries of the run.  Defined in
  /// flat_dispatch.cpp beside the pipe handler.
  static void dispatch_run(event_source* const* srcs,
                           const std::uint64_t* payloads, std::size_t n);

  /// PFC: pause/resume serving (the packet on the wire always completes).
  void set_paused(bool paused) {
    paused_ = paused;
    if (!paused_) try_start_service();
  }
  [[nodiscard]] bool paused() const { return paused_; }
  [[nodiscard]] bool busy() const { return serving_ != nullptr; }

  [[nodiscard]] linkspeed_bps rate() const { return rate_; }

  /// Lossless wiring: credit every departing packet's PFC ingress just
  /// before it leaves the queue.
  void enable_pfc_credit() { pfc_credit_ = true; }

  /// Bytes currently buffered (excluding the packet being serialized).
  [[nodiscard]] virtual std::uint64_t buffered_bytes() const = 0;
  [[nodiscard]] virtual std::size_t buffered_packets() const = 0;
  /// Size of the packet on the wire right now (0 when idle) — together with
  /// buffered_bytes this is the queue's resident byte count, the term the
  /// telemetry conservation law needs.
  [[nodiscard]] std::uint64_t serving_bytes() const {
    return serving_ != nullptr ? serving_->size_bytes : 0;
  }

  /// Arm (or disarm with a null slot) this queue's telemetry slot.  Virtual
  /// so composite ports (coexist_queue) can share the slot with the child
  /// queues whose admission/drop hooks do the actual counting.
  virtual void set_telemetry(telemetry_slot t) {
    tele_ = t.hot;
    tele_rare_ = t.rare;
  }
  /// Combined snapshot of this queue's slot; throws `simulation_error` when
  /// no plane armed it.
  [[nodiscard]] telemetry_counters telemetry() const {
    return combine_telemetry(tele_, tele_rare_);
  }
  [[nodiscard]] bool telemetry_armed() const { return tele_ != nullptr; }

 protected:
  /// Admit/drop/trim/mark the arriving packet; must either buffer it or
  /// dispose of it (release to pool / bounce).
  virtual void enqueue_arrival(packet& p) = 0;
  /// Pick the next packet to serialize, or nullptr if none.
  [[nodiscard]] virtual packet* dequeue_next() = 0;

  void try_start_service() {
    if (serving_ != nullptr || paused_) return;
    packet* p = dequeue_next();
    if (p == nullptr) return;
    serving_ = p;
    const std::uint32_t size = p->size_bytes;
    if (size != svc_[0].size) {
      if (size == svc_[1].size) {
        // Swap to front so two alternating sizes both stay one compare away.
        std::swap(svc_[0], svc_[1]);
      } else {
        const simtime_t st = serialization_time(size, rate_);
        svc_[1] = svc_[0];
        svc_[0] = {size, events().lane_for(dispatch_class::queue_service, st),
                   st};
      }
    }
    // The service event is deliberately not kept as a handle: once a packet
    // starts serializing it always completes (even under PFC pause) — which
    // is also what makes the non-cancellable lane legal here.
    const service_entry& e = svc_[0];
    if (e.lane != event_list::kNoLane) {
      events().schedule_lane(e.lane, *this, events().now() + e.st);
    } else {
      (void)events().schedule_in(*this, e.st);
    }
  }

  void drop(packet& p) {
    NDPSIM_TELE(++tele_rare_->drop_pkts; tele_rare_->drop_bytes +=
                                         p.size_bytes);
    env_.pool.release(&p);
  }
  /// `removed_bytes` is the payload cut away by the in-place truncation
  /// (old size - kHeaderBytes): the trimmed packet stays resident at header
  /// size, so this is the only record of the bytes that left the queue here.
  void count_trim(std::uint64_t removed_bytes) {
    NDPSIM_TELE(++tele_rare_->trim_pkts; tele_rare_->trim_bytes +=
                                         removed_bytes);
  }
  /// `p` is leaving sideways onto the reverse route (return-to-sender).
  void count_bounce(const packet& p) {
    NDPSIM_TELE(++tele_rare_->bounce_pkts; tele_rare_->bounce_bytes +=
                                           p.size_bytes);
  }
  void count_mark() {
    NDPSIM_TELE(++tele_rare_->mark_pkts);
  }

  sim_env& env_;
  telemetry_hot_counters* tele_ = nullptr;  ///< armed slot; nullptr = off
  telemetry_rare_counters* tele_rare_ = nullptr;  ///< armed with tele_

 private:
  void service_complete() {
    NDPSIM_ASSERT_MSG(serving_ != nullptr, "queue service event with no packet");
    packet* p = serving_;
    serving_ = nullptr;
    NDPSIM_TELE(++tele_->deq_pkts; tele_->deq_bytes += p->size_bytes);
    if (pfc_credit_) pfc_credit_on_depart(*p);
    send_to_next_hop(*p);
    try_start_service();
  }

  linkspeed_bps rate_;
  packet* serving_ = nullptr;
  bool paused_ = false;
  bool pfc_credit_ = false;
  // Wire size -> service timing, most-recent first (no packet is 4 GiB).
  struct service_entry {
    std::uint32_t size = UINT32_MAX, lane = event_list::kNoLane;
    simtime_t st = 0;
  } svc_[2];
};

}  // namespace ndpsim
