// A pipe models link propagation delay: packets entering come out unchanged
// `delay` later, in order. Serialization happens in the upstream queue, so a
// pipe can hold any number of packets in flight.
//
// Hot-path layout: a pipe's deadlines are perfectly monotone (every packet
// is due exactly `delay` after entry), so in-flight packets live in the
// event list's (pipe_expiry, delay) lane — one ring push per entry, one
// batch handler call per same-time run — instead of a per-pipe ring plus a
// rescheduled head timer.  The pipe object holds no in-flight state at all;
// delivery needs only the lane entry's payload (the packet pointer), so the
// flat handler touches pipe memory only for the telemetry slot pointer (a
// never-taken branch while unarmed).  All pipes sharing one delay share one
// lane.
#pragma once

#include "net/packet.h"
#include "net/route.h"
#include "net/sim_env.h"
#include "sim/eventlist.h"
#include "sim/telemetry.h"

namespace ndpsim {

class pipe final : public packet_sink, public event_source {
 public:
  pipe(sim_env& env, simtime_t delay)
      : event_source(env.events, dispatch_class::pipe_expiry),
        delay_(delay),
        lane_(env.events.lane_for(dispatch_class::pipe_expiry, delay)) {
    NDPSIM_ASSERT(delay_ >= 0);
    // Distinct pipe delays come from topology configs — a handful of values
    // per fabric.  Exhausting the lane table here means something is
    // generating unbounded distinct delays; fail loudly rather than silently
    // falling back to a slower path.
    NDPSIM_ASSERT_MSG(lane_ != event_list::kNoLane,
                      "event lane table exhausted by pipe delays");
  }

  [[nodiscard]] simtime_t delay() const { return delay_; }

  void receive(packet& p) override {
    NDPSIM_TELE(++tele_->enq_pkts; tele_->enq_bytes += p.size_bytes);
    events().schedule_lane(lane_, *this, events().now() + delay_,
                           reinterpret_cast<std::uint64_t>(&p));
  }

  /// Pipes only ever arm lane events, never plain timers.
  void do_next_event() override {
    NDPSIM_ASSERT_MSG(false, "pipe delivery rides lanes, not timers");
  }

  void do_lane_event(std::uint64_t payload) override {
    packet& p = *reinterpret_cast<packet*>(payload);
    tele_deliver(p);
    send_to_next_hop(p);
  }

  /// Flat batch handler for dispatch_class::pipe_expiry (registered by
  /// `install_flat_handlers`): must do exactly what per-entry
  /// `do_lane_event` does, in order.  Delivery is a dependent-load chain
  /// (packet -> route -> slot -> sink table entry -> sink object) whose
  /// misses dominate the k=32 hot path, so the run is pipelined six entries
  /// deep: each stage prefetches one link for a future entry while the
  /// current one does real work.  Defined in flat_dispatch.cpp beside the
  /// queue handler.
  static void dispatch_run(event_source* const* srcs,
                           const std::uint64_t* payloads, std::size_t n);

  /// Arm (or disarm) this pipe's telemetry slot.  A pipe never drops,
  /// trims or marks, so only the hot half is kept.
  void set_telemetry(telemetry_slot t) { tele_ = t.hot; }
  /// Combined snapshot of this pipe's slot; throws `simulation_error` when
  /// no plane armed it.
  [[nodiscard]] telemetry_counters telemetry() const {
    return combine_telemetry(tele_, nullptr);
  }

 private:
  /// Far-end delivery counting, shared by the per-entry lane path and the
  /// flat batch handler (a static member, so it reaches this directly).
  void tele_deliver(const packet& p) {
    NDPSIM_TELE(++tele_->deq_pkts; tele_->deq_bytes += p.size_bytes);
  }

  simtime_t delay_;
  std::uint32_t lane_;
  telemetry_hot_counters* tele_ = nullptr;  ///< armed slot; nullptr = off
};

}  // namespace ndpsim
