// Priority flow control (802.1Qbb style) for lossless-Ethernet experiments.
//
// Model: shared-buffer switches account every buffered packet against the
// ingress port it arrived on, from arrival until it departs the egress queue.
// When an ingress port's count crosses XOFF the switch sends PAUSE to the
// upstream transmitter (one link propagation away); when it falls below XON
// it sends RESUME.  Pausing stops the upstream egress queue at a packet
// boundary.  This reproduces PFC's head-of-line blocking and pause cascades
// (the collateral-damage mechanism of Figs 15/19 in the paper).
//
// A `pfc_ingress` is placed on routes between the arrival pipe and the egress
// queue.  It forwards packets immediately (fabric is not the bottleneck) but
// tags them for buffer accounting; every lossless egress queue gets a depart
// hook that credits the tagged ingress.
#pragma once

#include "net/queue.h"

namespace ndpsim {

class pfc_ingress final : public packet_sink, public event_source {
 public:
  /// `upstream` is the transmitter across the inbound link (an egress queue of
  /// the neighbour switch or a host NIC); `pause_delay` the link propagation.
  pfc_ingress(sim_env& env, queue_base* upstream, simtime_t pause_delay,
              std::uint64_t xoff_bytes, std::uint64_t xon_bytes)
      : event_source(env.events),
        upstream_(upstream),
        pause_delay_(pause_delay),
        // PAUSE/RESUME propagation is monotone (fixed delay), so signals
        // ride a generic-class lane: payload = the pause bit, delivered
        // per-entry via do_lane_event (generic lanes never batch-dispatch,
        // so sharing the lane with other generic sources is safe).
        lane_(env.events.lane_for(dispatch_class::generic, pause_delay)),
        xoff_(xoff_bytes),
        xon_(xon_bytes) {
    NDPSIM_ASSERT(xon_ <= xoff_);
    NDPSIM_ASSERT_MSG(lane_ != event_list::kNoLane,
                      "event lane table exhausted by PFC pause delays");
  }

  void receive(packet& p) override {
    buffered_ += p.size_bytes;
    NDPSIM_ASSERT_MSG(p.ingress == nullptr, "packet already has PFC context");
    p.ingress = this;
    if (!pause_requested_ && buffered_ > xoff_) {
      pause_requested_ = true;
      ++pauses_sent_;
      signal(true);
    }
    send_to_next_hop(p);
  }

  /// Called (via egress depart hooks) when a tagged packet leaves its egress
  /// queue at this switch.
  void on_depart(packet& p) {
    NDPSIM_ASSERT(buffered_ >= p.size_bytes);
    buffered_ -= p.size_bytes;
    if (pause_requested_ && buffered_ < xon_) {
      pause_requested_ = false;
      signal(false);
    }
  }

  void do_next_event() override {
    NDPSIM_ASSERT_MSG(false, "PFC signals ride lanes, not timers");
  }

  void do_lane_event(std::uint64_t payload) override {
    if (upstream_ != nullptr) upstream_->set_paused(payload != 0);
  }

  [[nodiscard]] std::uint64_t buffered_bytes() const { return buffered_; }
  [[nodiscard]] std::uint64_t pauses_sent() const { return pauses_sent_; }

  /// Depart hook suitable for any lossless egress queue.
  static void credit_on_depart(packet& p) {
    if (p.ingress != nullptr) {
      p.ingress->on_depart(p);
      p.ingress = nullptr;
    }
  }

 private:
  void signal(bool pause) {
    events().schedule_lane(lane_, *this, events().now() + pause_delay_,
                           pause ? 1 : 0);
  }

  queue_base* upstream_;
  simtime_t pause_delay_;
  std::uint32_t lane_;
  std::uint64_t xoff_;
  std::uint64_t xon_;
  std::uint64_t buffered_ = 0;
  std::uint64_t pauses_sent_ = 0;
  bool pause_requested_ = false;
};

}  // namespace ndpsim
