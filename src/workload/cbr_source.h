// Constant-bit-rate unresponsive sender and a counting sink.
//
// Used for the Fig 2 experiment ("many unresponsive flows converge on a
// 10Gb/s link"): CBR sources ignore all feedback, which isolates the switch
// service model (CP vs NDP queue) from any transport reaction.
#pragma once

#include "net/endpoint.h"
#include "sim/eventlist.h"

namespace ndpsim {

/// Terminal sink that counts delivered payload and releases packets
/// (including trimmed headers, which carry no payload).
class counting_sink final : public packet_sink {
 public:
  explicit counting_sink(sim_env& env) : env_(env) {}

  void receive(packet& p) override {
    payload_ += p.payload_bytes;  // 0 in a trimmed header
    env_.pool.release(&p);
  }

  [[nodiscard]] std::uint64_t payload_bytes() const { return payload_; }

 private:
  sim_env& env_;
  std::uint64_t payload_ = 0;
};

/// Never completes: it sends until stopped.
class cbr_source final : public event_source, public endpoint {
 public:
  /// `jitter_frac` adds uniform timing noise of +-(jitter/2) x period to each
  /// send, modelling OS/NIC scheduling variability (keeps mean rate exact).
  cbr_source(sim_env& env, linkspeed_bps rate, std::uint32_t mss_bytes,
             std::uint32_t flow_id, double jitter_frac = 0.0);
  ~cbr_source() override;

  /// Send forever from `start_at`, at `rate`, over path 0 of the borrowed
  /// set. `rx` is registered at the destination demux as this flow's
  /// receiving endpoint (CBR is unidirectional — nothing binds at the
  /// source).
  void start(path_set paths, packet_sink* rx, std::uint32_t src,
             std::uint32_t dst, simtime_t start_at);

  void do_next_event() override;

  /// Stop sending (cancels the pending send timer).
  void stop() { events().cancel(timer_); }

  /// Teardown hook (flow recycling): stop sending, then unbind and drop the
  /// paths as every endpoint does.  Also invoked by the destructor.
  void disconnect() override {
    stop();
    endpoint::disconnect();
  }

 private:
  timer_handle timer_;
  linkspeed_bps rate_;
  std::uint32_t mss_bytes_;
  double jitter_frac_;
};

}  // namespace ndpsim
