// Match-action emulation of the paper's P4 NDP switch (Fig 7).
//
// The P4 proof of concept expresses NDP trimming as four tables around two
// egress queues:
//   Directprio:   control packets (no payload) -> priority queue
//   Readregister: copy the data-queue occupancy register `qs` into metadata
//   Setprio:      qs <= threshold -> normal queue, qs += pkt.size
//                 qs >  threshold -> truncate, priority queue
//   Decrement:    egress, packets leaving the normal queue do qs -= pkt.size
//
// This class executes that exact table program per packet.  Relative to the
// full `ndp_queue`, the P4 prototype (as published) has strict priority
// instead of 10:1 WRR, always trims the *arriving* packet, and has no
// return-to-sender — matching the paper's description of it as a proof of
// concept. Tests verify the table program and its equivalence to `ndp_queue`
// configured the same way.
#pragma once

#include "net/queue.h"
#include "net/ring_fifo.h"

namespace ndpsim {

struct p4_pipeline_config {
  std::uint64_t data_threshold_bytes = 12 * 1024;  ///< paper: 12KB
  std::uint64_t header_capacity_bytes = 12 * 1024;
};

class p4_ndp_pipeline final : public queue_base {
 public:
  p4_ndp_pipeline(sim_env& env, linkspeed_bps rate, p4_pipeline_config cfg);

  [[nodiscard]] std::uint64_t buffered_bytes() const override {
    return qs_register_ + hdr_bytes_;
  }
  [[nodiscard]] std::size_t buffered_packets() const override {
    return normal_.size() + priority_.size();
  }
  /// The P4 occupancy register (bytes in the normal queue).
  [[nodiscard]] std::uint64_t qs_register() const { return qs_register_; }

  struct table_hits {
    std::uint64_t directprio = 0;
    std::uint64_t readregister = 0;
    std::uint64_t setprio_normal = 0;
    std::uint64_t setprio_truncate = 0;
    std::uint64_t decrement = 0;
  };
  [[nodiscard]] const table_hits& hits() const { return hits_; }

 protected:
  void enqueue_arrival(packet& p) override;
  [[nodiscard]] packet* dequeue_next() override;

 private:
  void to_priority(packet& p);

  p4_pipeline_config cfg_;
  ring_fifo<packet*> normal_;
  ring_fifo<packet*> priority_;
  std::uint64_t qs_register_ = 0;
  std::uint64_t hdr_bytes_ = 0;
  table_hits hits_;
};

}  // namespace ndpsim
