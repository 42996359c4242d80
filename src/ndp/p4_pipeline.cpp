#include "ndp/p4_pipeline.h"

#include "ndp/ndp_queue.h"

namespace ndpsim {

p4_ndp_pipeline::p4_ndp_pipeline(sim_env& env, linkspeed_bps rate,
                                 p4_pipeline_config cfg)
    : queue_base(env, rate), cfg_(cfg) {}

void p4_ndp_pipeline::enqueue_arrival(packet& p) {
  // Ingress pipeline.
  // Table Directprio: NDP packets without a data payload match '*' and are
  // set to priority 1 immediately.
  if (p.is_header_class()) {
    ++hits_.directprio;
    to_priority(p);
    return;
  }
  // Table Readregister: read qs into packet metadata (modelled by reading the
  // member directly; the hit is still counted to mirror the P4 program).
  ++hits_.readregister;
  const std::uint64_t qs = qs_register_;
  // Table Setprio.
  if (qs <= cfg_.data_threshold_bytes) {
    ++hits_.setprio_normal;
    qs_register_ += p.size_bytes;
    p.enqueue_time = env_.now();
    normal_.push_back(&p);
    return;
  }
  ++hits_.setprio_truncate;
  const std::uint64_t removed = p.size_bytes - kHeaderBytes;
  ndp_queue::trim_packet(p);  // P4 primitive action `truncate`
  count_trim(removed);
  to_priority(p);
}

void p4_ndp_pipeline::to_priority(packet& p) {
  if (hdr_bytes_ + p.size_bytes > cfg_.header_capacity_bytes) {
    drop(p);  // the P4 prototype has no return-to-sender
    return;
  }
  hdr_bytes_ += p.size_bytes;
  p.enqueue_time = env_.now();
  priority_.push_back(&p);
}

packet* p4_ndp_pipeline::dequeue_next() {
  // Strict priority between the two queues (the simple_switch model).
  if (!priority_.empty()) {
    packet* p = priority_.front();
    priority_.pop_front();
    hdr_bytes_ -= p->size_bytes;
    return p;
  }
  if (normal_.empty()) return nullptr;
  packet* p = normal_.front();
  normal_.pop_front();
  // Egress pipeline, table Decrement: prio==0 packets release qs.
  ++hits_.decrement;
  NDPSIM_ASSERT(qs_register_ >= p->size_bytes);
  qs_register_ -= p->size_bytes;
  return p;
}

}  // namespace ndpsim
