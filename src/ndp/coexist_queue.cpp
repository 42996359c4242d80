#include "ndp/coexist_queue.h"

namespace ndpsim {

coexist_queue::coexist_queue(sim_env& env, linkspeed_bps rate,
                             coexist_config cfg)
    : queue_base(env, rate), cfg_(cfg) {
  ndp_side_ = std::make_unique<ndp_queue>(env, rate, cfg_.ndp);
  if (cfg_.tcp_ecn_threshold_bytes > 0) {
    tcp_side_ = std::make_unique<ecn_threshold_queue>(
        env, rate, cfg_.tcp_capacity_bytes, cfg_.tcp_ecn_threshold_bytes);
  } else {
    tcp_side_ = std::make_unique<drop_tail_queue>(env, rate,
                                                  cfg_.tcp_capacity_bytes);
  }
}

void coexist_queue::enqueue_arrival(packet& p) {
  // The children never get the wire themselves: we drive their admission and
  // scheduling hooks directly and do the serialization here.
  // Access via the base class: coexist_queue is a friend of queue_base and
  // the hooks dispatch virtually to the concrete child.
  if (is_tcp_class(p)) {
    static_cast<queue_base&>(*tcp_side_).enqueue_arrival(p);
  } else {
    static_cast<queue_base&>(*ndp_side_).enqueue_arrival(p);
  }
}

packet* coexist_queue::dequeue_next() {
  const bool ndp_has = ndp_side_->buffered_packets() > 0;
  const bool tcp_has = tcp_side_->buffered_packets() > 0;
  if (!ndp_has && !tcp_has) return nullptr;

  // Byte-deficit round robin between the two classes; a class with nothing
  // queued cedes its turn (and doesn't accumulate deficit).
  for (int attempts = 0; attempts < 2; ++attempts) {
    if (serve_ndp_next_) {
      if (ndp_has) {
        if (ndp_deficit_ <= 0) ndp_deficit_ += cfg_.quantum_bytes;
        packet* p = static_cast<queue_base&>(*ndp_side_).dequeue_next();
        NDPSIM_ASSERT(p != nullptr);
        ndp_deficit_ -= p->size_bytes;
        ndp_sent_ += p->size_bytes;
        if (ndp_deficit_ <= 0) serve_ndp_next_ = false;
        return p;
      }
      serve_ndp_next_ = false;
      tcp_deficit_ = 0;
    } else {
      if (tcp_has) {
        if (tcp_deficit_ <= 0) tcp_deficit_ += cfg_.quantum_bytes;
        packet* p = static_cast<queue_base&>(*tcp_side_).dequeue_next();
        NDPSIM_ASSERT(p != nullptr);
        tcp_deficit_ -= p->size_bytes;
        tcp_sent_ += p->size_bytes;
        if (tcp_deficit_ <= 0) serve_ndp_next_ = true;
        return p;
      }
      serve_ndp_next_ = true;
      ndp_deficit_ = 0;
    }
  }
  return nullptr;
}

}  // namespace ndpsim
