#include "cp/cp_queue.h"

#include "ndp/ndp_queue.h"

namespace ndpsim {

void cp_queue::enqueue_arrival(packet& p) {
  if (!p.is_header_class()) {
    if (data_bytes_ + p.size_bytes > capacity_) {
      // CP: always trim the arriving data packet; the header joins the same
      // FIFO with no priority treatment.
      const std::uint64_t removed = p.size_bytes - kHeaderBytes;
      ndp_queue::trim_packet(p);
      count_trim(removed);
    }
  }
  if (p.is_header_class()) {
    header_bytes_ += p.size_bytes;
  } else {
    data_bytes_ += p.size_bytes;
  }
  bytes_ += p.size_bytes;
  p.enqueue_time = env_.now();
  fifo_.push_back(&p);
}

packet* cp_queue::dequeue_next() {
  if (fifo_.empty()) return nullptr;
  packet* p = fifo_.front();
  fifo_.pop_front();
  if (p->is_header_class()) {
    header_bytes_ -= p->size_bytes;
  } else {
    data_bytes_ -= p->size_bytes;
  }
  bytes_ -= p->size_bytes;
  return p;
}

}  // namespace ndpsim
