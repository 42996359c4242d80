#include "dcqcn/dcqcn_source.h"

namespace ndpsim {

void dcqcn_sink::receive(packet& p) {
  NDPSIM_ASSERT(p.type == packet_type::dcqcn_data);
  NDPSIM_ASSERT(p.flow_id == flow_id_);

  const bool marked = p.has_flag(pkt_flag::ce);
  if (received_.add(p.seqno)) payload_ += p.payload_bytes;

  // NP: CNPs are rate-limited per flow; ACK every packet (cumulative).
  constexpr simtime_t kCnpInterval = from_us(50);
  if (marked && env_.now() - last_cnp_ >= kCnpInterval) {
    last_cnp_ = env_.now();
    ++cnps_;
    send_control(packet_type::dcqcn_cnp, received_.cumulative());
  }
  send_control(packet_type::dcqcn_ack, received_.cumulative());
  env_.pool.release(&p);
}

void dcqcn_sink::send_control(packet_type type, std::uint64_t ackno) {
  packet& c = make_packet(type, kHeaderBytes, paths_.reverse(0));
  c.ackno = ackno;
  send_to_next_hop(c);
}

}  // namespace ndpsim
