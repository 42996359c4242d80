#include "tcp/tcp_sink.h"

namespace ndpsim {

void tcp_sink::receive(packet& p) {
  NDPSIM_ASSERT(p.type == packet_type::tcp_data);
  NDPSIM_ASSERT(p.flow_id == flow_id_);
  const bool syn = p.has_flag(pkt_flag::syn);
  const bool echo = p.has_flag(pkt_flag::ce);

  if (p.payload_bytes > 0) {
    const std::uint64_t start = p.seqno;
    const std::uint64_t end = start + p.payload_bytes;
    if (end > cum_) {
      // Insert [max(start,cum), end) into the out-of-order set; count only
      // newly covered bytes as payload.
      std::uint64_t s = std::max(start, cum_);
      auto it = ooo_.lower_bound(s);
      if (it != ooo_.begin()) {
        auto prev = std::prev(it);
        if (prev->second >= s) it = prev;
      }
      std::uint64_t new_bytes = end > s ? end - s : 0;
      std::uint64_t merged_s = s;
      std::uint64_t merged_e = end;
      while (it != ooo_.end() && it->first <= merged_e) {
        // Overlap: subtract the already-received intersection.
        const std::uint64_t ov_s = std::max(merged_s, it->first);
        const std::uint64_t ov_e = std::min(merged_e, it->second);
        if (ov_e > ov_s) new_bytes -= ov_e - ov_s;
        merged_s = std::min(merged_s, it->first);
        merged_e = std::max(merged_e, it->second);
        it = ooo_.erase(it);
      }
      ooo_[merged_s] = merged_e;
      counters_.payload_bytes += new_bytes;
      // Advance the cumulative point.
      auto first = ooo_.begin();
      if (first != ooo_.end() && first->first <= cum_) {
        cum_ = std::max(cum_, first->second);
        ooo_.erase(first);
      }
    }
  }

  send_ack(syn, echo);
  env_.pool.release(&p);
}

void tcp_sink::send_ack(bool syn_ack, bool ecn_echo) {
  packet& a = make_packet(packet_type::tcp_ack, kHeaderBytes,
                          paths_.reverse(0));
  a.ackno = cum_;
  if (syn_ack) a.set_flag(pkt_flag::syn);
  if (ecn_echo) a.set_flag(pkt_flag::ce);
  send_to_next_hop(a);
}

}  // namespace ndpsim
