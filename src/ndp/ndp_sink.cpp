#include "ndp/ndp_sink.h"

namespace ndpsim {

ndp_sink::ndp_sink(sim_env& env, pull_pacer& pacer, ndp_sink_config cfg,
                   std::uint32_t flow_id)
    : endpoint(env, flow_id), pacer_(pacer), cfg_(cfg) {
  NDPSIM_ASSERT(cfg_.mss_bytes > kHeaderBytes);
  NDPSIM_ASSERT(cfg_.pull_class < kPullClasses);
}

void ndp_sink::disconnect() {
  pacer_.remove(*this);
  endpoint::disconnect();
}

void ndp_sink::receive(packet& p) {
  NDPSIM_ASSERT_MSG(p.type == packet_type::ndp_data,
                    "ndp_sink received non-data packet");
  NDPSIM_ASSERT(p.flow_id == flow_id_);

  if (p.has_flag(pkt_flag::trimmed)) {
    send_control(packet_type::ndp_nack, p.seqno, p.path_id);
    ++counters_.nacks_sent;
    note_arrival_for_pull();
    env_.pool.release(&p);
    return;
  }

  if (received_.add(p.seqno)) {
    counters_.payload_bytes += p.payload_bytes;
    if (p.has_flag(pkt_flag::last)) total_packets_ = p.seqno;
  } else {
    ++counters_.duplicate_packets;
  }

  // Always ACK, even duplicates: the sender needs to free its copy.
  send_control(packet_type::ndp_ack, p.seqno, p.path_id);

  if (total_packets_ != 0 && received_.cumulative() == total_packets_) {
    if (!complete()) {
      pacer_.purge(*this);
      mark_complete();
    }
  } else {
    note_arrival_for_pull();
  }
  env_.pool.release(&p);
}

void ndp_sink::note_arrival_for_pull() {
  // One pull owed per arriving packet or header (paper §3.2). The pacer will
  // call issue_pull() when this connection's turn comes.
  pacer_.enqueue(*this);
}

void ndp_sink::send_control(packet_type type, std::uint64_t seqno,
                            std::uint16_t echo_path) {
  // Control packets are sprayed across paths too (reverse direction).
  packet& p = make_packet(type, kHeaderBytes,
                          paths_.reverse(env_.rand_below(paths_.size())));
  p.seqno = seqno;
  p.path_id = echo_path;
  send_to_next_hop(p);
}

void ndp_sink::issue_pull() {
  ++pull_counter_;
  packet& p = make_packet(packet_type::ndp_pull, kHeaderBytes,
                          paths_.reverse(env_.rand_below(paths_.size())));
  p.pullno = pull_counter_;
  send_to_next_hop(p);
}

}  // namespace ndpsim
