#include "ndp/ndp_sink.h"

namespace ndpsim {

ndp_sink::ndp_sink(sim_env& env, pull_pacer& pacer, ndp_sink_config cfg,
                   std::uint32_t flow_id)
    : env_(env), pacer_(pacer), cfg_(cfg), flow_id_(flow_id) {
  NDPSIM_ASSERT(cfg_.mss_bytes > kHeaderBytes);
  NDPSIM_ASSERT(cfg_.pull_class < kPullClasses);
}

void ndp_sink::bind(path_set paths, std::uint32_t local_host,
                    std::uint32_t remote_host) {
  NDPSIM_ASSERT_MSG(!paths.empty(), "sink needs at least one ctrl route");
  paths_ = paths;
  local_host_ = local_host;
  remote_host_ = remote_host;
}

void ndp_sink::disconnect() {
  pacer_.remove(*this);
  paths_ = path_set{};
}

void ndp_sink::receive(packet& p) {
  NDPSIM_ASSERT_MSG(p.type == packet_type::ndp_data,
                    "ndp_sink received non-data packet");
  NDPSIM_ASSERT(p.flow_id == flow_id_);

  if (p.has_flag(pkt_flag::trimmed)) {
    send_control(packet_type::ndp_nack, p.seqno, p.path_id);
    ++stats_.nacks_sent;
    note_arrival_for_pull();
    env_.pool.release(&p);
    return;
  }

  const bool is_new =
      p.seqno > cum_received_ && ooo_.find(p.seqno) == ooo_.end();
  if (is_new) {
    stats_.payload_bytes += p.payload_bytes;
    if (p.seqno == cum_received_ + 1) {
      ++cum_received_;
      advance_cumulative();
    } else {
      ooo_.insert(p.seqno);
    }
    if (p.has_flag(pkt_flag::last)) total_packets_ = p.seqno;
  } else {
    ++stats_.duplicate_packets;
  }

  // Always ACK, even duplicates: the sender needs to free its copy.
  send_control(packet_type::ndp_ack, p.seqno, p.path_id);

  if (complete()) {
    if (completion_time_ < 0) {
      completion_time_ = env_.now();
      pacer_.purge(*this);
      if (on_complete_) on_complete_();
    }
  } else {
    note_arrival_for_pull();
  }
  env_.pool.release(&p);
}

void ndp_sink::advance_cumulative() {
  auto it = ooo_.begin();
  while (it != ooo_.end() && *it == cum_received_ + 1) {
    ++cum_received_;
    it = ooo_.erase(it);
  }
}

void ndp_sink::note_arrival_for_pull() {
  // One pull owed per arriving packet or header (paper §3.2). The pacer will
  // call issue_pull() when this connection's turn comes.
  pacer_.enqueue(*this);
}

void ndp_sink::send_control(packet_type type, std::uint64_t seqno,
                            std::uint16_t echo_path) {
  packet* p = env_.pool.alloc();
  p->type = type;
  p->priority = 1;
  p->flow_id = flow_id_;
  p->src = local_host_;
  p->dst = remote_host_;
  p->size_bytes = kHeaderBytes;
  p->seqno = seqno;
  p->path_id = echo_path;
  // Control packets are sprayed across paths too (reverse direction).
  p->rt = paths_.reverse(env_.rand_below(paths_.size()));
  p->next_hop = 0;
  send_to_next_hop(*p);
}

void ndp_sink::issue_pull() {
  ++pull_counter_;
  packet* p = env_.pool.alloc();
  p->type = packet_type::ndp_pull;
  p->priority = 1;
  p->flow_id = flow_id_;
  p->src = local_host_;
  p->dst = remote_host_;
  p->size_bytes = kHeaderBytes;
  p->pullno = pull_counter_;
  p->rt = paths_.reverse(env_.rand_below(paths_.size()));
  p->next_hop = 0;
  send_to_next_hop(*p);
}

}  // namespace ndpsim
