#include "tcp/tcp_source.h"

#include <algorithm>

#include "tcp/tcp_sink.h"

namespace ndpsim {

namespace {
/// RTT estimate before the first sample: a datacenter round trip.
constexpr simtime_t kInitialRtt = from_us(100);
}  // namespace

tcp_source::tcp_source(sim_env& env, tcp_config cfg, std::uint32_t flow_id)
    : event_source(env.events, dispatch_class::transport_timer),
      endpoint(env, flow_id),
      cfg_(cfg) {
  NDPSIM_ASSERT(cfg_.mss_bytes > kHeaderBytes);
  cwnd_ = static_cast<std::uint64_t>(cfg_.iw_mss) * payload_per_packet();
  ssthresh_ = static_cast<std::uint64_t>(cfg_.max_cwnd_mss) *
              payload_per_packet();
  srtt_ = kInitialRtt;
  rttvar_ = kInitialRtt / 2;
  rto_ = std::max(cfg_.min_rto, srtt_ + 4 * rttvar_);
}

tcp_source::~tcp_source() { disconnect(); }

void tcp_source::disconnect() {
  events().cancel(rto_timer_);  // pending start event or RTO, whichever
  endpoint::disconnect();
}

void tcp_source::connect(tcp_sink& sink, path_set paths,
                         std::uint32_t src_host, std::uint32_t dst_host,
                         std::uint64_t flow_bytes, simtime_t start) {
  connect_to(sink, paths, src_host, dst_host, this, &sink);
  flow_bytes_ = flow_bytes;
  remaining_ = flow_bytes == 0 ? UINT64_MAX : flow_bytes;
  // The start event shares the RTO handle so disconnect() can cancel a flow
  // that never started; the first arm_rto after start re-arms it.
  rto_timer_ = events().schedule_at(*this, start);
}

void tcp_source::do_next_event() {
  if (!started_) {
    started_ = true;
    start_flow();
    return;
  }
  // Genuine RTO expiry: the timer is moved on every ACK and cancelled when
  // nothing is outstanding, so a firing always means a timeout.
  NDPSIM_ASSERT(syn_outstanding_ || snd_una_ < snd_nxt_);
  ++stats_.timeouts;
  enter_slow_start_after_timeout();
  if (syn_outstanding_) {
    send_syn();
  } else {
    ++stats_.rtx_timeout;
    retransmit_head();
    // Treat everything in flight as suspect: recover holes NewReno-style
    // as cumulative ACKs come back.
    in_recovery_ = true;
    recover_ = snd_nxt_;
  }
  rto_ = std::min<simtime_t>(2 * rto_, from_sec(1.0));
  arm_rto();
}

void tcp_source::start_flow() {
  if (cfg_.handshake) {
    send_syn();
    arm_rto();
  } else {
    established_ = true;
    try_send();
  }
}

void tcp_source::send_syn() {
  packet& p = make_packet(packet_type::tcp_data, kHeaderBytes,
                          paths_.forward(0));
  p.set_flag(pkt_flag::syn);
  syn_outstanding_ = true;
  ++stats_.packets_sent;
  send_to_next_hop(p);
}

void tcp_source::enter_slow_start_after_timeout() {
  ssthresh_ = std::max<std::uint64_t>(inflight() / 2,
                                      2 * payload_per_packet());
  cwnd_ = payload_per_packet();
  in_recovery_ = false;
  dup_acks_ = 0;
}

std::uint32_t tcp_source::claim_payload(std::uint32_t max) {
  const std::uint32_t n =
      static_cast<std::uint32_t>(std::min<std::uint64_t>(max, remaining_));
  remaining_ -= n;
  return n;
}

void tcp_source::try_send() {
  if (!established_) return;
  const std::uint64_t cap =
      std::min<std::uint64_t>(cwnd_, static_cast<std::uint64_t>(
                                         cfg_.max_cwnd_mss) *
                                         payload_per_packet());
  while (inflight() + payload_per_packet() <= cap ||
         (inflight() == 0 && cap > 0)) {
    const std::uint32_t want = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(payload_per_packet(), cap - std::min(cap, inflight())));
    if (want == 0) break;
    const std::uint32_t len = claim_payload(want);
    if (len == 0) break;  // no more data to send
    send_segment(snd_nxt_, len, /*is_rtx=*/false);
    snd_nxt_ += len;
  }
  arm_rto();
}

void tcp_source::send_segment(std::uint64_t start, std::uint32_t len,
                              bool is_rtx) {
  packet& p = make_packet(packet_type::tcp_data, len + kHeaderBytes,
                          paths_.forward(0));
  p.seqno = start;
  p.payload_bytes = len;
  if (cfg_.ecn) p.set_flag(pkt_flag::ect);
  if (is_rtx) p.set_flag(pkt_flag::rtx);

  auto [it, inserted] = segments_.try_emplace(start);
  it->second.len = len;
  it->second.sent = env_.now();
  it->second.retransmitted = it->second.retransmitted || is_rtx || !inserted;

  ++stats_.packets_sent;
  send_to_next_hop(p);
}

void tcp_source::retransmit_head() {
  auto it = segments_.find(snd_una_);
  if (it == segments_.end()) {
    // Head segment record missing (e.g. SYN loss path); resend a full MSS
    // worth from snd_una_ if anything is outstanding.
    if (snd_una_ < snd_nxt_) {
      const std::uint32_t len = static_cast<std::uint32_t>(std::min<std::uint64_t>(
          payload_per_packet(), snd_nxt_ - snd_una_));
      send_segment(snd_una_, len, true);
    }
    return;
  }
  send_segment(it->first, it->second.len, true);
}

void tcp_source::receive(packet& p) {
  NDPSIM_ASSERT(p.type == packet_type::tcp_ack);
  NDPSIM_ASSERT(p.flow_id == flow_id_);
  handle_ack(p);
  env_.pool.release(&p);
}

void tcp_source::handle_ack(const packet& p) {
  if (p.has_flag(pkt_flag::syn)) {
    // SYN-ACK: connection established. try_send -> arm_rto re-arms (or
    // cancels) the timer as appropriate.
    if (!established_) {
      established_ = true;
      syn_outstanding_ = false;
      try_send();
    }
    return;
  }
  const std::uint64_t ack = p.ackno;
  const bool echo = p.has_flag(pkt_flag::ce);

  if (ack > snd_una_) {
    const std::uint64_t newly = ack - snd_una_;
    // RTT sample from the newest fully-acked, never-retransmitted segment.
    simtime_t sample = -1;
    auto it = segments_.begin();
    while (it != segments_.end() && it->first + it->second.len <= ack) {
      if (!it->second.retransmitted) sample = env_.now() - it->second.sent;
      it = segments_.erase(it);
    }
    if (sample >= 0) update_rtt(sample);

    snd_una_ = ack;
    dup_acks_ = 0;
    if (echo) ++stats_.ecn_echoes;
    if (cfg_.ecn) ecn_feedback(newly, echo);
    on_bytes_acked(newly);

    if (in_recovery_) {
      if (ack >= recover_) {
        in_recovery_ = false;
        cwnd_ = ssthresh_;
      } else {
        // NewReno partial ACK: retransmit the next hole, deflate.
        retransmit_head();
        ++stats_.rtx_fast;
        cwnd_ = cwnd_ > newly ? cwnd_ - newly : payload_per_packet();
        cwnd_ += payload_per_packet();
      }
    } else {
      increase_window(newly);
    }
    try_send();
    check_complete();
  } else if (ack == snd_una_ && snd_una_ < snd_nxt_) {
    if (echo) ++stats_.ecn_echoes;
    if (cfg_.ecn) ecn_feedback(0, echo);
    ++dup_acks_;
    if (!in_recovery_ && dup_acks_ == 3) {
      ssthresh_ = std::max<std::uint64_t>(inflight() / 2,
                                          2 * payload_per_packet());
      in_recovery_ = true;
      recover_ = snd_nxt_;
      retransmit_head();
      ++stats_.rtx_fast;
      cwnd_ = ssthresh_ + 3 * payload_per_packet();
    } else if (in_recovery_) {
      cwnd_ += payload_per_packet();  // window inflation
      try_send();
    }
  }
  arm_rto();
}

void tcp_source::increase_window(std::uint64_t newly_acked) {
  const std::uint32_t mss = payload_per_packet();
  if (cwnd_ < ssthresh_) {
    cwnd_ += std::min<std::uint64_t>(newly_acked, mss);  // slow start
  } else {
    cwnd_ += std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(mss) * mss / std::max<std::uint64_t>(cwnd_, 1));
  }
  cwnd_ = std::min<std::uint64_t>(
      cwnd_, static_cast<std::uint64_t>(cfg_.max_cwnd_mss) * mss);
}

void tcp_source::ecn_feedback(std::uint64_t /*newly_acked*/, bool echo) {
  // Classic ECN: at most one multiplicative cut per RTT.
  if (!echo) return;
  if (last_ecn_cut_ >= 0 && env_.now() - last_ecn_cut_ < srtt_) return;
  last_ecn_cut_ = env_.now();
  ssthresh_ = std::max<std::uint64_t>(cwnd_ / 2, 2 * payload_per_packet());
  cwnd_ = ssthresh_;
}

void tcp_source::on_bytes_acked(std::uint64_t /*newly_acked*/) {}

void tcp_source::update_rtt(simtime_t sample) {
  if (srtt_ == kInitialRtt && rttvar_ == kInitialRtt / 2) {
    srtt_ = sample;
    rttvar_ = sample / 2;
  } else {
    const simtime_t err = sample > srtt_ ? sample - srtt_ : srtt_ - sample;
    rttvar_ = (3 * rttvar_ + err) / 4;
    srtt_ = (7 * srtt_ + sample) / 8;
  }
  rto_ = std::max(cfg_.min_rto, srtt_ + 4 * rttvar_);
}

void tcp_source::arm_rto() {
  if (!syn_outstanding_ && snd_una_ >= snd_nxt_) {
    events().cancel(rto_timer_);  // nothing outstanding
    return;
  }
  events().reschedule(rto_timer_, *this, env_.now() + rto_);
}

void tcp_source::check_complete() {
  if (!complete() && flow_bytes_ > 0 && snd_una_ >= flow_bytes_) {
    events().cancel(rto_timer_);
    mark_complete();
  }
}

}  // namespace ndpsim
