// The shape every transport endpoint shares.
//
// An `endpoint` is one side of one flow: NDP, TCP/DCTCP, MPTCP-subflow,
// DCQCN and pHost sources and sinks, the MPTCP connection and the CBR sender
// all derive from it.  It holds what each of them needs and nothing more:
//  * the `sim_env`, the flow id, the host it sits on and the peer's host;
//  * the borrowed `path_set` its packets ride (a source's forward routes, a
//    sink's reverse routes);
//  * the demux binding: a source's `connect_to` binds both ends of the flow
//    and hands the sink the same paths, and `disconnect` unbinds them;
//  * the completion record: the time the transfer finished and a callback
//    that fires once, set by whichever side learns it first (`flow` reads it
//    from that side).
// `make_packet` is the packet builder, the one place a transport packet is
// taken from the pool and addressed.  `seq_tracker` is the one record of
// which packet sequence numbers have arrived.
#pragma once

#include <cstdint>
#include <functional>
#include <set>

#include "net/packet.h"
#include "net/path_set.h"
#include "net/sim_env.h"

namespace ndpsim {

class endpoint {
 public:
  endpoint(const endpoint&) = delete;
  endpoint& operator=(const endpoint&) = delete;
  virtual ~endpoint() = default;

  /// Teardown hook (flow recycling): unbind the flow at both demuxes and
  /// drop the borrowed path view.  Endpoints with timers or pacer rings
  /// override it to cancel and leave them too.  Idempotent.
  virtual void disconnect() {
    paths_.unbind(flow_id_);
    paths_ = path_set{};
  }

  /// Application bytes this endpoint has received (0 on the sending side).
  [[nodiscard]] virtual std::uint64_t payload_received() const { return 0; }

  /// Take the borrowed paths (this side sends on `paths`' forward routes if
  /// it is the source, on its reverse routes if it is the sink) and the two
  /// hosts.  A source's connect does this for both sides; tests bind a lone
  /// sink directly.
  void bind(path_set paths, std::uint32_t local_host,
            std::uint32_t remote_host) {
    NDPSIM_ASSERT_MSG(!paths.empty(), "need at least one path");
    paths_ = paths;
    local_host_ = local_host;
    remote_host_ = remote_host;
  }

  [[nodiscard]] std::uint32_t flow_id() const { return flow_id_; }
  [[nodiscard]] bool complete() const { return completion_time_ >= 0; }
  [[nodiscard]] simtime_t completion_time() const { return completion_time_; }
  /// Fires once, when this side completes the transfer.
  void set_complete_callback(std::function<void()> cb) {
    on_complete_ = std::move(cb);
  }

 protected:
  endpoint(sim_env& env, std::uint32_t flow_id)
      : env_(env), flow_id_(flow_id) {}

  /// Source side of a connect: bind this source and `sink` to `paths`, then
  /// register `rx` (the sink, or an acceptor in front of it) at the
  /// destination demux and `tx` (this source) at the source demux.
  void connect_to(endpoint& sink, path_set paths, std::uint32_t src_host,
                  std::uint32_t dst_host, packet_sink* tx, packet_sink* rx) {
    bind(paths, src_host, dst_host);
    sink.bind(paths, dst_host, src_host);
    paths.bind_dst(flow_id_, rx);
    paths.bind_src(flow_id_, tx);
  }

  /// The packet builder: a pooled packet of this flow from the local to the
  /// remote host, `size_bytes` on the wire, at the first hop of `rt`.
  [[nodiscard]] packet& make_packet(packet_type type, std::uint32_t size_bytes,
                                    const route* rt) const {
    packet& p = *env_.pool.alloc();
    p.type = type;
    p.flow_id = flow_id_;
    p.src = local_host_;
    p.dst = remote_host_;
    p.size_bytes = size_bytes;
    p.rt = rt;
    p.next_hop = 0;
    return p;
  }

  /// Record completion now and fire the callback.  Call once.
  void mark_complete() {
    NDPSIM_ASSERT(!complete());
    completion_time_ = env_.now();
    if (on_complete_) on_complete_();
  }

  sim_env& env_;
  const std::uint32_t flow_id_;
  std::uint32_t local_host_ = 0;
  std::uint32_t remote_host_ = 0;
  path_set paths_;  ///< borrowed; the path owner outlives the connection

 private:
  simtime_t completion_time_ = -1;
  std::function<void()> on_complete_;
};

/// Which packet sequence numbers (1, 2, ...) have arrived: a cumulative
/// frontier below which every number has arrived, plus the numbers seen
/// beyond it.
class seq_tracker {
 public:
  /// Record `seqno`; true if it had not arrived before.
  bool add(std::uint64_t seqno) {
    if (seqno <= cumulative_) return false;
    if (seqno != cumulative_ + 1) return beyond_.insert(seqno).second;
    ++cumulative_;
    auto it = beyond_.begin();
    while (it != beyond_.end() && *it == cumulative_ + 1) {
      ++cumulative_;
      it = beyond_.erase(it);
    }
    return true;
  }

  /// Every sequence number in 1..cumulative() has arrived.
  [[nodiscard]] std::uint64_t cumulative() const { return cumulative_; }
  /// Distinct sequence numbers arrived so far.
  [[nodiscard]] std::uint64_t arrived() const {
    return cumulative_ + beyond_.size();
  }

 private:
  std::uint64_t cumulative_ = 0;
  std::set<std::uint64_t> beyond_;  ///< arrived, above cumulative_ + 1
};

}  // namespace ndpsim
