#include "harness/flow_factory.h"

#include <algorithm>

#include "dcqcn/dcqcn_source.h"
#include "dctcp/dctcp_source.h"
#include "mptcp/mptcp_source.h"
#include "tcp/tcp_sink.h"
#include "tcp/tcp_source.h"
#include "topo/path_table.h"

namespace ndpsim {

pull_pacer& flow_factory::ndp_pacer(std::uint32_t host) {
  auto it = pull_pacers_.find(host);
  if (it == pull_pacers_.end()) {
    it = pull_pacers_
             .emplace(host, std::make_unique<pull_pacer>(
                                env_, topo_.host_link_speed(host)))
             .first;
  }
  return *it->second;
}

phost_token_pacer& flow_factory::phost_pacer(std::uint32_t host) {
  auto it = token_pacers_.find(host);
  if (it == token_pacers_.end()) {
    it = token_pacers_
             .emplace(host, std::make_unique<phost_token_pacer>(
                                env_, topo_.host_link_speed(host)))
             .first;
  }
  return *it->second;
}

flow& flow_factory::create(protocol proto, std::uint32_t src,
                           std::uint32_t dst, const flow_options& opts) {
  NDPSIM_ASSERT(src != dst);
  // MPTCP subflows use a block of ids.  Ids are never reused, so a packet
  // that outlives its flow can only reach an unbound id.
  const std::uint32_t span =
      proto == protocol::mptcp ? opts.subflows + 1 : 1;
  NDPSIM_ASSERT_MSG(span <= UINT32_MAX - next_flow_id_,
                    "flow id space exhausted");
  const std::uint32_t fid = next_flow_id_;
  next_flow_id_ += span;
  const unsigned subflows =
      static_cast<unsigned>(std::max<std::uint32_t>(1, opts.subflows));

  // A capped subset is written into `storage`, which the flow keeps.
  std::vector<const route*> storage;
  path_set ps;
  const std::size_t path_cap = effective_max_paths(opts);
  switch (proto) {
    case protocol::ndp:
    case protocol::phost:
      ps = topo_.paths().sample(env_, src, dst, path_cap, storage);
      break;
    case protocol::tcp:
    case protocol::dctcp:
    case protocol::dcqcn:
      // Per-flow ECMP: one path, chosen by "hash" (uniform draw at creation).
      ps = topo_.paths().single(src, dst,
                                env_.rand_below(topo_.n_paths(src, dst)));
      break;
    case protocol::mptcp:
      // Distinct paths for the subflows (seeded sample without replacement);
      // extra subflows beyond the path count share routes round-robin.
      ps = topo_.paths().sample(
          env_, src, dst,
          std::min<std::size_t>(subflows, topo_.n_paths(src, dst)), storage);
      break;
  }

  auto f = std::make_unique<flow>();
  // Connects a source to its sink; the flow owns both.
  const auto wire = [&](auto source, auto sink) {
    source->connect(*sink, ps, src, dst, opts.bytes, opts.start);
    f->source_ = std::move(source);
    f->sink_ = std::move(sink);
  };
  tcp_config tc;  // TCP, DCTCP and MPTCP (subflows)
  tc.mss_bytes = opts.mss_bytes;
  tc.min_rto = opts.min_rto;
  tc.handshake = opts.handshake;
  tc.max_cwnd_mss = opts.max_cwnd_mss;
  switch (proto) {
    case protocol::ndp: {
      ndp_source_config sc;
      sc.mss_bytes = opts.mss_bytes;
      sc.iw_packets = opts.iw_packets;
      sc.rto = opts.ndp_rto;
      sc.mode = opts.mode;
      sc.penalty.enabled = opts.path_penalty;
      auto source = std::make_unique<ndp_source>(env_, sc, fid);
      const ndp_sink_config kc{opts.mss_bytes, opts.pull_class};
      auto sink = std::make_unique<ndp_sink>(env_, ndp_pacer(dst), kc, fid);
      wire(std::move(source), std::move(sink));
      break;
    }
    case protocol::tcp:
    case protocol::dctcp: {
      std::unique_ptr<tcp_source> source;
      if (proto == protocol::dctcp) {
        source = std::make_unique<dctcp_source>(env_, tc, fid);
      } else {
        source = std::make_unique<tcp_source>(env_, tc, fid);
      }
      wire(std::move(source), std::make_unique<tcp_sink>(env_, fid));
      break;
    }
    case protocol::mptcp: {
      auto source = std::make_unique<mptcp_source>(env_, tc, fid);
      source->connect(ps, subflows, src, dst, opts.bytes, opts.start);
      f->source_ = std::move(source);
      break;
    }
    case protocol::dcqcn: {
      auto source = std::make_unique<dcqcn_source>(
          env_, dcqcn_config{opts.mss_bytes, topo_.host_link_speed(src)}, fid);
      wire(std::move(source), std::make_unique<dcqcn_sink>(env_, fid));
      break;
    }
    case protocol::phost: {
      const phost_config pc{opts.mss_bytes};
      auto source = std::make_unique<phost_source>(env_, pc, fid);
      auto sink = std::make_unique<phost_sink>(env_, phost_pacer(dst), pc, fid);
      wire(std::move(source), std::move(sink));
      break;
    }
  }
  // NDP and pHost sinks see the last packet arrive; the other transports'
  // sources see the last byte acked.
  f->completes_ = proto == protocol::ndp || proto == protocol::phost
                      ? f->sink_.get()
                      : f->source_.get();
  f->id = fid;
  f->src = src;
  f->dst = dst;
  f->bytes = opts.bytes;
  f->start_time = opts.start;
  f->path_storage_.swap(storage);  // swap keeps the view's pointers valid

  ++live_;
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    f->slot_ = slot;
    flows_[slot] = std::move(f);
    return *flows_[slot];
  }
  f->slot_ = static_cast<std::uint32_t>(flows_.size());
  flows_.push_back(std::move(f));
  return *flows_.back();
}

void flow_factory::destroy(flow& f) {
  NDPSIM_ASSERT_MSG(f.slot_ < flows_.size() && flows_[f.slot_].get() == &f,
                    "destroying a flow this factory does not own");
  f.retire();  // timers cancelled, demux entries unbound
  const std::uint32_t slot = f.slot_;
  flows_[slot].reset();  // f, its transports and its path subset die here
  free_slots_.push_back(slot);
  --live_;
  ++destroyed_;
}

std::uint64_t flow_factory::total_payload_received() const {
  std::uint64_t total = 0;
  for (const auto& f : flows_) {
    if (f != nullptr) total += f->payload_received();
  }
  return total;
}

std::size_t flow_factory::completed_count() const {
  std::size_t n = 0;
  for (const auto& f : flows_) {
    if (f != nullptr) n += f->complete() ? 1 : 0;
  }
  return n;
}

}  // namespace ndpsim
