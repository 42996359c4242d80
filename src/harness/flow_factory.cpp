#include "harness/flow_factory.h"

#include <algorithm>

#include "dcqcn/dcqcn_sink.h"
#include "dctcp/dctcp_source.h"
#include "mptcp/mptcp_source.h"
#include "tcp/tcp_sink.h"
#include "tcp/tcp_source.h"
#include "topo/path_table.h"

namespace ndpsim {

namespace {

class ndp_flow final : public flow {
 public:
  ndp_flow(sim_env& env, pull_pacer& pacer, path_set ps, std::uint32_t fid,
           std::uint32_t s, std::uint32_t d, const flow_options& o) {
    ndp_source_config sc;
    sc.mss_bytes = o.mss_bytes;
    sc.iw_packets = o.iw_packets;
    sc.rto = o.ndp_rto;
    sc.mode = o.mode;
    sc.penalty.enabled = o.path_penalty;
    source_ = std::make_unique<ndp_source>(env, sc, fid);
    ndp_sink_config kc;
    kc.mss_bytes = o.mss_bytes;
    kc.pull_class = o.pull_class;
    sink_ = std::make_unique<ndp_sink>(env, pacer, kc, fid);
    source_->connect(*sink_, ps, s, d, o.bytes, o.start);
  }

  void retire() override {
    source_->disconnect();
    sink_->disconnect();
  }

  [[nodiscard]] std::uint64_t payload_received() const override {
    return sink_->payload_received();
  }
  [[nodiscard]] bool complete() const override { return sink_->complete(); }
  [[nodiscard]] simtime_t completion_time() const override {
    return sink_->completion_time();
  }
  void on_complete(std::function<void()> cb) override {
    sink_->set_complete_callback(std::move(cb));
  }
  void set_latency_callback(std::function<void(simtime_t)> cb) override {
    source_->set_latency_callback(std::move(cb));
  }
  [[nodiscard]] ndp_source* ndp_src() override { return source_.get(); }

 private:
  std::unique_ptr<ndp_source> source_;
  std::unique_ptr<ndp_sink> sink_;
};

class tcp_flow final : public flow {
 public:
  tcp_flow(sim_env& env, bool dctcp, path_set ps, std::uint32_t fid,
           std::uint32_t s, std::uint32_t d, const flow_options& o) {
    tcp_config tc;
    tc.mss_bytes = o.mss_bytes;
    tc.min_rto = o.min_rto;
    tc.handshake = o.handshake;
    tc.max_cwnd_mss = o.max_cwnd_mss;
    if (dctcp) {
      source_ = std::make_unique<dctcp_source>(env, tc, dctcp_config{}, fid);
    } else {
      source_ = std::make_unique<tcp_source>(env, tc, fid);
    }
    sink_ = std::make_unique<tcp_sink>(env, fid);
    source_->connect(*sink_, ps, s, d, o.bytes, o.start);
  }

  void retire() override { source_->disconnect(); }

  [[nodiscard]] std::uint64_t payload_received() const override {
    return sink_->payload_received();
  }
  [[nodiscard]] bool complete() const override { return source_->complete(); }
  [[nodiscard]] simtime_t completion_time() const override {
    return source_->completion_time();
  }
  void on_complete(std::function<void()> cb) override {
    source_->set_complete_callback(std::move(cb));
  }
  [[nodiscard]] tcp_source& source() { return *source_; }

 private:
  std::unique_ptr<tcp_source> source_;
  std::unique_ptr<tcp_sink> sink_;
};

class mptcp_flow final : public flow {
 public:
  mptcp_flow(sim_env& env, path_set ps, unsigned subflows, std::uint32_t fid,
             std::uint32_t s, std::uint32_t d, const flow_options& o) {
    tcp_config tc;
    tc.mss_bytes = o.mss_bytes;
    tc.min_rto = o.min_rto;
    tc.handshake = o.handshake;
    tc.max_cwnd_mss = o.max_cwnd_mss;
    source_ = std::make_unique<mptcp_source>(env, tc, fid);
    source_->connect(ps, subflows, s, d, o.bytes, o.start);
  }

  void retire() override { source_->disconnect(); }

  [[nodiscard]] std::uint64_t payload_received() const override {
    return source_->total_payload_received();
  }
  [[nodiscard]] bool complete() const override { return source_->complete(); }
  [[nodiscard]] simtime_t completion_time() const override {
    return source_->completion_time();
  }
  void on_complete(std::function<void()> cb) override {
    source_->set_complete_callback(std::move(cb));
  }

 private:
  std::unique_ptr<mptcp_source> source_;
};

class dcqcn_flow final : public flow {
 public:
  dcqcn_flow(sim_env& env, linkspeed_bps line_rate, path_set ps,
             std::uint32_t fid, std::uint32_t s, std::uint32_t d,
             const flow_options& o) {
    dcqcn_config dc;
    dc.mss_bytes = o.mss_bytes;
    dc.line_rate = line_rate;
    source_ = std::make_unique<dcqcn_source>(env, dc, fid);
    sink_ = std::make_unique<dcqcn_sink>(env, fid);
    source_->connect(*sink_, ps, s, d, o.bytes, o.start);
  }

  void retire() override { source_->disconnect(); }

  [[nodiscard]] std::uint64_t payload_received() const override {
    return sink_->payload_received();
  }
  [[nodiscard]] bool complete() const override { return source_->complete(); }
  [[nodiscard]] simtime_t completion_time() const override {
    return source_->completion_time();
  }
  void on_complete(std::function<void()> cb) override {
    source_->set_complete_callback(std::move(cb));
  }

 private:
  std::unique_ptr<dcqcn_source> source_;
  std::unique_ptr<dcqcn_sink> sink_;
};

class phost_flow final : public flow {
 public:
  phost_flow(sim_env& env, phost_token_pacer& pacer, path_set ps,
             std::uint32_t fid, std::uint32_t s, std::uint32_t d,
             const flow_options& o) {
    phost_config pc;
    pc.mss_bytes = o.mss_bytes;
    source_ = std::make_unique<phost_source>(env, pc, fid);
    sink_ = std::make_unique<phost_sink>(env, pacer, pc, fid);
    source_->connect(*sink_, ps, s, d, o.bytes, o.start);
  }

  void retire() override {
    source_->disconnect();
    sink_->disconnect();
  }

  [[nodiscard]] std::uint64_t payload_received() const override {
    return sink_->payload_received();
  }
  [[nodiscard]] bool complete() const override { return sink_->complete(); }
  [[nodiscard]] simtime_t completion_time() const override {
    return sink_->completion_time();
  }
  void on_complete(std::function<void()> cb) override {
    sink_->set_complete_callback(std::move(cb));
  }

 private:
  std::unique_ptr<phost_source> source_;
  std::unique_ptr<phost_sink> sink_;
};

}  // namespace

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

  std::unique_ptr<flow> f;
  switch (proto) {
    case protocol::ndp:
      f = std::make_unique<ndp_flow>(env_, ndp_pacer(dst), ps, fid, src, dst,
                                     opts);
      break;
    case protocol::tcp:
      f = std::make_unique<tcp_flow>(env_, false, ps, fid, src, dst, opts);
      break;
    case protocol::dctcp:
      f = std::make_unique<tcp_flow>(env_, true, ps, fid, src, dst, opts);
      break;
    case protocol::mptcp:
      f = std::make_unique<mptcp_flow>(env_, ps, subflows, fid, src, dst,
                                       opts);
      break;
    case protocol::dcqcn:
      f = std::make_unique<dcqcn_flow>(env_, topo_.host_link_speed(src), ps,
                                       fid, src, dst, opts);
      break;
    case protocol::phost:
      f = std::make_unique<phost_flow>(env_, phost_pacer(dst), ps, fid, src,
                                       dst, opts);
      break;
  }
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
