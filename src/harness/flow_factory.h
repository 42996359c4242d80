// One flow handle for all six transports, plus the factory that builds it.
//
// A `flow` owns its transport's two endpoints (see net/endpoint.h) and
// reads completion from the side that knows the transfer is done: the sink
// for NDP and pHost (the last packet arrived), the source for TCP, DCTCP,
// MPTCP and DCQCN (the last byte was acked).  `flow_factory` picks the
// flow's paths, builds and connects the endpoints (with the per-host NDP
// pull pacers and pHost token pacers it creates on demand) and owns every
// flow until `destroy`.
#pragma once

#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "harness/queue_factory.h"
#include "ndp/ndp_sink.h"
#include "ndp/ndp_source.h"
#include "ndp/pull_pacer.h"
#include "phost/phost.h"
#include "topo/fabric_instance.h"

namespace ndpsim {

struct flow_options {
  std::uint64_t bytes = 0;  ///< 0 = unbounded
  simtime_t start = 0;
  std::uint32_t mss_bytes = 9000;
  // NDP
  std::uint32_t iw_packets = 30;
  std::uint8_t pull_class = 0;
  path_mode mode = path_mode::permutation;
  bool path_penalty = true;
  simtime_t ndp_rto = from_ms(1.0);
  // TCP family
  simtime_t min_rto = from_ms(200.0);
  bool handshake = true;
  std::uint32_t max_cwnd_mss = 1000;
  unsigned subflows = 8;  ///< MPTCP
  // Path selection
  /// Cap on multipath set size (0 = automatic).  When capped, the subset is
  /// a seeded random sample (not the first n indices, which would bias every
  /// flow onto the low core/agg switches), so two flows on the same pair can
  /// spread over different subsets.
  ///
  /// Automatic (0) means all paths on small fabrics, but on large fabrics
  /// (>= flow_factory::kAutoCapHosts hosts, i.e. fat trees of k >= 32) it
  /// defaults to kAutoCapPaths = 16: at that scale a pair has 256+ core
  /// paths, and spraying over a seeded 16-subset is statistically
  /// indistinguishable for load balance while keeping per-flow path-set
  /// working memory (and structural interning) bounded.  Pass SIZE_MAX (or
  /// any cap >= the pair's path count) to force the full set.
  std::size_t max_paths = 0;
};

/// Handle for one transfer, whatever the transport underneath.
class flow {
 public:
  /// Payload delivered to the receiving side so far.
  [[nodiscard]] std::uint64_t payload_received() const {
    // An MPTCP connection owns its subflows' sinks and sums them.
    return (sink_ != nullptr ? *sink_ : *source_).payload_received();
  }
  /// The flow's counters: its source's plus its sink's (an MPTCP flow's
  /// subflows' plus their sinks').
  [[nodiscard]] transport_counters stats() const;
  [[nodiscard]] bool complete() const { return completes_->complete(); }
  [[nodiscard]] simtime_t completion_time() const {
    return completes_->completion_time();
  }
  void on_complete(std::function<void()> cb) {
    completes_->set_complete_callback(std::move(cb));
  }
  /// Uniform teardown hook: disconnect both endpoints (cancel pending
  /// timers, leave shared pacer rings, unbind the `flow_demux` entries at
  /// both hosts).  Idempotent; called by `flow_factory::destroy` before the
  /// flow object is freed, so teardown is explicit rather than
  /// destructor-order-dependent.
  void retire() {
    source_->disconnect();
    if (sink_ != nullptr) sink_->disconnect();
  }
  /// Per-packet delivery latency samples (NDP only).
  void set_latency_callback(std::function<void(simtime_t)> cb) {
    if (ndp_source* s = ndp_src(); s != nullptr) {
      s->set_latency_callback(std::move(cb));
    }
  }
  /// The NDP source (null when not NDP).
  [[nodiscard]] ndp_source* ndp_src() {
    return dynamic_cast<ndp_source*>(source_.get());
  }

  /// Names this transfer alone: the factory never hands an id out twice.
  std::uint32_t id = 0;
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  std::uint64_t bytes = 0;
  simtime_t start_time = 0;

  /// Completion time relative to the flow's start, in microseconds.
  [[nodiscard]] double fct_us() const {
    return complete() ? to_us(completion_time() - start_time) : -1.0;
  }

 private:
  friend class flow_factory;
  std::uint32_t slot_ = UINT32_MAX;  ///< index in the factory's flow table
  /// The arrays of a capped path subset (`path_table::sample` storage) the
  /// endpoints borrow.  Declared before them, so it outlives them.
  std::vector<const route*> path_storage_;
  std::unique_ptr<endpoint> source_;
  /// Null for MPTCP: its connection (the source) owns the subflows' sinks.
  std::unique_ptr<endpoint> sink_;
  endpoint* completes_ = nullptr;  ///< the side that records completion
};

class flow_factory {
 public:
  /// Fabric size at which `flow_options::max_paths == 0` stops meaning "all
  /// paths" and defaults to kAutoCapPaths (k=32 fat tree has 8192 hosts).
  static constexpr std::size_t kAutoCapHosts = 4096;
  static constexpr std::size_t kAutoCapPaths = 16;

  flow_factory(sim_env& env, fabric_instance& topo) : env_(env), topo_(topo) {}

  /// The multipath cap `create` will apply for the given options: the
  /// explicit cap if set, else the automatic large-fabric default.
  [[nodiscard]] std::size_t effective_max_paths(const flow_options& opts) const {
    if (opts.max_paths != 0) return opts.max_paths;
    return topo_.n_hosts() >= kAutoCapHosts ? kAutoCapPaths : 0;
  }

  /// Create (and own) a flow of `proto` from `src` to `dst`.
  flow& create(protocol proto, std::uint32_t src, std::uint32_t dst,
               const flow_options& opts);

  /// Create/destroy symmetry (flow recycling): retire the flow's transports
  /// (cancel timers, leave pacer rings, unbind demux entries) and free its
  /// table slot.  The id is not reused, so a packet still in flight for it
  /// can only reach an unbound demux entry.  The reference — and every
  /// pointer to the flow — is dead after this call.  Must not be called from
  /// inside one of the flow's own callbacks (defer to a scheduled event;
  /// `flow_recycler` does).
  void destroy(flow& f);

  /// The shared per-host pull pacer (created on demand).
  [[nodiscard]] pull_pacer& ndp_pacer(std::uint32_t host);
  [[nodiscard]] phost_token_pacer& phost_pacer(std::uint32_t host);

  /// Flow table: destroyed flows leave null holes that a future `create`
  /// refills, so indexes are stable but entries can be null — skip them when
  /// iterating.
  [[nodiscard]] const std::vector<std::unique_ptr<flow>>& flows() const {
    return flows_;
  }
  [[nodiscard]] std::size_t completed_count() const;
  /// Currently live (created, not destroyed) flows.
  [[nodiscard]] std::size_t live_count() const { return live_; }
  /// Flows destroyed over the factory's lifetime.
  [[nodiscard]] std::uint64_t destroyed_count() const { return destroyed_; }

 private:
  sim_env& env_;
  fabric_instance& topo_;
  std::vector<std::unique_ptr<flow>> flows_;
  std::vector<std::uint32_t> free_slots_;
  std::unordered_map<std::uint32_t, std::unique_ptr<pull_pacer>> pull_pacers_;
  std::unordered_map<std::uint32_t, std::unique_ptr<phost_token_pacer>>
      token_pacers_;
  std::uint32_t next_flow_id_ = 1;  ///< only grows: ids are never reused
  std::size_t live_ = 0;
  std::uint64_t destroyed_ = 0;
};

}  // namespace ndpsim
