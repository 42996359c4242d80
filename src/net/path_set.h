// Shared-route plumbing between the fabric's path table and the transports.
//
// With interned routes, a route is a per-fabric object shared by every flow
// on that (src, dst, path) — so it cannot end at a per-flow endpoint.
// Instead every interned route terminates at the destination host's
// `flow_demux`, which dispatches arriving packets to the endpoint registered
// under the packet's flow id.  A `path_set` is the lightweight view a
// transport borrows at connect time: the multipath route arrays plus the two
// demuxes where it registers its endpoints.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "net/packet.h"
#include "net/route.h"
#include "sim/telemetry.h"

namespace ndpsim {

/// Per-host terminal sink: dispatches delivered packets to the transport
/// endpoint bound under the packet's flow id.  Flow ids are dense across the
/// whole fabric but sparse per host, so the registry is a small flat
/// open-addressed hash table (linear probing, backward-shift deletion):
/// O(flows-at-this-host) memory per host — not O(total-flows), which at
/// k=32 churn scale would cost more than the shared routes save — and one
/// multiply+probe per delivered packet.
///
/// Under flow churn the table both grows and shrinks: unbinding below 1/8
/// load rehashes into a table sized for the live flows, so a host that once
/// terminated a burst does not keep burst-sized probe arrays forever.
///
/// A delivered packet whose flow has no endpoint is a hard error by default
/// (a silently dropped packet usually means a wiring bug).  Recycling changes
/// that: after a flow is torn down, packets already in flight for it may
/// still arrive.  Flow ids are never reused, so such a packet finds no
/// endpoint however late it arrives.  `set_stale_pool` opts into dropping
/// it: unbound deliveries are returned to the packet pool and counted as
/// `stale_drops` in the demux's telemetry slot, when a plane armed it (the
/// demux keeps no counter of its own).
class flow_demux final : public packet_sink {
 public:
  void bind(std::uint32_t flow_id, packet_sink* endpoint) {
    NDPSIM_ASSERT(endpoint != nullptr);
    if (slots_.empty() || (bound_ + 1) * 2 > slots_.size()) {
      rehash(slots_.empty() ? 16 : slots_.size() * 2);
    }
    slot& s = find_slot(flow_id);
    // A silently stolen slot would misdeliver every packet of the first
    // flow to the second flow's endpoint (same id, so the endpoint's own
    // flow-id assert cannot catch it); fail loudly instead.  Re-binding the
    // same endpoint is idempotent (e.g. an acceptor shared by many flows
    // re-registered per connection).
    NDPSIM_ASSERT_MSG(s.ep == nullptr || s.ep == endpoint,
                      "flow " << flow_id
                              << " already bound to a different endpoint at "
                                 "this host demux");
    if (s.ep == nullptr) ++bound_;
    s.key = flow_id;
    s.ep = endpoint;
  }

  void unbind(std::uint32_t flow_id) {
    if (slots_.empty()) return;
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = hash(flow_id) & mask;
    while (slots_[i].ep != nullptr && slots_[i].key != flow_id) {
      i = (i + 1) & mask;
    }
    if (slots_[i].ep == nullptr) return;
    slots_[i].ep = nullptr;
    --bound_;
    // Backward-shift the rest of the probe cluster so lookups never need
    // tombstones.
    std::size_t j = i;
    while (true) {
      j = (j + 1) & mask;
      if (slots_[j].ep == nullptr) break;
      const std::size_t home = hash(slots_[j].key) & mask;
      if (((j - home) & mask) >= ((j - i) & mask)) {
        slots_[i] = slots_[j];
        slots_[j].ep = nullptr;
        i = j;
      }
    }
    // Shrink when load drops below 1/8 so churn does not pin the table at
    // its high-water size; rehash to 1/4 load so the next few binds do not
    // immediately grow it back.
    if (slots_.size() > 16 && bound_ * 8 < slots_.size()) {
      std::size_t target = 16;
      while (target < bound_ * 4) target *= 2;
      rehash(target);
    }
  }

  [[nodiscard]] packet_sink* endpoint_for(std::uint32_t flow_id) const {
    if (slots_.empty()) return nullptr;
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = hash(flow_id) & mask;
    while (slots_[i].ep != nullptr) {
      if (slots_[i].key == flow_id) return slots_[i].ep;
      i = (i + 1) & mask;
    }
    return nullptr;
  }
  [[nodiscard]] std::size_t bound_count() const { return bound_; }
  /// Current probe-table size (tests: shrink behaviour under churn).
  [[nodiscard]] std::size_t table_size() const { return slots_.size(); }

  /// Opt into dropping deliveries for unbound flows (returning the packet to
  /// `pool`) instead of treating them as a wiring bug.  Required once flows
  /// are recycled: packets still in flight when their flow is torn down are
  /// stale and die here.
  void set_stale_pool(packet_pool* pool) { stale_pool_ = pool; }

  /// Arm (or disarm) this demux's telemetry slot: enq = terminal
  /// deliveries, deq = packets handed to a bound endpoint, stale_drops =
  /// deliveries for unbound (recycled) flows.
  void set_telemetry(telemetry_slot t) {
    tele_ = t.hot;
    tele_rare_ = t.rare;
  }
  /// Combined snapshot of this demux's slot; throws `simulation_error` when
  /// no plane armed it.
  [[nodiscard]] telemetry_counters telemetry() const {
    return combine_telemetry(tele_, tele_rare_);
  }
  [[nodiscard]] bool telemetry_armed() const { return tele_ != nullptr; }

  void receive(packet& p) override {
    NDPSIM_TELE(++tele_->enq_pkts; tele_->enq_bytes += p.size_bytes);
    packet_sink* ep = endpoint_for(p.flow_id);
    if (ep == nullptr) {
      NDPSIM_ASSERT_MSG(stale_pool_ != nullptr,
                        "no endpoint bound for flow " << p.flow_id
                                                      << " at host demux");
      NDPSIM_TELE(++tele_rare_->stale_drops);
      stale_pool_->release(&p);
      return;
    }
    NDPSIM_TELE(++tele_->deq_pkts; tele_->deq_bytes += p.size_bytes);
    ep->receive(p);
  }

 private:
  struct slot {
    std::uint32_t key = 0;
    packet_sink* ep = nullptr;  ///< nullptr = empty slot
  };

  [[nodiscard]] static std::size_t hash(std::uint32_t k) {
    return k * std::size_t{0x9E3779B97F4A7C15ull} >> 32;
  }

  [[nodiscard]] slot& find_slot(std::uint32_t flow_id) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = hash(flow_id) & mask;
    while (slots_[i].ep != nullptr && slots_[i].key != flow_id) {
      i = (i + 1) & mask;
    }
    return slots_[i];
  }

  void rehash(std::size_t new_size) {
    std::vector<slot> old = std::move(slots_);
    slots_.assign(new_size, slot{});
    for (const slot& s : old) {
      if (s.ep != nullptr) {
        slot& dst = find_slot(s.key);
        dst = s;
      }
    }
  }

  std::vector<slot> slots_;  ///< power-of-two size
  std::size_t bound_ = 0;
  packet_pool* stale_pool_ = nullptr;  ///< non-null = drop unbound deliveries
  telemetry_hot_counters* tele_ = nullptr;  ///< armed slot; nullptr = off
  telemetry_rare_counters* tele_rare_ = nullptr;  ///< armed with tele_
};

/// Borrowed view of a multipath route set: forward/reverse route arrays
/// (pointers into path_table-, flow- or manual_paths-owned storage; fwd[i]
/// and rev[i] traverse the same switches in opposite directions) plus the
/// demuxes at the two ends.  Cheap to copy; the owner must outlive every
/// connection using it.
///
/// Borrow rules (the `path_set` lifetime contract):
///  * The view is valid until the owner of its arrays dies: the path table
///    for `all`/`single` views, the caller's storage for a capped
///    `path_table::sample` (a `flow` keeps it beside its transports, so the
///    transports die first), the builder for `manual_paths`.
///  * The `const route*`s *inside* the arrays are interned fabric state and
///    remain valid for the table's lifetime.  A stale packet already in
///    flight keeps a valid route even after its flow is gone.
struct path_set {
  const route* const* fwd = nullptr;
  const route* const* rev = nullptr;
  std::uint32_t n = 0;
  flow_demux* src_demux = nullptr;  ///< terminal of the reverse routes
  flow_demux* dst_demux = nullptr;  ///< terminal of the forward routes

  [[nodiscard]] std::size_t size() const { return n; }
  [[nodiscard]] bool empty() const { return n == 0; }

  [[nodiscard]] const route* forward(std::size_t i) const {
    NDPSIM_ASSERT_MSG(i < n, "path index out of range");
    return fwd[i];
  }
  [[nodiscard]] const route* reverse(std::size_t i) const {
    NDPSIM_ASSERT_MSG(i < n, "path index out of range");
    return rev[i];
  }

  /// Single-path view of path `i` (MPTCP pins one subflow per path).
  [[nodiscard]] path_set slice(std::size_t i) const {
    NDPSIM_ASSERT_MSG(i < n, "path index out of range");
    return path_set{fwd + i, rev + i, 1, src_demux, dst_demux};
  }

  /// Register the receiving endpoint for `flow_id` (terminal of fwd routes).
  void bind_dst(std::uint32_t flow_id, packet_sink* endpoint) const {
    NDPSIM_ASSERT_MSG(dst_demux != nullptr, "path_set has no dst demux");
    dst_demux->bind(flow_id, endpoint);
  }
  /// Register the sending endpoint for `flow_id` (terminal of rev routes).
  void bind_src(std::uint32_t flow_id, packet_sink* endpoint) const {
    NDPSIM_ASSERT_MSG(src_demux != nullptr, "path_set has no src demux");
    src_demux->bind(flow_id, endpoint);
  }
  void unbind(std::uint32_t flow_id) const {
    if (src_demux != nullptr) src_demux->unbind(flow_id);
    if (dst_demux != nullptr) dst_demux->unbind(flow_id);
  }
};

/// Builder for hand-wired path sets (tests, custom setups): owns the routes
/// and both demuxes.  Hops exclude the endpoints — like interned routes, each
/// side terminates at the built-in demux, and transports register their
/// endpoints through the resulting path_set.  Add every path before calling
/// set(); the builder must outlive the connection.
class manual_paths {
 public:
  /// Append one forward/reverse pair; reverses are linked automatically.
  void add(std::vector<packet_sink*> fwd_hops,
           std::vector<packet_sink*> rev_hops) {
    fwd_hops.push_back(&dst_demux_);
    rev_hops.push_back(&src_demux_);
    owned_route& f = routes_.emplace_back(std::move(fwd_hops));
    owned_route& r = routes_.emplace_back(std::move(rev_hops));
    f.set_reverse(&r);
    r.set_reverse(&f);
    fwd_.push_back(&f);
    rev_.push_back(&r);
  }

  [[nodiscard]] path_set set() {
    return path_set{fwd_.data(), rev_.data(),
                    static_cast<std::uint32_t>(fwd_.size()), &src_demux_,
                    &dst_demux_};
  }

  [[nodiscard]] flow_demux& src_demux() { return src_demux_; }
  [[nodiscard]] flow_demux& dst_demux() { return dst_demux_; }

 private:
  std::deque<owned_route> routes_;  // deque: routes are pinned in place
  std::vector<const route*> fwd_, rev_;
  flow_demux src_demux_, dst_demux_;
};

}  // namespace ndpsim
