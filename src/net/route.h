// Source routes: explicit sequences of packet sinks.
//
// A route alternates queue and pipe elements and ends at a terminal sink (a
// per-host `flow_demux` for interned fabric routes, or a transport endpoint
// for hand-built ones):
//   [q0, p0, q1, p1, ..., q_{n-1}, p_{n-1}, terminal]
// Queues sit at even indices. Each route may know its reverse (same switches,
// opposite direction), which lets an NDP switch return a packet to its sender
// from the middle of the path.
//
// `route` itself is a non-owning view with one level of indirection: hop i
// is `table[slots[i]]`, where `slots` is an immutable sequence of sink-slot
// ids and `table` maps slot id -> live `packet_sink*`.  That split is what
// lets fabric structure be shared across simulations (the blueprint/instance
// split): the slot sequences live once in a `fabric_blueprint`'s structural
// path table, shared read-only by every `sim_env`, while each
// `fabric_instance` supplies its own sink table of materialized queues,
// pipes and demuxes.  Only hand-wired routes (`owned_route`, as built by
// tests and `manual_paths`) use an identity slot sequence over their own
// sink storage, so `at(i)` is just `hops[i]`.
//
// Reverse-pointer lifetime contract: `reverse()` is a raw pointer, so the
// reverse route (and the storage its hops view) must outlive every use of the
// forward route — in particular packets in flight carry `reverse_rt` for
// return-to-sender.  Interned routes satisfy this by construction: forward
// and reverse of a path are interned together in one path table and neither
// is ever freed before the table.  Hand-built pairs must keep both sides
// alive for the duration of the run; `path_table` asserts reciprocity
// (`fwd->reverse()->reverse() == fwd`) at interning time.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/assert.h"

namespace ndpsim {

struct packet;

/// Anything that can receive a packet: queues, pipes, transport endpoints.
class packet_sink {
 public:
  virtual ~packet_sink() = default;
  virtual void receive(packet& p) = 0;
};

/// The shared identity slot sequence {0, 1, 2, ...}: routes over contiguous
/// private hop storage use it so the two-level `table[slots[i]]` resolution
/// collapses to `hops[i]`.  Asserts `n` within the (generous) static bound.
[[nodiscard]] const std::uint32_t* identity_slots(std::size_t n);

class route {
 public:
  route() = default;
  /// View over externally-owned contiguous hop storage (`owned_route`):
  /// identity slots, hop i is `hops[i]`.
  route(packet_sink* const* hops, std::uint32_t n)
      : route(hops, identity_slots(n), n) {}
  /// Slot-indexed view: hop i is `table[slots[i]]`.  `slots` is shared
  /// immutable structure (a blueprint's interned path); `table` is the
  /// owning instance's per-env sink table.  Both must outlive the view.
  route(packet_sink* const* table, const std::uint32_t* slots, std::uint32_t n)
      : table_(table), slots_(slots), n_(n) {
    NDPSIM_ASSERT_MSG(table != nullptr && slots != nullptr && n > 0,
                      "route view needs hops");
  }

  [[nodiscard]] packet_sink& at(std::size_t i) const {
    NDPSIM_ASSERT_MSG(i < n_, "route hop out of range");
    return *table_[slots_[i]];
  }

  // Hop resolution is a dependent-load chain (route object -> slot id ->
  // sink table entry -> sink object) over working sets that fall out of
  // cache at k=32 scale; the flat batch handlers pipeline it across a
  // dispatch run with these prefetch stages, issued one iteration apart so
  // each stage only dereferences what the previous stage already fetched.
  void prefetch_hop_slot(std::size_t i) const {
    if (i < n_) __builtin_prefetch(&slots_[i]);
  }
  void prefetch_hop_table(std::size_t i) const {
    if (i < n_) __builtin_prefetch(&table_[slots_[i]]);
  }
  void prefetch_sink(std::size_t i) const {
    if (i < n_) __builtin_prefetch(table_[slots_[i]]);
  }
  [[nodiscard]] std::size_t size() const { return n_; }
  [[nodiscard]] bool empty() const { return n_ == 0; }

  /// Number of queue elements (queues at even indices before the terminal).
  [[nodiscard]] std::size_t queue_hops() const { return n_ / 2; }

  /// The reverse route (traverses the same switches back to the source), or
  /// nullptr if none was registered.  See the lifetime contract above: the
  /// returned pointer is only valid while the reverse route's owner lives.
  [[nodiscard]] const route* reverse() const { return reverse_; }
  void set_reverse(const route* r) { reverse_ = r; }

 protected:
  packet_sink* const* table_ = nullptr;
  const std::uint32_t* slots_ = nullptr;
  std::uint32_t n_ = 0;
  const route* reverse_ = nullptr;
};

/// A route that owns its hop storage: hand-wired queues in tests and
/// `manual_paths` sets.  Not copyable — the base view points into this
/// object's vector.
class owned_route final : public route {
 public:
  owned_route() = default;
  explicit owned_route(std::vector<packet_sink*> hops) { adopt(std::move(hops)); }
  owned_route(const owned_route&) = delete;
  owned_route& operator=(const owned_route&) = delete;

  void push_back(packet_sink* s) {
    NDPSIM_ASSERT(s != nullptr);
    store_.push_back(s);
    adopt_store();
  }

 private:
  void adopt(std::vector<packet_sink*> hops) {
    store_ = std::move(hops);
    adopt_store();
  }

  void adopt_store() {
    table_ = store_.data();
    n_ = static_cast<std::uint32_t>(store_.size());
    slots_ = identity_slots(store_.size());
  }

  std::vector<packet_sink*> store_;
};

}  // namespace ndpsim
