#include "topo/fabric_instance.h"

#include <algorithm>

#include "net/path_set.h"
#include "sim/telemetry.h"
#include "topo/path_table.h"

namespace ndpsim {

fabric_instance::fabric_instance(sim_env& env,
                                 std::shared_ptr<const fabric_blueprint> bp,
                                 const queue_factory& make_queue)
    : env_(env), bp_(std::move(bp)) {
  NDPSIM_ASSERT_MSG(bp_ != nullptr, "fabric_instance needs a blueprint");
  const auto& links = bp_->links();
  const pfc_config& pfc = bp_->config().pfc;
  sinks_.assign(bp_->n_slots(), nullptr);
  queues_.reserve(links.size());
  by_level_.resize(6);
  for (auto& lvl : by_level_) lvl.reserve(links.size() / 6 + 1);

  // Slot-keyed telemetry registration: when the env carries a plane (armed
  // BEFORE instantiation — the sim_env contract), every queue and pipe gets
  // the counter block of its own blueprint slot.  Demux slots arm lazily in
  // bind_demux_slot as the path table mounts them.  PFC ingress slots stay
  // unarmed: they forward without buffering decisions of their own.
  telemetry_plane* const tp = env_.telemetry.get();
  for (std::uint32_t id = 0; id < links.size(); ++id) {
    const auto& l = links[id];
    auto q = make_queue(l.level, l.index, l.rate);
    NDPSIM_ASSERT(q != nullptr);
    pipes_.emplace_back(env_, l.delay);
    sinks_[l.first_slot] = q.get();
    sinks_[l.first_slot + 1] = &pipes_.back();
    if (tp != nullptr) {
      q->set_telemetry(tp->arm(l.first_slot, telemetry_kind::queue,
                               static_cast<std::uint8_t>(l.level), l.rate));
      pipes_.back().set_telemetry(
          tp->arm(l.first_slot + 1, telemetry_kind::pipe,
                  static_cast<std::uint8_t>(l.level), l.rate));
    }
    if (pfc.enabled) {
      q->set_depart_hook(&pfc_ingress::credit_on_depart);
    }
    if (l.has_ingress) {
      ingresses_.emplace_back(env_, q.get(), l.delay, pfc.xoff_bytes,
                              pfc.xon_bytes);
      sinks_[l.first_slot + 2] = &ingresses_.back();
    }
    by_level_[static_cast<std::size_t>(l.level)].push_back(q.get());
    queues_.push_back(std::move(q));
  }

  // Stamp the flat dispatch lanes up front: pre-open the (class, delta)
  // lanes this fabric will drive hardest — pipe delivery per distinct link
  // delay (the pipe constructors above already opened those) and queue
  // service per distinct (rate, common packet size) — and pre-size their
  // rings so the first traffic burst doesn't pay doubling-growth copies.
  // 9000/64 are the dominant wire sizes (full data MTU, header/control);
  // uncommon sizes open their lanes lazily via the queues' size caches.
  std::vector<simtime_t> deltas;
  for (const auto& l : links) {
    for (const std::uint32_t size : {9000u, kHeaderBytes}) {
      const simtime_t st = serialization_time(size, l.rate);
      if (std::find(deltas.begin(), deltas.end(), st) == deltas.end()) {
        deltas.push_back(st);
        const std::uint32_t lane =
            env_.events.lane_for(dispatch_class::queue_service, st);
        if (lane != event_list::kNoLane) {
          env_.events.reserve_lane(lane, 512);
        }
      }
    }
    const std::uint32_t pl =
        env_.events.lane_for(dispatch_class::pipe_expiry, l.delay);
    if (pl != event_list::kNoLane) env_.events.reserve_lane(pl, 1024);
  }
}

fabric_instance::~fabric_instance() = default;

path_table& fabric_instance::paths() {
  if (paths_ == nullptr) paths_ = std::make_unique<path_table>(*this);
  return *paths_;
}

void fabric_instance::bind_demux_slot(std::uint32_t host, flow_demux* d) {
  sinks_[bp_->demux_slot(host)] = d;
  // Demuxes mount lazily (first connect touching the host), possibly after
  // the run started; arming a pre-sized slot never moves the counter array,
  // so this is safe mid-simulation.
  if (env_.telemetry != nullptr) {
    d->set_telemetry(
        env_.telemetry->arm(bp_->demux_slot(host), telemetry_kind::demux));
  }
}

telemetry_counters fabric_instance::aggregate_stats(link_level level) const {
  telemetry_counters total;
  for (const queue_base* q : queues_at(level)) total.add(q->telemetry());
  return total;
}

const std::vector<queue_base*>& fabric_instance::queues_at(
    link_level level) const {
  return by_level_[static_cast<std::size_t>(level)];
}

std::size_t fabric_instance::resident_bytes() const {
  std::size_t bytes = sinks_.capacity() * sizeof(packet_sink*) +
                      queues_.capacity() * sizeof(void*) +
                      pipes_.size() * sizeof(pipe) +
                      ingresses_.size() * sizeof(pfc_ingress);
  for (const auto& lvl : by_level_) bytes += lvl.capacity() * sizeof(void*);
  // Queue objects themselves are factory-built subclasses of unknown size;
  // count the base as a floor.
  bytes += queues_.size() * sizeof(queue_base);
  return bytes;
}

}  // namespace ndpsim
