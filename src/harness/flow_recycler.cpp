#include "harness/flow_recycler.h"

#include <cmath>

#include "topo/path_table.h"

namespace ndpsim {

flow_recycler::flow_recycler(sim_env& env, fabric_instance& topo,
                             flow_factory& flows, recycler_config cfg,
                             pair_picker pick_pair, size_picker pick_size)
    : event_source(env.events),
      env_(env),
      flows_(flows),
      cfg_(cfg),
      pick_pair_(std::move(pick_pair)),
      pick_size_(std::move(pick_size)) {
  NDPSIM_ASSERT(pick_pair_ != nullptr);
  NDPSIM_ASSERT(cfg_.linger >= 0);
  // Recycling means stale packets for torn-down flows can reach a demux
  // after their endpoints are gone; arm the drop policy before it happens.
  topo.paths().enable_stale_drop(env_.pool);
}

void flow_recycler::start(std::size_t initial) {
  NDPSIM_ASSERT(initial >= 1);
  population_ = initial;
  for (std::size_t i = 0; i < initial; ++i) {
    const auto [src, dst] = pick_pair_(env_);
    launch(src, dst, env_.now());
  }
  if (cfg_.open_rate_per_sec > 0) schedule_next_arrival();
  rearm();
}

void flow_recycler::launch(std::uint32_t src, std::uint32_t dst,
                           simtime_t at) {
  if (stopped_ || started_ >= cfg_.max_starts) return;
  flow_options o = cfg_.opts;
  o.start = at;
  if (pick_size_) o.bytes = std::max<std::uint64_t>(1, pick_size_(env_));
  flow& f = flows_.create(cfg_.proto, src, dst, o);
  const std::uint32_t epoch =
      static_cast<std::uint32_t>(started_ / population_);
  ++started_;
  fcts_.flow_started(f.id, at, o.bytes, epoch);
  f.on_complete([this, &f] { on_flow_complete(f); });
}

void flow_recycler::on_flow_complete(flow& f) {
  // Called from inside a transport callback: only record and queue here —
  // the teardown (which frees the very objects running this callback) waits
  // for the recycler's own event after the linger window.
  fcts_.flow_completed(f.id, f.completion_time());
  retire_queue_.push_back(pending_retire{&f, env_.now() + cfg_.linger});
  rearm();
}

void flow_recycler::schedule_next_arrival() {
  const double u = std::max(1e-12, env_.rand_unit());
  const double gap_s = -std::log(u) / cfg_.open_rate_per_sec;
  next_arrival_ = env_.now() + from_sec(gap_s);
}

void flow_recycler::rearm() {
  simtime_t due = -1;
  if (!retire_queue_.empty()) due = retire_queue_.front().due;
  if (next_arrival_ >= 0 && !stopped_ && started_ < cfg_.max_starts &&
      (due < 0 || next_arrival_ < due)) {
    due = next_arrival_;
  }
  if (due < 0) {
    events().cancel(timer_);
    return;
  }
  if (!events().is_pending(timer_) || events().expiry(timer_) != due) {
    events().reschedule(timer_, *this, std::max(env_.now(), due));
  }
}

void flow_recycler::do_next_event() {
  const simtime_t now = env_.now();

  // Teardown leaves the packet pool's LIFO free list as released: there is no
  // reordering pass (see packet_pool for why).
  while (!retire_queue_.empty() && retire_queue_.front().due <= now) {
    flow* f = retire_queue_.front().f;
    retire_queue_.pop_front();
    flows_.destroy(*f);
    ++recycled_;
    if (cfg_.open_rate_per_sec <= 0) {
      // Closed loop: every teardown seeds its replacement.
      const auto [src, dst] = pick_pair_(env_);
      launch(src, dst, now);
    }
  }

  if (next_arrival_ >= 0 && next_arrival_ <= now) {
    if (!stopped_ && started_ < cfg_.max_starts) {
      const auto [src, dst] = pick_pair_(env_);
      launch(src, dst, now);
      schedule_next_arrival();
    } else {
      next_arrival_ = -1;
    }
  }

  rearm();
}

}  // namespace ndpsim
