#include "ndp/pull_pacer.h"

#include <algorithm>

#include "ndp/ndp_sink.h"

namespace ndpsim {

pull_pacer::pull_pacer(sim_env& env, linkspeed_bps link_rate)
    : event_source(env.events, dispatch_class::pacer_tick),
      env_(env),
      rate_(link_rate) {
  NDPSIM_ASSERT(rate_ > 0);
}

void pull_pacer::enqueue(ndp_sink& sink) {
  ++sink.pulls_pending_;
  ++backlog_;
  if (!sink.in_ring_) {
    sink.in_ring_ = true;
    rings_[sink.pull_class()].push_back(&sink);
  }
  schedule_if_needed();
}

void pull_pacer::purge(ndp_sink& sink) {
  NDPSIM_ASSERT(backlog_ >= sink.pulls_pending_);
  backlog_ -= sink.pulls_pending_;
  sink.pulls_pending_ = 0;
  // Lazy removal: the ring entry is skipped when popped with nothing pending.
  // With the last pull gone, the armed release timer is cancelled instead of
  // firing into an empty queue.
  if (backlog_ == 0) events().cancel(timer_);
}

void pull_pacer::remove(ndp_sink& sink) {
  purge(sink);
  if (sink.in_ring_) {
    (void)rings_[sink.pull_class()].erase_value(&sink);
    sink.in_ring_ = false;
  }
}

bool pull_pacer::any_pending() const { return backlog_ > 0; }

void pull_pacer::schedule_if_needed() {
  if (!any_pending() || events().is_pending(timer_)) return;
  events().reschedule(timer_, *this, std::max(env_.now(), next_send_));
}

void pull_pacer::do_next_event() {
  // The timer only fires when a release is actually due: enqueue arms it,
  // purge of the last pull cancels it.
  NDPSIM_ASSERT(any_pending());
  send_one();
  schedule_if_needed();
}

void pull_pacer::send_one() {
  // Strict priority across classes, DRR (quantum = 1 pull) within a class.
  for (std::size_t cls = kPullClasses; cls-- > 0;) {
    auto& ring = rings_[cls];
    while (!ring.empty()) {
      ndp_sink* sink = ring.front();
      ring.pop_front();
      if (sink->pulls_pending_ == 0) {
        // Purged entry: drop it from the ring.
        sink->in_ring_ = false;
        continue;
      }
      --sink->pulls_pending_;
      --backlog_;
      if (sink->pulls_pending_ > 0) {
        ring.push_back(sink);
      } else {
        sink->in_ring_ = false;
      }
      sink->issue_pull();
      // Pace so the elicited data packets arrive at our link rate. Jitter
      // (replaying the prototype's imperfect timing, Fig 12) perturbs each
      // release around an *ideal* schedule: late pulls are followed by
      // back-to-back catch-up ones, exactly like the real pacer thread, so
      // the long-run pull rate is conserved (Fig 13's result depends on it).
      const simtime_t interval =
          serialization_time(sink->pulled_wire_bytes(), rate_);
      const simtime_t base =
          std::max(ideal_next_, env_.now() - 8 * interval);
      ideal_next_ = base + interval;
      simtime_t target = ideal_next_;
      if (jitter_) target = base + jitter_(interval);
      next_send_ = std::max(env_.now(), target);
      return;
    }
  }
}

}  // namespace ndpsim
