#include <gtest/gtest.h>

#include <vector>

#include "sim/eventlist.h"
#include "sim/time.h"

namespace ndpsim {
namespace {

class probe : public event_source {
 public:
  probe(event_list& el, std::vector<std::pair<int, simtime_t>>* log, int id)
      : event_source(el), log_(log), id_(id) {}
  void do_next_event() override { log_->emplace_back(id_, events().now()); }

 private:
  std::vector<std::pair<int, simtime_t>>* log_;
  int id_;
};

TEST(time, unit_conversions) {
  EXPECT_EQ(from_us(1.0), kMicrosecond);
  EXPECT_EQ(from_ms(2.0), 2 * kMillisecond);
  EXPECT_DOUBLE_EQ(to_us(from_us(123.0)), 123.0);
  EXPECT_EQ(gbps(10), 10'000'000'000ull);
}

TEST(time, serialization_time_9k_at_10g_is_7_2us) {
  // The paper: a 9KB jumbogram takes 7.2us to serialize at 10Gb/s.
  EXPECT_EQ(serialization_time(9000, gbps(10)), from_us(7.2));
}

TEST(time, serialization_time_64b_header) {
  EXPECT_EQ(serialization_time(64, gbps(10)), from_ns(51.2));
}

TEST(time, bytes_in_time_inverts_serialization) {
  const simtime_t t = serialization_time(123456, gbps(10));
  EXPECT_EQ(bytes_in_time(t, gbps(10)), 123456u);
}

TEST(eventlist, runs_in_time_order) {
  event_list el;
  std::vector<std::pair<int, simtime_t>> log;
  probe a(el, &log, 1), b(el, &log, 2);
  el.schedule_at(a, 100);
  el.schedule_at(b, 50);
  el.schedule_at(a, 150);
  el.run_all();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[0], (std::pair<int, simtime_t>{2, 50}));
  EXPECT_EQ(log[1], (std::pair<int, simtime_t>{1, 100}));
  EXPECT_EQ(log[2], (std::pair<int, simtime_t>{1, 150}));
}

TEST(eventlist, fifo_tiebreak_at_same_time) {
  event_list el;
  std::vector<std::pair<int, simtime_t>> log;
  probe a(el, &log, 1), b(el, &log, 2), c(el, &log, 3);
  el.schedule_at(b, 10);
  el.schedule_at(c, 10);
  el.schedule_at(a, 10);
  el.run_all();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[0].first, 2);
  EXPECT_EQ(log[1].first, 3);
  EXPECT_EQ(log[2].first, 1);
}

TEST(eventlist, run_until_advances_now_even_without_events) {
  event_list el;
  el.run_until(from_us(5));
  EXPECT_EQ(el.now(), from_us(5));
}

TEST(eventlist, run_until_only_processes_due_events) {
  event_list el;
  std::vector<std::pair<int, simtime_t>> log;
  probe a(el, &log, 1);
  el.schedule_at(a, 10);
  el.schedule_at(a, 100);
  el.run_until(50);
  EXPECT_EQ(log.size(), 1u);
  EXPECT_EQ(el.pending(), 1u);
  el.run_until(200);
  EXPECT_EQ(log.size(), 2u);
}

TEST(eventlist, rejects_scheduling_in_the_past) {
  event_list el;
  std::vector<std::pair<int, simtime_t>> log;
  probe a(el, &log, 1);
  el.run_until(100);
  EXPECT_THROW(el.schedule_at(a, 50), simulation_error);
}

TEST(eventlist, schedule_in_is_relative) {
  event_list el;
  std::vector<std::pair<int, simtime_t>> log;
  probe a(el, &log, 1);
  el.run_until(40);
  el.schedule_in(a, 10);
  el.run_all();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].second, 50);
}

TEST(eventlist, counts_processed_events) {
  event_list el;
  std::vector<std::pair<int, simtime_t>> log;
  probe a(el, &log, 1);
  el.schedule_at(a, 1);
  el.schedule_at(a, 2);
  el.run_all();
  EXPECT_EQ(el.events_processed(), 2u);
}

TEST(eventlist, cancel_prevents_fire) {
  event_list el;
  std::vector<std::pair<int, simtime_t>> log;
  probe a(el, &log, 1), b(el, &log, 2);
  timer_handle ha = el.schedule_at(a, 10);
  el.schedule_at(b, 20);
  EXPECT_TRUE(el.cancel(ha));
  el.run_all();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].first, 2);
  EXPECT_EQ(el.pending(), 0u);
}

TEST(eventlist, cancel_is_safe_on_invalid_and_fired_handles) {
  event_list el;
  std::vector<std::pair<int, simtime_t>> log;
  probe a(el, &log, 1);
  timer_handle never;  // default-constructed
  EXPECT_FALSE(el.cancel(never));
  timer_handle h = el.schedule_at(a, 5);
  el.run_all();
  EXPECT_FALSE(el.cancel(h));          // already fired
  EXPECT_FALSE(el.is_pending(h));
  timer_handle h2 = el.schedule_at(a, 10);
  EXPECT_TRUE(el.cancel(h2));
  EXPECT_FALSE(el.cancel(h2));         // double cancel is a no-op
}

TEST(eventlist, reschedule_moves_event_earlier_and_later) {
  event_list el;
  std::vector<std::pair<int, simtime_t>> log;
  probe a(el, &log, 1), b(el, &log, 2);
  timer_handle ha = el.schedule_at(a, 100);
  el.schedule_at(b, 50);
  el.reschedule(ha, a, 10);  // decrease-key: ahead of b
  el.reschedule(ha, a, 80);  // increase-key: behind b again
  el.run_all();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0], (std::pair<int, simtime_t>{2, 50}));
  EXPECT_EQ(log[1], (std::pair<int, simtime_t>{1, 80}));
}

TEST(eventlist, reschedule_on_invalid_handle_schedules_fresh) {
  event_list el;
  std::vector<std::pair<int, simtime_t>> log;
  probe a(el, &log, 1);
  timer_handle h;  // invalid
  el.reschedule(h, a, 30);
  EXPECT_TRUE(el.is_pending(h));
  EXPECT_EQ(el.expiry(h), 30);
  el.run_all();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].second, 30);
  EXPECT_FALSE(el.is_pending(h));  // fired handles go invalid
}

TEST(eventlist, reschedule_to_same_time_rearms_behind_fifo_peers) {
  // Re-arming is a new arming: the moved event runs after events that were
  // already pending at that timestamp.
  event_list el;
  std::vector<std::pair<int, simtime_t>> log;
  probe a(el, &log, 1), b(el, &log, 2), c(el, &log, 3);
  timer_handle ha = el.schedule_at(a, 10);
  el.schedule_at(b, 10);
  el.schedule_at(c, 10);
  el.reschedule(ha, a, 10);
  el.run_all();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[0].first, 2);
  EXPECT_EQ(log[1].first, 3);
  EXPECT_EQ(log[2].first, 1);
}

TEST(eventlist, expiry_tracks_reschedules) {
  event_list el;
  std::vector<std::pair<int, simtime_t>> log;
  probe a(el, &log, 1);
  timer_handle h = el.schedule_at(a, 40);
  EXPECT_EQ(el.expiry(h), 40);
  el.reschedule(h, a, 90);
  EXPECT_EQ(el.expiry(h), 90);
  EXPECT_TRUE(el.is_pending(h));
  el.cancel(h);
  EXPECT_FALSE(el.is_pending(h));
}

TEST(eventlist, reschedule_rejects_the_past) {
  event_list el;
  std::vector<std::pair<int, simtime_t>> log;
  probe a(el, &log, 1);
  timer_handle h = el.schedule_at(a, 200);
  el.run_until(100);
  EXPECT_THROW(el.reschedule(h, a, 50), simulation_error);
}

TEST(eventlist, run_until_lands_exactly_on_event_timestamp) {
  event_list el;
  std::vector<std::pair<int, simtime_t>> log;
  probe a(el, &log, 1);
  el.schedule_at(a, 100);
  el.run_until(100);  // horizon == event time: the event must run
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].second, 100);
  EXPECT_EQ(el.now(), 100);
  EXPECT_EQ(el.pending(), 0u);
}

TEST(eventlist, batch_runs_all_equal_timestamps_including_newly_scheduled) {
  event_list el;
  std::vector<std::pair<int, simtime_t>> log;
  // `spawner` schedules another probe at its own (current) timestamp.
  struct spawner final : event_source {
    spawner(event_list& e, probe* tail) : event_source(e), tail_(tail) {}
    void do_next_event() override { events().schedule_at(*tail_, events().now()); }
    probe* tail_;
  };
  probe a(el, &log, 1), tail(el, &log, 9);
  spawner s(el, &tail);
  el.schedule_at(a, 10);
  el.schedule_at(s, 10);
  el.schedule_at(a, 20);
  EXPECT_EQ(el.run_next_batch(), 3u);  // a, spawner, then the spawned tail
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0].first, 1);
  EXPECT_EQ(log[1].first, 9);
  EXPECT_EQ(log[1].second, 10);
  EXPECT_EQ(el.pending(), 1u);  // the event at t=20 is untouched
}

TEST(eventlist, cancel_heavy_churn_leaves_no_dead_entries) {
  // The old scheduler accumulated a dead entry per moved timer; the indexed
  // heap must keep exactly one pending entry per live timer, whatever the
  // churn.
  event_list el;
  std::vector<std::pair<int, simtime_t>> log;
  probe a(el, &log, 1);
  timer_handle h;
  for (int i = 0; i < 10000; ++i) {
    el.reschedule(h, a, 1000 + i);
    EXPECT_EQ(el.pending(), 1u);
  }
  timer_handle h2 = el.schedule_at(a, 500);
  EXPECT_EQ(el.pending(), 2u);
  el.cancel(h2);
  EXPECT_EQ(el.pending(), 1u);
  el.run_all();
  EXPECT_EQ(log.size(), 1u);  // one live timer -> one fire
  EXPECT_EQ(el.pending(), 0u);
}

TEST(eventlist, run_all_event_budget_throws) {
  // A source that reschedules itself forever must trip the budget backstop.
  event_list el;
  struct looper : event_source {
    explicit looper(event_list& e) : event_source(e) {}
    void do_next_event() override { events().schedule_in(*this, 1); }
  } l(el);
  el.schedule_at(l, 0);
  EXPECT_THROW(el.run_all(1000), simulation_error);
}

TEST(eventlist, run_all_event_budget_trips_inside_a_zero_delay_batch) {
  // Rescheduling at delta 0 keeps extending the current same-timestamp
  // batch; the budget must be enforced per event, not per batch, or this
  // would hang instead of throwing.
  event_list el;
  struct zero_looper : event_source {
    explicit zero_looper(event_list& e) : event_source(e) {}
    void do_next_event() override { events().schedule_in(*this, 0); }
  } l(el);
  el.schedule_at(l, 0);
  EXPECT_THROW(el.run_all(1000), simulation_error);
}

}  // namespace
}  // namespace ndpsim
