// Flow-completion-time bookkeeping shared by experiments.
#pragma once

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "sim/assert.h"
#include "sim/time.h"
#include "stats/cdf.h"

namespace ndpsim {

class fct_recorder {
 public:
  /// `epoch` tags the record with the flow's churn generation (0 for one-shot
  /// experiments).  `flow_factory` never reuses an id, so within one run
  /// `flow_id` alone names one transfer.
  void flow_started(std::uint32_t flow_id, simtime_t at, std::uint64_t bytes,
                    std::uint32_t epoch = 0) {
    NDPSIM_ASSERT_MSG(open_.find(flow_id) == open_.end(),
                      "flow started twice: " << flow_id);
    open_[flow_id] = info{at, bytes, epoch};
    max_epoch_ = std::max(max_epoch_, epoch);
  }

  void flow_completed(std::uint32_t flow_id, simtime_t at) {
    auto it = open_.find(flow_id);
    NDPSIM_ASSERT_MSG(it != open_.end(), "unknown flow completed: " << flow_id);
    const simtime_t fct = at - it->second.start;
    NDPSIM_ASSERT(fct >= 0);
    done_.push_back(record{flow_id, it->second.start, at, it->second.bytes,
                           it->second.epoch});
    open_.erase(it);
  }

  struct record {
    std::uint32_t flow_id;
    simtime_t start;
    simtime_t end;
    std::uint64_t bytes;
    std::uint32_t epoch = 0;  ///< churn generation the flow belonged to
    bool operator==(const record&) const = default;
  };

  /// Fold another recorder's completed flows into this one (flow ids are
  /// namespaced per experiment, so collisions across merged runs are fine).
  void merge_from(const fct_recorder& other) {
    done_.insert(done_.end(), other.done_.begin(), other.done_.end());
    max_epoch_ = std::max(max_epoch_, other.max_epoch_);
  }

  [[nodiscard]] std::size_t completed() const { return done_.size(); }
  /// Highest epoch tag seen on a started flow.
  [[nodiscard]] std::uint32_t max_epoch() const { return max_epoch_; }
  /// Completed flows tagged with `epoch` (per-generation breakdown).
  [[nodiscard]] std::size_t completed_in_epoch(std::uint32_t epoch) const {
    std::size_t n = 0;
    for (const record& r : done_) n += r.epoch == epoch ? 1 : 0;
    return n;
  }
  /// Completion times of one epoch, microseconds (steady-state comparisons:
  /// epoch 0 includes cold-start effects that later generations do not).
  [[nodiscard]] sample_set fct_us_epoch(std::uint32_t epoch) const {
    sample_set s;
    for (const record& r : done_) {
      if (r.epoch == epoch) s.add(to_us(r.end - r.start));
    }
    return s;
  }
  [[nodiscard]] std::size_t still_open() const { return open_.size(); }
  [[nodiscard]] const std::vector<record>& records() const { return done_; }
  /// All completion times, microseconds, in completion order (built from
  /// `records()`, the one store of completions).
  [[nodiscard]] sample_set fct_us() const {
    sample_set s;
    for (const record& r : done_) s.add(to_us(r.end - r.start));
    return s;
  }
  /// Completion time of the last flow to finish, microseconds since t=0.
  [[nodiscard]] double last_completion_us() const;

 private:
  struct info {
    simtime_t start;
    std::uint64_t bytes;
    std::uint32_t epoch = 0;
  };
  std::unordered_map<std::uint32_t, info> open_;
  std::vector<record> done_;
  std::uint32_t max_epoch_ = 0;
};

}  // namespace ndpsim
