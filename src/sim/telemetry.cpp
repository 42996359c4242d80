#include "sim/telemetry.h"

namespace ndpsim {

const char* to_string(telemetry_kind k) {
  switch (k) {
    case telemetry_kind::queue:
      return "queue";
    case telemetry_kind::pipe:
      return "pipe";
    case telemetry_kind::demux:
      return "demux";
    case telemetry_kind::other:
      break;
  }
  return "other";
}

void telemetry_plane::merge_from(const telemetry_plane& other) {
  NDPSIM_ASSERT_MSG(other.hot_.size() == hot_.size(),
                    "telemetry merge across mismatched slot layouts ("
                        << hot_.size() << " vs " << other.hot_.size() << ")");
  for (std::size_t i = 0; i < hot_.size(); ++i) {
    hot_[i].add(other.hot_[i]);
    rare_[i].add(other.rare_[i]);
    // Adopt the richer registration: a job that armed a slot knows its kind
    // and rate; the merge target may have been default-constructed.
    if (!info_[i].armed && other.info_[i].armed) info_[i] = other.info_[i];
  }
}

telemetry_counters telemetry_plane::totals(telemetry_kind kind) const {
  telemetry_counters sum;
  for (std::size_t i = 0; i < hot_.size(); ++i) {
    if (!info_[i].armed || info_[i].kind != kind) continue;
    sum.add(combine_telemetry(&hot_[i], &rare_[i]));
  }
  return sum;
}

std::size_t telemetry_plane::armed_slots() const {
  std::size_t n = 0;
  for (const slot_info& s : info_) n += s.armed ? 1 : 0;
  return n;
}

}  // namespace ndpsim
