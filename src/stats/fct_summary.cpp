#include "stats/fct_summary.h"

#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <cstring>

namespace ndpsim {
namespace {

// Fixed serialization order of telemetry_counters: declaration order.
constexpr std::size_t kCounterFields = 12;

void counters_to_array(const telemetry_counters& c,
                       std::uint64_t (&a)[kCounterFields]) {
  a[0] = c.enq_pkts;
  a[1] = c.enq_bytes;
  a[2] = c.deq_pkts;
  a[3] = c.deq_bytes;
  a[4] = c.drop_pkts;
  a[5] = c.drop_bytes;
  a[6] = c.trim_pkts;
  a[7] = c.trim_bytes;
  a[8] = c.bounce_pkts;
  a[9] = c.bounce_bytes;
  a[10] = c.mark_pkts;
  a[11] = c.stale_drops;
}

void counters_from_array(const std::uint64_t (&a)[kCounterFields],
                         telemetry_counters& c) {
  c.enq_pkts = a[0];
  c.enq_bytes = a[1];
  c.deq_pkts = a[2];
  c.deq_bytes = a[3];
  c.drop_pkts = a[4];
  c.drop_bytes = a[5];
  c.trim_pkts = a[6];
  c.trim_bytes = a[7];
  c.bounce_pkts = a[8];
  c.bounce_bytes = a[9];
  c.mark_pkts = a[10];
  c.stale_drops = a[11];
}

void append_u64(std::string& s, std::uint64_t v) {
  char buf[24];
  auto [p, ec] = std::to_chars(buf, buf + sizeof buf, v);
  (void)ec;
  s.append(buf, p);
}

void append_i32(std::string& s, std::int32_t v) {
  char buf[16];
  auto [p, ec] = std::to_chars(buf, buf + sizeof buf, v);
  (void)ec;
  s.append(buf, p);
}

// %.17g round-trips every finite double bit-exactly, and — being a pure
// function of the value — keeps the spill line deterministic.
void append_double(std::string& s, double v) {
  char buf[40];
  const int n = std::snprintf(buf, sizeof buf, "%.17g", v);
  s.append(buf, static_cast<std::size_t>(n));
}

void append_hex64(std::string& s, std::uint64_t v) {
  char buf[20];
  const int n = std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  s.append(buf, static_cast<std::size_t>(n));
}

void append_escaped(std::string& s, std::string_view name) {
  for (const char ch : name) {
    const auto u = static_cast<unsigned char>(ch);
    if (ch == '"' || ch == '\\') {
      s.push_back('\\');
      s.push_back(ch);
    } else if (u < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", u);
      s.append(buf, 6);
    } else {
      s.push_back(ch);
    }
  }
}

void append_counters(std::string& s, const telemetry_counters& c) {
  std::uint64_t a[kCounterFields];
  counters_to_array(c, a);
  s.push_back('[');
  for (std::size_t i = 0; i < kCounterFields; ++i) {
    if (i > 0) s.push_back(',');
    append_u64(s, a[i]);
  }
  s.push_back(']');
}

// Strict left-to-right cursor over one spill line.  Every primitive returns
// false on the first defect; there is no whitespace skipping because the
// emitter writes none — any byte out of place fails the whole line.
struct cursor {
  const char* p;
  const char* end;

  explicit cursor(std::string_view line)
      : p(line.data()), end(line.data() + line.size()) {}

  [[nodiscard]] bool lit(std::string_view s) {
    if (static_cast<std::size_t>(end - p) < s.size()) return false;
    if (std::memcmp(p, s.data(), s.size()) != 0) return false;
    p += s.size();
    return true;
  }

  [[nodiscard]] bool u64(std::uint64_t& out) {
    auto [next, ec] = std::from_chars(p, end, out);
    if (ec != std::errc() || next == p) return false;
    p = next;
    return true;
  }

  [[nodiscard]] bool i32(std::int32_t& out) {
    auto [next, ec] = std::from_chars(p, end, out);
    if (ec != std::errc() || next == p) return false;
    p = next;
    return true;
  }

  [[nodiscard]] bool dbl(double& out) {
    auto [next, ec] = std::from_chars(p, end, out);
    if (ec != std::errc() || next == p) return false;
    p = next;
    return true;
  }

  [[nodiscard]] bool hex64(std::uint64_t& out) {
    if (end - p < 16) return false;
    auto [next, ec] = std::from_chars(p, p + 16, out, 16);
    if (ec != std::errc() || next != p + 16) return false;
    p = next;
    return true;
  }

  [[nodiscard]] bool str(std::string& out) {
    if (!lit("\"")) return false;
    out.clear();
    while (p < end && *p != '"') {
      char ch = *p++;
      if (ch == '\\') {
        if (p >= end) return false;
        const char esc = *p++;
        if (esc == '"' || esc == '\\') {
          ch = esc;
        } else if (esc == 'u') {
          if (end - p < 4) return false;
          std::uint32_t code = 0;
          auto [next, ec] = std::from_chars(p, p + 4, code, 16);
          if (ec != std::errc() || next != p + 4 || code > 0xff) return false;
          p = next;
          ch = static_cast<char>(code);
        } else {
          return false;
        }
      }
      out.push_back(ch);
    }
    return lit("\"");
  }

  [[nodiscard]] bool counters(telemetry_counters& out) {
    std::uint64_t a[kCounterFields];
    if (!lit("[")) return false;
    for (std::size_t i = 0; i < kCounterFields; ++i) {
      if (i > 0 && !lit(",")) return false;
      if (!u64(a[i])) return false;
    }
    if (!lit("]")) return false;
    counters_from_array(a, out);
    return true;
  }

  [[nodiscard]] bool done() const { return p == end; }
};

}  // namespace

void telemetry_summary::add(const telemetry_summary& other) {
  if (!other.present) return;
  present = true;
  armed_slots += other.armed_slots;
  queues.add(other.queues);
  pipes.add(other.pipes);
  demuxes.add(other.demuxes);
}

telemetry_summary telemetry_summary::from_plane(const telemetry_plane& p) {
  telemetry_summary s;
  s.present = true;
  s.armed_slots = p.armed_slots();
  s.queues = p.totals(telemetry_kind::queue);
  s.pipes = p.totals(telemetry_kind::pipe);
  s.demuxes = p.totals(telemetry_kind::demux);
  return s;
}

fct_summary fct_summary::from_recorder(const fct_recorder& rec, double alpha) {
  fct_summary s(alpha);
  s.flows = rec.completed();
  s.still_open = rec.still_open();
  bool first = true;
  for (const fct_recorder::record& r : rec.records()) {
    const double us = to_us(r.end - r.start);
    s.bytes += r.bytes;
    s.sum_us += us;
    s.min_us = first ? us : std::min(s.min_us, us);
    s.max_us = std::max(s.max_us, us);
    s.sketch.add(us);
    first = false;
  }
  return s;
}

void fct_summary::merge_from(const fct_summary& other) {
  if (other.flows > 0) {
    min_us = flows > 0 ? std::min(min_us, other.min_us) : other.min_us;
    max_us = flows > 0 ? std::max(max_us, other.max_us) : other.max_us;
  }
  flows += other.flows;
  still_open += other.still_open;
  bytes += other.bytes;
  events += other.events;
  sum_us += other.sum_us;
  sketch.merge_from(other.sketch);
  tele.add(other.tele);
}

std::string fct_summary::to_jsonl() const {
  std::string s;
  s.reserve(256 + sketch.buckets() * 16);
  s += "{\"job\":";
  append_u64(s, job);
  s += ",\"hash\":\"";
  append_hex64(s, hash);
  s += "\",\"name\":\"";
  append_escaped(s, name);
  s += "\",\"flows\":";
  append_u64(s, flows);
  s += ",\"open\":";
  append_u64(s, still_open);
  s += ",\"bytes\":";
  append_u64(s, bytes);
  s += ",\"events\":";
  append_u64(s, events);
  s += ",\"sum_us\":";
  append_double(s, sum_us);
  s += ",\"min_us\":";
  append_double(s, min_us);
  s += ",\"max_us\":";
  append_double(s, max_us);
  s += ",\"sketch\":{\"alpha\":";
  append_double(s, sketch.alpha());
  s += ",\"buckets\":[";
  bool first = true;
  for (const quantile_sketch::bucket& b : sketch.raw_buckets()) {
    if (!first) s.push_back(',');
    first = false;
    s += "[";
    append_i32(s, b.index);
    s.push_back(',');
    append_u64(s, b.count);
    s.push_back(']');
  }
  s += "]},\"tele\":";
  if (!tele.present) {
    s += "null}";
    return s;
  }
  s += "{\"armed\":";
  append_u64(s, tele.armed_slots);
  s += ",\"queue\":";
  append_counters(s, tele.queues);
  s += ",\"pipe\":";
  append_counters(s, tele.pipes);
  s += ",\"demux\":";
  append_counters(s, tele.demuxes);
  s += "}}";
  return s;
}

bool fct_summary::from_jsonl(std::string_view line, fct_summary& out) {
  out = fct_summary();
  fct_summary s;
  cursor c(line);
  double alpha = 0;
  std::vector<quantile_sketch::bucket> buckets;
  if (!c.lit("{\"job\":") || !c.u64(s.job)) return false;
  if (!c.lit(",\"hash\":\"") || !c.hex64(s.hash) || !c.lit("\"")) return false;
  if (!c.lit(",\"name\":") || !c.str(s.name)) return false;
  if (!c.lit(",\"flows\":") || !c.u64(s.flows)) return false;
  if (!c.lit(",\"open\":") || !c.u64(s.still_open)) return false;
  if (!c.lit(",\"bytes\":") || !c.u64(s.bytes)) return false;
  if (!c.lit(",\"events\":") || !c.u64(s.events)) return false;
  if (!c.lit(",\"sum_us\":") || !c.dbl(s.sum_us)) return false;
  if (!c.lit(",\"min_us\":") || !c.dbl(s.min_us)) return false;
  if (!c.lit(",\"max_us\":") || !c.dbl(s.max_us)) return false;
  if (!c.lit(",\"sketch\":{\"alpha\":") || !c.dbl(alpha)) return false;
  if (!(alpha > 0 && alpha < 1)) return false;
  if (!c.lit(",\"buckets\":[")) return false;
  bool first = true;
  while (!c.lit("]")) {
    if (!first && !c.lit(",")) return false;
    first = false;
    quantile_sketch::bucket b{};
    if (!c.lit("[") || !c.i32(b.index) || !c.lit(",") || !c.u64(b.count) ||
        !c.lit("]")) {
      return false;
    }
    buckets.push_back(b);
  }
  if (!s.sketch.restore(alpha, buckets)) return false;
  // Invariant of every emitted line: one sketch sample per completed flow.
  if (s.sketch.count() != s.flows) return false;
  if (!c.lit("},\"tele\":")) return false;
  if (c.lit("null")) {
    s.tele = telemetry_summary{};
  } else {
    s.tele.present = true;
    if (!c.lit("{\"armed\":") || !c.u64(s.tele.armed_slots)) return false;
    if (!c.lit(",\"queue\":") || !c.counters(s.tele.queues)) return false;
    if (!c.lit(",\"pipe\":") || !c.counters(s.tele.pipes)) return false;
    if (!c.lit(",\"demux\":") || !c.counters(s.tele.demuxes)) return false;
    if (!c.lit("}")) return false;
  }
  if (!c.lit("}") || !c.done()) return false;
  out = std::move(s);
  return true;
}

}  // namespace ndpsim
