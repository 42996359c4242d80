#include "trace.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <stdexcept>

namespace bench {

namespace {

// Per-thread stack of open span indices, and a small dense thread number
// for the trace's `tid` field.
thread_local std::vector<std::int32_t> t_open;
std::atomic<std::uint32_t> g_next_thread{0};
thread_local const std::uint32_t t_thread = g_next_thread.fetch_add(1);

}  // namespace

std::string layer_of(const std::string& name) {
  return name.substr(0, name.find('.'));
}

std::int32_t tracer::open(const char* name, std::int32_t parent) {
  if (parent == kCurrent) parent = t_open.empty() ? -1 : t_open.back();
  const std::int64_t start = ns(clock_type::now());
  std::int32_t id;
  {
    const std::lock_guard<std::mutex> lk(mu_);
    id = static_cast<std::int32_t>(spans_.size());
    spans_.push_back(span{name, start, -1, parent, t_thread});
  }
  t_open.push_back(id);
  return id;
}

void tracer::close(std::int32_t id) {
  const std::int64_t end = ns(clock_type::now());
  if (t_open.empty() || t_open.back() != id) {
    throw std::logic_error("tracer: spans closed out of order");
  }
  t_open.pop_back();
  const std::lock_guard<std::mutex> lk(mu_);
  spans_[static_cast<std::size_t>(id)].end_ns = end;
}

std::vector<span> tracer::spans() const {
  const std::lock_guard<std::mutex> lk(mu_);
  return spans_;
}

ledger attribute(const std::vector<span>& spans, std::int64_t t0_ns,
                 std::int64_t t1_ns) {
  ledger out;
  out.window_s = static_cast<double>(t1_ns - t0_ns) * 1e-9;

  // A parent is always recorded before its children, so one forward pass
  // fills every depth.
  const std::size_t n = spans.size();
  std::vector<int> depth(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::int32_t p = spans[i].parent;
    if (p >= 0) depth[i] = depth[static_cast<std::size_t>(p)] + 1;
  }

  struct edge {
    std::int64_t t;
    bool opens;
    int depth;
    std::int32_t id;
  };
  std::vector<edge> edges;
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t s = std::max(spans[i].start_ns, t0_ns);
    const std::int64_t e =
        spans[i].end_ns < 0 ? t1_ns : std::min(spans[i].end_ns, t1_ns);
    if (e <= s) continue;
    const auto id = static_cast<std::int32_t>(i);
    edges.push_back(edge{s, true, depth[i], id});
    edges.push_back(edge{e, false, depth[i], id});
  }
  // At one instant: closes before opens, children close before parents and
  // parents open before children.
  std::sort(edges.begin(), edges.end(), [](const edge& a, const edge& b) {
    if (a.t != b.t) return a.t < b.t;
    if (a.opens != b.opens) return !a.opens;
    return a.opens ? a.depth < b.depth : a.depth > b.depth;
  });

  std::vector<int> open_children(n, 0);
  std::vector<char> is_open(n, 0);
  std::vector<std::int32_t> leaves;
  std::map<std::string, double> name_ns;
  double unattributed_ns = 0;
  std::int64_t prev = t0_ns;
  auto charge = [&](std::int64_t upto) {
    const double dt = static_cast<double>(upto - prev);
    prev = upto;
    if (dt <= 0) return;
    if (leaves.empty()) {
      unattributed_ns += dt;
      return;
    }
    const double share = dt / static_cast<double>(leaves.size());
    for (const std::int32_t leaf : leaves) {
      name_ns[spans[static_cast<std::size_t>(leaf)].name] += share;
    }
  };
  auto drop_leaf = [&leaves](std::int32_t id) {
    const auto it = std::find(leaves.begin(), leaves.end(), id);
    if (it != leaves.end()) leaves.erase(it);
  };

  for (const edge& e : edges) {
    charge(e.t);
    const std::int32_t p = spans[static_cast<std::size_t>(e.id)].parent;
    const bool parent_open = p >= 0 && is_open[static_cast<std::size_t>(p)];
    if (e.opens) {
      is_open[static_cast<std::size_t>(e.id)] = 1;
      leaves.push_back(e.id);
      if (parent_open && open_children[static_cast<std::size_t>(p)]++ == 0) {
        drop_leaf(p);
      }
    } else {
      is_open[static_cast<std::size_t>(e.id)] = 0;
      drop_leaf(e.id);
      if (parent_open && --open_children[static_cast<std::size_t>(p)] == 0) {
        leaves.push_back(p);
      }
    }
  }
  charge(t1_ns);

  for (const auto& [name, v] : name_ns) out.name_s[name] = v * 1e-9;
  out.unattributed_s = unattributed_ns * 1e-9;
  return out;
}

std::vector<double> durations_s(const std::vector<span>& spans,
                                const char* name) {
  std::vector<double> out;
  for (const span& s : spans) {
    if (s.end_ns >= 0 && std::strcmp(s.name, name) == 0) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-9);
    }
  }
  return out;
}

double total_s(const std::vector<span>& spans, const char* name) {
  double sum = 0;
  for (const double d : durations_s(spans, name)) sum += d;
  return sum;
}

bool write_chrome_trace(const std::string& path,
                        const std::vector<span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const span& s = spans[i];
    const std::int64_t end = s.end_ns < 0 ? s.start_ns : s.end_ns;
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"id\":%zu,\"parent\":%d}}\n",
                 i == 0 ? "" : ",", s.name, layer_of(s.name).c_str(),
                 s.thread, static_cast<double>(s.start_ns) * 1e-3,
                 static_cast<double>(end - s.start_ns) * 1e-3, i, s.parent);
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace bench
