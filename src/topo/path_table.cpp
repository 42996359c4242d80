#include "topo/path_table.h"

#include <algorithm>

#include "topo/fabric_instance.h"

namespace ndpsim {

namespace {
[[nodiscard]] std::uint64_t pair_key(std::uint32_t src, std::uint32_t dst) {
  return (static_cast<std::uint64_t>(src) << 32) | dst;
}
}  // namespace

path_table::path_table(fabric_instance& topo) : topo_(topo) {
  demux_.resize(topo_.n_hosts());
}

flow_demux& path_table::demux(std::uint32_t host) {
  NDPSIM_ASSERT_MSG(host < demux_.size(), "host out of range");
  if (demux_[host] == nullptr) {
    demux_[host] = std::make_unique<flow_demux>();
    demux_[host]->set_stale_pool(stale_pool_);
    // Mounted at the host's sink slot, where structural routes end.
    topo_.bind_demux_slot(host, demux_[host].get());
  }
  return *demux_[host];
}

void path_table::enable_stale_drop(packet_pool& pool) {
  stale_pool_ = &pool;
  for (const auto& d : demux_) {
    if (d != nullptr) d->set_stale_pool(stale_pool_);
  }
}

path_table::pair_entry& path_table::entry_for(std::uint32_t src,
                                              std::uint32_t dst) {
  auto [it, fresh] = pairs_.try_emplace(pair_key(src, dst));
  if (fresh) {
    const std::size_t n = topo_.n_paths(src, dst);
    NDPSIM_ASSERT_MSG(n > 0, "pair has no paths");
    it->second.n_paths = static_cast<std::uint32_t>(n);
  }
  return it->second;
}

std::uint32_t path_table::find_slot(const pair_entry& e, std::uint32_t path) {
  const auto it = std::lower_bound(
      e.sparse.begin(), e.sparse.end(), path,
      [](const std::pair<std::uint32_t, std::uint32_t>& a, std::uint32_t p) {
        return a.first < p;
      });
  if (it == e.sparse.end() || it->first != path) return UINT32_MAX;
  return it->second;
}

void path_table::ensure_path(pair_entry& e, std::uint32_t src,
                             std::uint32_t dst, std::size_t path) {
  ensure_paths(e, src, dst, &path, 1);
}

void path_table::ensure_paths(pair_entry& e, std::uint32_t src,
                              std::uint32_t dst, const std::size_t* paths,
                              std::size_t count) {
  missing_scratch_.clear();
  for (std::size_t i = 0; i < count; ++i) {
    NDPSIM_ASSERT_MSG(paths[i] < e.n_paths, "path index out of range");
    if (e.dense()) continue;  // dense pairs have every path built
    if (find_slot(e, static_cast<std::uint32_t>(paths[i])) == UINT32_MAX) {
      missing_scratch_.push_back(paths[i]);
    }
  }
  if (missing_scratch_.empty()) return;

  const auto record = [this, &e](std::uint32_t path, route* fi, route* ri) {
    slots_.push_back(path_slot{fi, ri});
    const std::uint32_t si = static_cast<std::uint32_t>(slots_.size() - 1);
    const auto at = std::lower_bound(
        e.sparse.begin(), e.sparse.end(), path,
        [](const std::pair<std::uint32_t, std::uint32_t>& a, std::uint32_t p) {
          return a.first < p;
        });
    e.sparse.insert(at, {path, si});
    ++e.built;
    ++interned_;
  };

  // The slot sequences are interned once in the shared blueprint (one lock
  // for the whole batch; thread-safe across parallel jobs sharing it); this
  // env only creates two 32-byte route views per path over its own sink
  // table.  The demuxes must exist first so the terminal slots resolve.
  (void)demux(dst);
  (void)demux(src);
  views_scratch_.resize(missing_scratch_.size());
  topo_.blueprint()->structural_paths(src, dst, missing_scratch_.data(),
                                      missing_scratch_.size(),
                                      views_scratch_.data());
  packet_sink* const* table = topo_.sink_table();
  for (std::size_t i = 0; i < missing_scratch_.size(); ++i) {
    const auto& pv = views_scratch_[i];
    routes_.emplace_back(table, pv.fwd.slots, pv.fwd.n);
    route* fi = &routes_.back();
    routes_.emplace_back(table, pv.rev.slots, pv.rev.n);
    route* ri = &routes_.back();
    fi->set_reverse(ri);
    ri->set_reverse(fi);
    // The reverse-pointer lifetime contract (net/route.h): both directions
    // are co-interned and reciprocal, so neither can dangle while the table
    // lives.
    NDPSIM_ASSERT(fi->reverse()->reverse() == fi);
    NDPSIM_ASSERT(ri->reverse()->reverse() == ri);
    record(static_cast<std::uint32_t>(missing_scratch_[i]), fi, ri);
  }
}

path_set path_table::all(std::uint32_t src, std::uint32_t dst) {
  pair_entry& e = entry_for(src, dst);
  if (!e.dense()) {
    // Full-set request: build everything, convert the pair to dense arrays
    // (stable from here on — every path exists) and drop the sparse index.
    idx_scratch_.resize(e.n_paths);
    for (std::size_t p = 0; p < e.n_paths; ++p) idx_scratch_[p] = p;
    ensure_paths(e, src, dst, idx_scratch_.data(), idx_scratch_.size());
    e.dense_fwd.resize(e.n_paths);
    e.dense_rev.resize(e.n_paths);
    for (const auto& [path, si] : e.sparse) {
      e.dense_fwd[path] = slots_[si].fwd;
      e.dense_rev[path] = slots_[si].rev;
    }
    e.sparse.clear();
    e.sparse.shrink_to_fit();
  }
  return path_set{e.dense_fwd.data(), e.dense_rev.data(), e.n_paths,
                  &demux(src), &demux(dst)};
}

path_set path_table::sample(sim_env& env, std::uint32_t src, std::uint32_t dst,
                            std::size_t max_paths,
                            std::vector<const route*>& storage) {
  pair_entry& e = entry_for(src, dst);
  const std::size_t n = e.n_paths;
  if (max_paths == 0 || max_paths >= n) return all(src, dst);

  // Seeded random subset without replacement (partial Fisher-Yates): taking
  // the first `max_paths` indices instead would always prefer the low
  // core/agg switches and pile every capped flow onto them.
  std::vector<std::size_t>& idx = idx_scratch_;
  idx.resize(n);
  for (std::size_t i = 0; i < n; ++i) idx[i] = i;
  for (std::size_t i = 0; i < max_paths; ++i) {
    const std::size_t j = i + env.rand_below(n - i);
    std::swap(idx[i], idx[j]);
  }
  ensure_paths(e, src, dst, idx.data(), max_paths);

  storage.resize(2 * max_paths);
  for (std::size_t i = 0; i < max_paths; ++i) {
    const std::uint32_t p = static_cast<std::uint32_t>(idx[i]);
    if (e.dense()) {
      storage[i] = e.dense_fwd[p];
      storage[max_paths + i] = e.dense_rev[p];
    } else {
      const std::uint32_t si = find_slot(e, p);
      NDPSIM_ASSERT(si != UINT32_MAX);
      storage[i] = slots_[si].fwd;
      storage[max_paths + i] = slots_[si].rev;
    }
  }
  return path_set{storage.data(), storage.data() + max_paths,
                  static_cast<std::uint32_t>(max_paths), &demux(src),
                  &demux(dst)};
}

path_set path_table::single(std::uint32_t src, std::uint32_t dst,
                            std::size_t path) {
  pair_entry& e = entry_for(src, dst);
  ensure_path(e, src, dst, path);
  if (e.dense()) {
    return path_set{e.dense_fwd.data() + path, e.dense_rev.data() + path, 1,
                    &demux(src), &demux(dst)};
  }
  // The path_slot's two pointers are a valid 1-element view each (the slot
  // deque pins them for the table's lifetime).
  const std::uint32_t si = find_slot(e, static_cast<std::uint32_t>(path));
  NDPSIM_ASSERT(si != UINT32_MAX);
  path_slot& s = slots_[si];
  return path_set{&s.fwd, &s.rev, 1, &demux(src), &demux(dst)};
}

const route* path_table::forward(std::uint32_t src, std::uint32_t dst,
                                 std::size_t path) {
  pair_entry& e = entry_for(src, dst);
  ensure_path(e, src, dst, path);
  if (e.dense()) return e.dense_fwd[path];
  return slots_[find_slot(e, static_cast<std::uint32_t>(path))].fwd;
}

const route* path_table::reverse(std::uint32_t src, std::uint32_t dst,
                                 std::size_t path) {
  pair_entry& e = entry_for(src, dst);
  ensure_path(e, src, dst, path);
  if (e.dense()) return e.dense_rev[path];
  return slots_[find_slot(e, static_cast<std::uint32_t>(path))].rev;
}

std::size_t path_table::resident_bytes() const {
  std::size_t bytes = routes_.size() * sizeof(route) +
                      slots_.size() * sizeof(path_slot);
  for (const auto& [key, e] : pairs_) {
    (void)key;
    bytes += e.sparse.capacity() * sizeof(std::pair<std::uint32_t, std::uint32_t>);
    bytes += (e.dense_fwd.capacity() + e.dense_rev.capacity()) *
             sizeof(const route*);
  }
  return bytes;
}

}  // namespace ndpsim
