#include "topo/fabric_blueprint.h"

#include <algorithm>

namespace ndpsim {

namespace {
[[nodiscard]] std::uint64_t pair_key(std::uint32_t src, std::uint32_t dst) {
  return (static_cast<std::uint64_t>(src) << 32) | dst;
}
constexpr std::size_t kBlockSlots = 8192;

/// Link parameters of the micro testbeds: uniform, no PFC, no FatTree k.
[[nodiscard]] fat_tree_config micro_links(linkspeed_bps speed,
                                          simtime_t delay) {
  fat_tree_config cfg;
  cfg.k = 0;
  cfg.link_speed = speed;
  cfg.link_delay = delay;
  return cfg;
}
}  // namespace

std::shared_ptr<const fabric_blueprint> fabric_blueprint::fat_tree(
    fat_tree_config cfg) {
  NDPSIM_ASSERT_MSG(cfg.k >= 2 && cfg.k % 2 == 0, "k must be even and >= 2");
  NDPSIM_ASSERT(cfg.oversubscription >= 1);
  const unsigned half_k = cfg.k / 2;
  const unsigned pods = cfg.k;
  const unsigned hosts_per_tor = cfg.oversubscription * half_k;
  // make_shared needs a public ctor; the private ctor + explicit new keeps
  // construction behind the factories.
  return std::shared_ptr<const fabric_blueprint>(new fabric_blueprint(
      std::move(cfg), pods, half_k, half_k, hosts_per_tor));
}

std::shared_ptr<const fabric_blueprint> fabric_blueprint::leaf_spine(
    std::size_t n_leaf, std::size_t n_spine, std::size_t hosts_per_leaf,
    linkspeed_bps speed, simtime_t delay) {
  NDPSIM_ASSERT(n_leaf >= 1 && hosts_per_leaf >= 1);
  NDPSIM_ASSERT_MSG(n_spine >= 1 || n_leaf == 1, "leaves need a spine");
  return std::shared_ptr<const fabric_blueprint>(new fabric_blueprint(
      micro_links(speed, delay), 1, static_cast<unsigned>(n_leaf),
      static_cast<unsigned>(n_spine), static_cast<unsigned>(hosts_per_leaf)));
}

std::shared_ptr<const fabric_blueprint> fabric_blueprint::single_switch(
    std::size_t n_hosts, linkspeed_bps speed, simtime_t delay) {
  NDPSIM_ASSERT(n_hosts >= 2);
  return leaf_spine(1, 0, n_hosts, speed, delay);
}

std::shared_ptr<const fabric_blueprint> fabric_blueprint::back_to_back(
    linkspeed_bps speed, simtime_t delay) {
  // No ToR: both hosts sit at "ToR" 0, so they share one path, and that
  // path is the sender's NIC link alone.
  return std::shared_ptr<const fabric_blueprint>(
      new fabric_blueprint(micro_links(speed, delay), 1, 0, 0, 2));
}

fabric_blueprint::fabric_blueprint(fat_tree_config cfg, unsigned pods,
                                   unsigned tors_per_pod, unsigned aggs_per_pod,
                                   unsigned hosts_per_tor)
    : cfg_(std::move(cfg)),
      n_pods_(pods),
      tors_per_pod_(tors_per_pod),
      aggs_per_pod_(aggs_per_pod),
      hosts_per_tor_(hosts_per_tor) {
  n_tor_ = static_cast<std::size_t>(n_pods_) * tors_per_pod_;
  n_agg_ = static_cast<std::size_t>(n_pods_) * aggs_per_pod_;
  // A core layer joins the pods only when there is more than one.
  n_core_ =
      n_pods_ > 1 ? static_cast<std::size_t>(aggs_per_pod_) * tors_per_pod_ : 0;
  // Switchless (back-to-back): the hosts share the one ToR-less position.
  n_hosts_ = std::max<std::size_t>(n_tor_, 1) * hosts_per_tor_;

  const std::size_t n_links = n_hosts_ * 2 +               // host_up, tor_down
                              n_tor_ * aggs_per_pod_ * 2 +  // tor_up, agg_down
                              n_core_ * n_pods_ * 2;        // agg_up, core_down
  links_.reserve(n_links);

  // Levels in traversal order, each in its flat-index order, so
  // `queues_at(level)[index]` keeps its meaning.
  level_base_[static_cast<std::size_t>(link_level::host_up)] =
      static_cast<std::uint32_t>(links_.size());
  for (std::size_t h = 0; h < n_hosts_; ++h) {
    add_link(link_level::host_up, static_cast<std::uint32_t>(h));
  }
  level_base_[static_cast<std::size_t>(link_level::tor_up)] =
      static_cast<std::uint32_t>(links_.size());
  for (std::size_t t = 0; t < n_tor_; ++t) {
    for (unsigned j = 0; j < aggs_per_pod_; ++j) {
      add_link(link_level::tor_up,
               static_cast<std::uint32_t>(tor_up_index(t, j)));
    }
  }
  level_base_[static_cast<std::size_t>(link_level::agg_up)] =
      static_cast<std::uint32_t>(links_.size());
  if (n_core_ > 0) {
    for (unsigned p = 0; p < n_pods_; ++p) {
      for (unsigned j = 0; j < aggs_per_pod_; ++j) {
        for (unsigned m = 0; m < tors_per_pod_; ++m) {
          add_link(link_level::agg_up,
                   static_cast<std::uint32_t>(agg_up_index(p, j, m)));
        }
      }
    }
  }
  level_base_[static_cast<std::size_t>(link_level::core_down)] =
      static_cast<std::uint32_t>(links_.size());
  for (std::size_t c = 0; c < n_core_; ++c) {
    for (unsigned p = 0; p < n_pods_; ++p) {
      add_link(link_level::core_down,
               static_cast<std::uint32_t>(
                   core_down_index(static_cast<unsigned>(c), p)));
    }
  }
  level_base_[static_cast<std::size_t>(link_level::agg_down)] =
      static_cast<std::uint32_t>(links_.size());
  for (unsigned p = 0; p < n_pods_; ++p) {
    for (unsigned j = 0; j < aggs_per_pod_; ++j) {
      for (unsigned i = 0; i < tors_per_pod_; ++i) {
        add_link(link_level::agg_down,
                 static_cast<std::uint32_t>(agg_down_index(p, j, i)));
      }
    }
  }
  level_base_[static_cast<std::size_t>(link_level::tor_down)] =
      static_cast<std::uint32_t>(links_.size());
  for (std::size_t t = 0; t < n_tor_; ++t) {
    for (unsigned l = 0; l < hosts_per_tor_; ++l) {
      add_link(link_level::tor_down,
               static_cast<std::uint32_t>(t * hosts_per_tor_ + l));
    }
  }
  demux_base_ = next_slot_;
}

void fabric_blueprint::add_link(link_level level, std::uint32_t index) {
  link_record l;
  l.level = level;
  l.index = index;
  l.rate = cfg_.link_speed;
  if (cfg_.speed_override) {
    l.rate = cfg_.speed_override(level, index, l.rate);
  }
  l.delay = cfg_.link_delay;
  // PFC ingress accounting sits at the downstream end of every link except
  // ToR->host (endpoints consume at line rate), exactly as before.
  l.has_ingress = cfg_.pfc.enabled && level != link_level::tor_down;
  l.first_slot = next_slot_;
  next_slot_ += l.has_ingress ? 3 : 2;
  links_.push_back(l);
}

std::uint32_t fabric_blueprint::link_id(link_level level,
                                        std::size_t index) const {
  const std::uint32_t id =
      level_base_[static_cast<std::size_t>(level)] +
      static_cast<std::uint32_t>(index);
  NDPSIM_ASSERT_MSG(id < links_.size() && links_[id].level == level &&
                        links_[id].index == index,
                    "link index out of range");
  return id;
}

std::size_t fabric_blueprint::n_paths(std::uint32_t src,
                                      std::uint32_t dst) const {
  NDPSIM_ASSERT(src < n_hosts_ && dst < n_hosts_ && src != dst);
  if (tor_of(src) == tor_of(dst)) return 1;
  if (pod_of(src) == pod_of(dst)) return aggs_per_pod_;
  return n_core_;
}

std::string fabric_blueprint::format_name(std::uint32_t slot) const {
  NDPSIM_ASSERT_MSG(slot < n_slots(), "slot out of range");
  if (slot >= demux_base_) {
    return "demux" + std::to_string(slot - demux_base_);
  }
  // Binary search the link owning this slot (links are slot-ordered).
  const auto it = std::upper_bound(
      links_.begin(), links_.end(), slot,
      [](std::uint32_t s, const link_record& l) { return s < l.first_slot; });
  NDPSIM_ASSERT(it != links_.begin());
  const link_record& l = *(it - 1);
  const std::uint32_t idx = l.index;
  std::string base;
  switch (l.level) {
    case link_level::host_up:
      base = "hostup" + std::to_string(idx);
      break;
    case link_level::tor_up:
      base = "torup" + std::to_string(idx / aggs_per_pod_) + "." +
             std::to_string(idx % aggs_per_pod_);
      break;
    case link_level::agg_up:
    case link_level::agg_down:
      base = (l.level == link_level::agg_up ? "aggup" : "aggdn") +
             std::to_string(idx / (aggs_per_pod_ * tors_per_pod_)) + "." +
             std::to_string((idx / tors_per_pod_) % aggs_per_pod_) + "." +
             std::to_string(idx % tors_per_pod_);
      break;
    case link_level::core_down:
      base = "coredn" + std::to_string(idx / n_pods_) + "." +
             std::to_string(idx % n_pods_);
      break;
    case link_level::tor_down:
      base = "tordn" + std::to_string(idx / hosts_per_tor_) + "." +
             std::to_string(idx % hosts_per_tor_);
      break;
  }
  switch (slot - l.first_slot) {
    case 0: return base;
    case 1: return base + ".pipe";
    default: return base + ".pfc";
  }
}

void fabric_blueprint::append_link_slots(
    std::uint32_t link, std::vector<std::uint32_t>& out) const {
  const link_record& l = links_[link];
  out.push_back(l.first_slot);
  out.push_back(l.first_slot + 1);
  if (l.has_ingress) out.push_back(l.first_slot + 2);
}

void fabric_blueprint::build_path(std::uint32_t src, std::uint32_t dst,
                                  std::size_t path,
                                  std::vector<std::uint32_t>& out) const {
  NDPSIM_ASSERT(path < n_paths(src, dst));
  out.clear();
  append_link_slots(link_id(link_level::host_up, src), out);
  if (n_tor_ == 0) return;  // back-to-back: the NIC wire ends at the peer
  const std::uint32_t ts = tor_of(src);
  const std::uint32_t td = tor_of(dst);
  const std::uint32_t tor_down = link_id(
      link_level::tor_down,
      static_cast<std::size_t>(td) * hosts_per_tor_ + dst % hosts_per_tor_);
  if (ts == td) {
    append_link_slots(tor_down, out);
    return;
  }
  const unsigned ps = pod_of(src);
  const unsigned pd = pod_of(dst);
  const unsigned id = td % tors_per_pod_;
  if (ps == pd) {
    // Intra-pod: the path index selects the aggregation switch.
    const unsigned j = static_cast<unsigned>(path);
    append_link_slots(link_id(link_level::tor_up, tor_up_index(ts, j)), out);
    append_link_slots(link_id(link_level::agg_down, agg_down_index(ps, j, id)),
                      out);
    append_link_slots(tor_down, out);
    return;
  }
  // Inter-pod: the path index selects the core switch; the core determines
  // the aggregation switch (j = core / tors-per-pod) in both pods.
  const unsigned core = static_cast<unsigned>(path);
  const unsigned j = core / tors_per_pod_;
  const unsigned m = core % tors_per_pod_;
  append_link_slots(link_id(link_level::tor_up, tor_up_index(ts, j)), out);
  append_link_slots(link_id(link_level::agg_up, agg_up_index(ps, j, m)), out);
  append_link_slots(link_id(link_level::core_down, core_down_index(core, pd)),
                    out);
  append_link_slots(link_id(link_level::agg_down, agg_down_index(pd, j, id)),
                    out);
  append_link_slots(tor_down, out);
}

const std::uint32_t* fabric_blueprint::intern_slots(
    const std::vector<std::uint32_t>& seq) const {
  if (block_used_ + seq.size() > block_cap_) {
    block_cap_ = std::max(kBlockSlots, seq.size());
    block_used_ = 0;
    blocks_.push_back(std::make_unique<std::uint32_t[]>(block_cap_));
  }
  std::uint32_t* span = blocks_.back().get() + block_used_;
  std::copy(seq.begin(), seq.end(), span);
  block_used_ += seq.size();
  slots_total_ += seq.size();
  return span;
}

void fabric_blueprint::structural_paths(std::uint32_t src, std::uint32_t dst,
                                        const std::size_t* paths,
                                        std::size_t count,
                                        structural_pair_view* out) const {
  std::lock_guard<std::mutex> lock(paths_mu_);
  pair_entry& pe = pairs_[pair_key(src, dst)];
  const std::size_t limit = n_paths(src, dst);
  std::vector<std::uint32_t> seq;  // reused across the batch
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t path = paths[i];
    NDPSIM_ASSERT_MSG(path < limit, "path index out of range");
    const path_entry* found = nullptr;
    for (const path_entry& e : pe.paths) {
      if (e.path == path) {
        found = &e;
        break;
      }
    }
    if (found == nullptr) {
      path_entry e;
      e.path = static_cast<std::uint32_t>(path);
      build_path(src, dst, path, seq);
      seq.push_back(demux_slot(dst));
      e.fwd =
          slot_span{intern_slots(seq), static_cast<std::uint32_t>(seq.size())};
      build_path(dst, src, path, seq);
      seq.push_back(demux_slot(src));
      e.rev =
          slot_span{intern_slots(seq), static_cast<std::uint32_t>(seq.size())};
      ++interned_;
      found = &pe.paths.emplace_back(e);
    }
    out[i] = structural_pair_view{found->fwd, found->rev};
  }
}

std::size_t fabric_blueprint::interned_paths() const {
  std::lock_guard<std::mutex> lock(paths_mu_);
  return interned_;
}

std::size_t fabric_blueprint::resident_bytes() const {
  std::lock_guard<std::mutex> lock(paths_mu_);
  std::size_t bytes = links_.capacity() * sizeof(link_record) +
                      slots_total_ * sizeof(std::uint32_t);
  bytes += pairs_.size() * (sizeof(std::uint64_t) + sizeof(pair_entry));
  for (const auto& [key, e] : pairs_) {
    (void)key;
    bytes += e.paths.capacity() * sizeof(path_entry);
  }
  return bytes;
}

}  // namespace ndpsim
