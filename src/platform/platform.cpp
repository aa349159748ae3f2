#include "platform/platform.hpp"

#include <algorithm>
#include <functional>
#include <limits>

#include "xbt/exception.hpp"
#include "xbt/str.hpp"

namespace sg::platform {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Fibonacci-style mix: pair keys are (src << 32 | dst), so the raw value is
/// far too structured for the linear-probing table's power-of-2 mask.
inline size_t route_hash(std::uint64_t key) {
  return static_cast<size_t>((key ^ (key >> 29)) * 0x9E3779B97F4A7C15ull >> 16);
}

/// FNV-1a over a link sequence, for the segment dedup index.
inline std::uint64_t seg_content_hash(const LinkId* links, size_t n) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (size_t i = 0; i < n; ++i) {
    h ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(links[i]));
    h *= 0x100000001B3ull;
  }
  return h;
}

void check_link_spec(const LinkSpec& spec) {
  if (spec.bandwidth_Bps <= 0)
    throw xbt::InvalidArgument("link " + spec.name + ": bandwidth must be positive");
  if (spec.latency_s < 0)
    throw xbt::InvalidArgument("link " + spec.name + ": latency must be non-negative");
}
}  // namespace

// ---------------------------------------------------------------------------
// Resolved-route index (open addressing, RouteRefs stored inline)
// ---------------------------------------------------------------------------

const RouteRef* Platform::route_find(std::uint64_t key) const {
  if (route_keys_.empty())
    return nullptr;
  const size_t mask = route_keys_.size() - 1;
  for (size_t i = route_hash(key) & mask;; i = (i + 1) & mask) {
    if (route_keys_[i] == key)
      return &route_refs_[i];
    if (route_keys_[i] == kEmptyKey)
      return nullptr;
  }
}

void Platform::route_index_grow() const {
  const size_t new_cap = route_keys_.empty() ? 64 : route_keys_.size() * 2;
  std::vector<std::uint64_t> old_keys = std::move(route_keys_);
  std::vector<RouteRef> old_refs = std::move(route_refs_);
  route_keys_.assign(new_cap, kEmptyKey);
  route_refs_.assign(new_cap, RouteRef{});
  const size_t mask = new_cap - 1;
  for (size_t i = 0; i < old_keys.size(); ++i) {
    if (old_keys[i] == kEmptyKey)
      continue;
    size_t j = route_hash(old_keys[i]) & mask;
    while (route_keys_[j] != kEmptyKey)
      j = (j + 1) & mask;
    route_keys_[j] = old_keys[i];
    route_refs_[j] = old_refs[i];
  }
}

RouteRef& Platform::route_slot(std::uint64_t key) const {
  // Grow at 70% load so probe runs stay short.
  if (route_keys_.empty() || route_count_ * 10 >= route_keys_.size() * 7)
    route_index_grow();
  const size_t mask = route_keys_.size() - 1;
  size_t i = route_hash(key) & mask;
  while (route_keys_[i] != kEmptyKey && route_keys_[i] != key)
    i = (i + 1) & mask;
  if (route_keys_[i] != key) {
    route_keys_[i] = key;
    ++route_count_;
  }
  return route_refs_[i];
}

// ---------------------------------------------------------------------------
// Interned segment arena
// ---------------------------------------------------------------------------

SegId Platform::append_segment(const LinkId* links, size_t n) const {
  SegRec rec;
  rec.off = static_cast<std::uint32_t>(seg_links_.size());
  rec.len = static_cast<std::uint32_t>(n);
  for (size_t i = 0; i < n; ++i) {
    seg_links_.push_back(links[i]);
    rec.latency += links_[static_cast<size_t>(links[i])].latency_s;
  }
  segs_.push_back(rec);
  return static_cast<SegId>(segs_.size() - 1);
}

SegId Platform::intern_segment(const LinkId* links, size_t n) const {
  const std::uint64_t h = seg_content_hash(links, n);
  auto& candidates = seg_dedup_[h];
  for (SegId s : candidates) {
    const SegRec& rec = segs_[static_cast<size_t>(s)];
    if (rec.len == n &&
        std::equal(links, links + n, seg_links_.begin() + rec.off))
      return s;
  }
  const SegId s = append_segment(links, n);
  candidates.push_back(s);
  return s;
}

RouteView Platform::make_view(const RouteRef& ref) const {
  RouteView v;
  v.latency_ = ref.latency;
  const SegId parts[3] = {ref.up, ref.mid, ref.down};
  for (int i = 0; i < 3; ++i) {
    if (parts[i] == kNoSeg)
      continue;
    const SegRec& rec = segs_[static_cast<size_t>(parts[i])];
    v.spans_[i].b = seg_links_.data() + rec.off;
    v.spans_[i].n = rec.len;
  }
  return v;
}

// ---------------------------------------------------------------------------
// Construction
// ---------------------------------------------------------------------------

NodeId Platform::push_host(const HostSpec& spec) {
  const NodeId id = static_cast<NodeId>(node_names_.size());
  node_names_.push_back(spec.name);
  nodes_.push_back({true, static_cast<int>(hosts_.size())});
  hosts_.push_back(spec);
  host_nodes_.push_back(id);
  host_zone_.push_back({});
  host_present_.push_back(1);
  host_departed_at_.push_back(0.0);
  return id;
}

LinkId Platform::push_link(const LinkSpec& spec) {
  links_.push_back(spec);
  return static_cast<LinkId>(links_.size() - 1);
}

void Platform::claim_node_name(const std::string& name) {
  if (!node_index_.insert(name, static_cast<NodeId>(node_names_.size()), node_name_of()))
    throw xbt::InvalidArgument("duplicate node name: " + name);
}

void Platform::claim_link_name(const std::string& name) {
  if (!link_index_.insert(name, static_cast<LinkId>(links_.size()), link_name_of()))
    throw xbt::InvalidArgument("duplicate link name: " + name);
}

void Platform::claim_host_names(const std::string& host, const std::string& link) {
  // The link name is looked up first, so a taken one leaves the host name free.
  check_names_free("", link);
  claim_node_name(host);
  claim_link_name(link);
}

void Platform::check_names_free(const std::string& node, const std::string& link) const {
  if (!link.empty() && link_index_.find(link, link_name_of()) >= 0)
    throw xbt::InvalidArgument("duplicate link name: " + link);
  if (!node.empty() && node_index_.find(node, node_name_of()) >= 0)
    throw xbt::InvalidArgument("duplicate node name: " + node);
}

NodeId Platform::add_host(const HostSpec& spec) {
  if (sealed_)
    throw xbt::InvalidArgument("platform is sealed");
  claim_node_name(spec.name);
  return push_host(spec);
}

NodeId Platform::add_host(const std::string& name, double speed_flops) {
  HostSpec spec;
  spec.name = name;
  spec.speed_flops = speed_flops;
  return add_host(spec);
}

NodeId Platform::add_router(const std::string& name) {
  if (sealed_)
    throw xbt::InvalidArgument("platform is sealed");
  const NodeId id = static_cast<NodeId>(node_names_.size());
  claim_node_name(name);
  node_names_.push_back(name);
  nodes_.push_back({false, -1});
  return id;
}

LinkId Platform::add_link(const LinkSpec& spec) {
  if (sealed_)
    throw xbt::InvalidArgument("platform is sealed");
  check_link_spec(spec);
  claim_link_name(spec.name);
  return push_link(spec);
}

LinkId Platform::add_link(const std::string& name, double bandwidth_Bps, double latency_s, SharingPolicy policy) {
  LinkSpec spec;
  spec.name = name;
  spec.bandwidth_Bps = bandwidth_Bps;
  spec.latency_s = latency_s;
  spec.policy = policy;
  return add_link(spec);
}

void Platform::add_edge(NodeId a, NodeId b, LinkId link) {
  if (sealed_)
    throw xbt::InvalidArgument("platform is sealed");
  if (a < 0 || b < 0 || static_cast<size_t>(a) >= nodes_.size() || static_cast<size_t>(b) >= nodes_.size())
    throw xbt::InvalidArgument("add_edge: bad node id");
  if (link < 0 || static_cast<size_t>(link) >= links_.size())
    throw xbt::InvalidArgument("add_edge: bad link id");
  check_attachable(a, "add_edge");
  check_attachable(b, "add_edge");
  edges_.push_back({a, b, link});
}

void Platform::check_attachable(NodeId node, const char* what) const {
  // O(1) composition assumes every path into or out of a cluster crosses its
  // gateway: reject edges that would splice into a cluster's interior.
  auto refuse = [&](const char* role, const ZoneRec& z) {
    throw xbt::InvalidArgument(std::string(what) + ": " + node_names_[static_cast<size_t>(node)] + " is " +
                               role + " of cluster zone " + z.name + "; attach through the zone gateway instead");
  };
  const NodeRec& rec = nodes_[static_cast<size_t>(node)];
  if (rec.host) {
    if (const ZoneRec* z = cluster_of(rec.host_index))
      refuse("a member", *z);
    return;
  }
  // A hub that doubles as the gateway (no backbone) IS the attach point.
  for (const ZoneRec& z : zones_)
    if (z.hub == node && z.gateway != node)
      refuse("the hub", z);
}

void Platform::add_route(NodeId src, NodeId dst, std::vector<LinkId> links, bool symmetric) {
  if (!is_host(src) || !is_host(dst))
    throw xbt::InvalidArgument("add_route: endpoints must be hosts");
  for (LinkId l : links)
    if (l < 0 || static_cast<size_t>(l) >= links_.size())
      throw xbt::InvalidArgument("add_route: bad link id");
  const int s = host_index(src);
  const int d = host_index(dst);
  const SegId seg = links.empty() ? kNoSeg : intern_segment(links.data(), links.size());
  const double lat = seg == kNoSeg ? 0.0 : segs_[static_cast<size_t>(seg)].latency;
  route_slot(pair_key(s, d)) = RouteRef{kNoSeg, seg, kNoSeg, lat};
  explicit_routes_.push_back({s, d, RouteRef{kNoSeg, seg, kNoSeg, lat}});
  if (symmetric) {
    std::vector<LinkId> rev(links.rbegin(), links.rend());
    const SegId rseg = rev.empty() ? kNoSeg : intern_segment(rev.data(), rev.size());
    route_slot(pair_key(d, s)) = RouteRef{kNoSeg, rseg, kNoSeg, lat};
    explicit_routes_.push_back({d, s, RouteRef{kNoSeg, rseg, kNoSeg, lat}});
  }
}

// ---------------------------------------------------------------------------
// Zones
// ---------------------------------------------------------------------------

ZoneId Platform::add_cluster_zone(const ClusterZoneSpec& spec) {
  if (sealed_)
    throw xbt::InvalidArgument("platform is sealed");
  if (spec.count <= 0)
    throw xbt::InvalidArgument("cluster zone " + spec.name + ": count must be positive");
  for (const ZoneRec& z : zones_)
    if (z.name == spec.name)
      throw xbt::InvalidArgument("duplicate zone name: " + spec.name);

  // All or nothing: every name and link spec is checked before anything
  // exists, so a refused zone leaves no hub or member behind.
  const bool has_backbone = spec.backbone_bandwidth > 0;
  LinkSpec bb;
  bb.name = spec.name + "-backbone";
  bb.bandwidth_Bps = spec.backbone_bandwidth;
  bb.latency_s = spec.backbone_latency;
  bb.policy = spec.backbone_fatpipe ? SharingPolicy::kFatpipe : SharingPolicy::kShared;
  const std::string& prefix = spec.host_prefix.empty() ? spec.name : spec.host_prefix;
  LinkSpec member_link;
  member_link.name = prefix + "0-link";
  member_link.bandwidth_Bps = spec.link_bandwidth;
  member_link.latency_s = spec.link_latency;
  check_link_spec(member_link);
  check_names_free(spec.name + "-switch", "");
  if (has_backbone) {
    check_link_spec(bb);
    check_names_free(spec.name + "-out", bb.name);
  }
  std::vector<std::string> members(static_cast<size_t>(spec.count));
  for (int m = 0; m < spec.count; ++m) {
    members[static_cast<size_t>(m)] = xbt::format("%s%d", prefix.c_str(), m);
    check_names_free(members[static_cast<size_t>(m)], members[static_cast<size_t>(m)] + "-link");
  }

  ZoneRec zone;
  zone.name = spec.name;
  zone.kind = ZoneKind::kCluster;
  zone.spec = spec;
  zone.up_latency = spec.link_latency;
  const ZoneId zid = static_cast<ZoneId>(zones_.size());

  const NodeId hub = add_router(spec.name + "-switch");
  zone.hub = hub;
  if (has_backbone) {
    zone.gateway = add_router(spec.name + "-out");
    zone.backbone = add_link(bb);
    zone.backbone_latency = spec.backbone_latency;
    edges_.push_back({hub, zone.gateway, zone.backbone});
  } else {
    zone.gateway = hub;
  }

  zone.first_host = static_cast<int>(hosts_.size());
  zones_.push_back(std::move(zone));
  // Hosts, private links, edges — names and declaration order match the
  // historical make_cluster() exactly, so flat-graph twins are comparable
  // link-id for link-id.
  for (const std::string& name : members)
    add_member(zid, name, spec.host_speed);
  return zid;
}

int Platform::add_member(ZoneId zone, const std::string& name, double speed_flops) {
  ZoneRec& z = zones_[static_cast<size_t>(zone)];
  HostSpec hs;
  hs.name = name;
  hs.speed_flops = speed_flops;
  LinkSpec ls;
  ls.name = name + "-link";
  ls.bandwidth_Bps = z.spec.link_bandwidth;
  ls.latency_s = z.spec.link_latency;
  check_link_spec(ls);
  claim_host_names(hs.name, ls.name);
  const NodeId hnode = push_host(hs);
  const LinkId up = push_link(ls);
  edges_.push_back({hnode, z.hub, up});
  const size_t h = static_cast<size_t>(nodes_[static_cast<size_t>(hnode)].host_index);
  // Route pieces: [up], then [up, backbone] and [backbone, up] right after it.
  host_zone_[h] = {zone, append_segment(&up, 1)};
  if (z.backbone >= 0) {
    const LinkId out[2] = {up, z.backbone};
    append_segment(out, 2);
    const LinkId in[2] = {z.backbone, up};
    append_segment(in, 2);
  }
  ++z.count;
  return static_cast<int>(h);
}

ZoneId Platform::add_graph_zone(const std::string& name, NodeId gateway) {
  if (sealed_)
    throw xbt::InvalidArgument("platform is sealed");
  if (gateway < 0 || static_cast<size_t>(gateway) >= nodes_.size())
    throw xbt::InvalidArgument("add_graph_zone: bad gateway node");
  for (const ZoneRec& z : zones_)
    if (z.name == name)
      throw xbt::InvalidArgument("duplicate zone name: " + name);
  ZoneRec zone;
  zone.name = name;
  zone.kind = ZoneKind::kDijkstra;
  zone.gateway = gateway;
  zones_.push_back(std::move(zone));
  return static_cast<ZoneId>(zones_.size() - 1);
}

void Platform::zone_add_host(ZoneId zone, int host_index) {
  check_host_index(host_index, "zone_add_host");
  if (zone_rec(zone, "zone_add_host").kind == ZoneKind::kCluster)
    throw xbt::InvalidArgument("zone_add_host: cluster zones own their members");
  if (host_zone_[static_cast<size_t>(host_index)].zone >= 0)
    throw xbt::InvalidArgument("zone_add_host: " + hosts_[static_cast<size_t>(host_index)].name +
                               " already belongs to a zone");
  host_zone_[static_cast<size_t>(host_index)].zone = zone;
  ++zones_[static_cast<size_t>(zone)].count;
}

std::optional<ZoneId> Platform::zone_by_name(const std::string& name) const {
  for (size_t z = 0; z < zones_.size(); ++z)
    if (zones_[z].name == name)
      return static_cast<ZoneId>(z);
  return std::nullopt;
}

const ClusterZoneSpec& Platform::cluster_zone_spec(ZoneId zone) const {
  const ZoneRec& z = zone_rec(zone, "cluster_zone_spec");
  if (z.kind != ZoneKind::kCluster)
    throw xbt::InvalidArgument("zone " + z.name + " is not a cluster zone");
  return z.spec;
}

// ---------------------------------------------------------------------------
// Lookup
// ---------------------------------------------------------------------------

bool Platform::is_host(NodeId node) const {
  return node >= 0 && static_cast<size_t>(node) < nodes_.size() && nodes_[static_cast<size_t>(node)].host;
}

int Platform::host_index(NodeId node) const {
  if (!is_host(node))
    throw xbt::InvalidArgument("node is not a host: " + std::to_string(node));
  return nodes_[static_cast<size_t>(node)].host_index;
}

NodeId Platform::host_node(int host_index) const {
  check_host_index(host_index, "host_node");
  return host_nodes_[static_cast<size_t>(host_index)];
}

std::optional<NodeId> Platform::node_by_name(const std::string& name) const {
  const NodeId id = node_index_.find(name, node_name_of());
  if (id < 0)
    return std::nullopt;
  return id;
}

std::optional<int> Platform::host_by_name(const std::string& name) const {
  auto node = node_by_name(name);
  if (!node || !is_host(*node))
    return std::nullopt;
  return host_index(*node);
}

std::optional<LinkId> Platform::link_by_name(const std::string& name) const {
  const LinkId id = link_index_.find(name, link_name_of());
  if (id < 0)
    return std::nullopt;
  return id;
}

void Platform::seal() {
  if (sealed_)
    return;
  adj_.assign(nodes_.size(), {});
  link_degree_.assign(links_.size(), 0);
  for (const Edge& e : edges_) {
    adj_[static_cast<size_t>(e.a)].push_back({e.b, e.link});
    adj_[static_cast<size_t>(e.b)].push_back({e.a, e.link});
    ++link_degree_[static_cast<size_t>(e.link)];
  }
  // SSSP-tree LRU capacity: a fixed floor, raised with the platform size so
  // that many concurrently active sources (each tree is O(nodes)) do not
  // evict each other in a thrash loop.
  sssp_cache_cap_ = std::max(kSsspCacheFloor, hosts_.size() / 16);
  sealed_ = true;
}

// ---------------------------------------------------------------------------
// Dynamic membership
// ---------------------------------------------------------------------------

int Platform::join_host(ZoneId zone, const std::string& name, double speed_flops) {
  if (!sealed_)
    throw xbt::InvalidArgument("join_host: platform must be sealed (use add_* before seal())");
  zone_rec(zone, "join_host");
  ZoneRec& z = zones_[static_cast<size_t>(zone)];
  if (z.kind != ZoneKind::kCluster)
    throw xbt::InvalidArgument("join_host: zone " + z.name +
                               " is not a cluster zone (graph hosts use the attach overload)");
  // Number by members ever created, plus the generated names refused as
  // taken: departure does not free a name, and a refusal moves past it.
  std::string member = name;
  if (name.empty()) {
    const std::string& prefix = z.spec.host_prefix.empty() ? z.spec.name : z.spec.host_prefix;
    member = xbt::format("%s%d", prefix.c_str(), z.count + z.names_skipped);
    try {
      check_names_free(member, member + "-link");
    } catch (const xbt::InvalidArgument&) {
      ++z.names_skipped;
      throw;
    }
  }
  const int h = add_member(zone, member, speed_flops > 0 ? speed_flops : z.spec.host_speed);
  splice_leaf_edge();
  return h;
}

int Platform::join_host(const HostSpec& spec, NodeId attach, const LinkSpec& uplink) {
  if (!sealed_)
    throw xbt::InvalidArgument("join_host: platform must be sealed (use add_* before seal())");
  if (attach < 0 || static_cast<size_t>(attach) >= nodes_.size())
    throw xbt::InvalidArgument("join_host: bad attach node id");
  check_attachable(attach, "join_host");
  check_link_spec(uplink);
  claim_host_names(spec.name, uplink.name);
  const NodeId hnode = push_host(spec);
  edges_.push_back({hnode, attach, push_link(uplink)});
  splice_leaf_edge();
  return nodes_[static_cast<size_t>(hnode)].host_index;
}

void Platform::splice_leaf_edge() {
  // O(affected), no re-seal: the leaf's one edge joins the adjacency, and
  // every cached tree learns the new node.
  const Edge e = edges_.back();
  adj_.resize(nodes_.size());
  adj_[static_cast<size_t>(e.a)].push_back({e.b, e.link});
  adj_[static_cast<size_t>(e.b)].push_back({e.a, e.link});
  link_degree_.push_back(1);
  extend_sssp_trees(e.b, e.link);
}

void Platform::leave_host(int host_index, double at) {
  check_host_index(host_index, "leave_host");
  if (!sealed_)
    throw xbt::InvalidArgument("leave_host: platform must be sealed");
  if (!host_present_[static_cast<size_t>(host_index)])
    throw xbt::InvalidArgument("leave_host: host " + hosts_[static_cast<size_t>(host_index)].name +
                               " already departed at t=" +
                               xbt::format("%g", host_departed_at_[static_cast<size_t>(host_index)]));
  const bool transit =
      adj_[static_cast<size_t>(host_nodes_[static_cast<size_t>(host_index)])].size() > 1;
  host_present_[static_cast<size_t>(host_index)] = 0;
  host_departed_at_[static_cast<size_t>(host_index)] = at;
  ++departed_count_;
  // Leaf hosts (cluster members, joined hosts) transit nothing: presence
  // gating alone keeps every cache truthful, so departure is O(1). Only a
  // transit-capable node invalidates paths that ran through it.
  if (transit)
    flush_transit_caches();
}

void Platform::rejoin_host(int host_index) {
  check_host_index(host_index, "rejoin_host");
  if (!sealed_)
    throw xbt::InvalidArgument("rejoin_host: platform must be sealed");
  if (host_present_[static_cast<size_t>(host_index)])
    throw xbt::InvalidArgument("rejoin_host: host " + hosts_[static_cast<size_t>(host_index)].name +
                               " is already present");
  host_present_[static_cast<size_t>(host_index)] = 1;
  --departed_count_;
  // A returning transit node may offer better paths than the detour the
  // caches learned while it was away; leaf returns change no path.
  if (adj_[static_cast<size_t>(host_nodes_[static_cast<size_t>(host_index)])].size() > 1)
    flush_transit_caches();
}

std::vector<LinkId> Platform::host_private_links(int host_index) const {
  check_host_index(host_index, "host_private_links");
  std::vector<LinkId> out;
  if (!sealed_)
    return out;
  for (auto [peer, l] : adj_[static_cast<size_t>(host_nodes_[static_cast<size_t>(host_index)])]) {
    (void)peer;
    if (link_degree_[static_cast<size_t>(l)] == 1)
      out.push_back(l);
  }
  return out;
}

void Platform::extend_sssp_trees(NodeId attach, LinkId uplink) const {
  // The joined host is a leaf: the only way in is through `attach`. A tree
  // that settled `attach` already ran its relaxation, so it relaxes the new
  // arc here, as a resumed search would have; any other tree reaches the
  // leaf through adj_ once it settles `attach`. O(cached trees) total.
  const double w = links_[static_cast<size_t>(uplink)].latency_s + 1e-9;
  const size_t a = static_cast<size_t>(attach);
  for (auto& [src, tree] : sssp_cache_) {
    (void)src;
    const bool through = tree.settled[a] && relays(tree, attach);
    tree.dist.push_back(through ? tree.dist[a] + w : kInf);
    tree.prev_node.push_back(through ? attach : -1);
    tree.prev_link.push_back(through ? uplink : -1);
    tree.settled.push_back(false);
    if (through) {
      tree.frontier.push_back({tree.dist.back(), static_cast<NodeId>(tree.dist.size() - 1)});
      std::push_heap(tree.frontier.begin(), tree.frontier.end(), std::greater<>());
    }
  }
}

void Platform::flush_transit_caches() const {
  sssp_cache_.clear();
  node_pair_segs_.clear();
  route_keys_.clear();
  route_refs_.clear();
  route_count_ = 0;
  for (const ExplicitRoute& r : explicit_routes_)
    route_slot(pair_key(r.src, r.dst)) = r.ref;
}

void Platform::check_host_index(int host_index, const char* what) const {
  if (host_index < 0 || static_cast<size_t>(host_index) >= hosts_.size())
    throw xbt::InvalidArgument(std::string(what) + ": host index " + std::to_string(host_index) +
                               " out of range (platform has " + std::to_string(hosts_.size()) + " hosts)");
}

const Platform::ZoneRec& Platform::zone_rec(ZoneId zone, const char* what) const {
  if (zone < 0 || static_cast<size_t>(zone) >= zones_.size())
    throw xbt::InvalidArgument(std::string(what) + ": zone id " + std::to_string(zone) +
                               " out of range (platform has " + std::to_string(zones_.size()) + " zones)");
  return zones_[static_cast<size_t>(zone)];
}

void Platform::check_host_present(int host_index, const char* what) const {
  if (host_present_[static_cast<size_t>(host_index)])
    return;
  throw xbt::InvalidArgument(std::string(what) + ": host " +
                             hosts_[static_cast<size_t>(host_index)].name + " departed at t=" +
                             xbt::format("%g", host_departed_at_[static_cast<size_t>(host_index)]) +
                             " (rejoin_host() restores it)");
}

void Platform::throw_no_route(int src_host, int dst_host) const {
  throw xbt::InvalidArgument("no route between " + hosts_[static_cast<size_t>(src_host)].name + " and " +
                             hosts_[static_cast<size_t>(dst_host)].name +
                             ": hosts are in disconnected components");
}

// ---------------------------------------------------------------------------
// Routing
// ---------------------------------------------------------------------------

const Platform::SsspTree& Platform::sssp_from(NodeId src, NodeId target) const {
  auto slot = sssp_cache_.find(src);
  if (slot == sssp_cache_.end()) {
    if (sssp_cache_.size() >= sssp_cache_cap_) {
      // Evict the least recently used tree and re-key its map node, so the
      // new tree reuses its buffers. The O(cap) scan only runs on a miss.
      auto lru = sssp_cache_.begin();
      for (auto it = std::next(lru); it != sssp_cache_.end(); ++it)
        if (it->second.last_used < lru->second.last_used)
          lru = it;
      auto node = sssp_cache_.extract(lru);
      node.key() = src;
      slot = sssp_cache_.insert(std::move(node)).position;
    } else {
      slot = sssp_cache_.try_emplace(src).first;
    }
    SsspTree& fresh = slot->second;
    const size_t n_nodes = nodes_.size();
    fresh.src = src;
    fresh.dist.assign(n_nodes, kInf);
    fresh.prev_node.assign(n_nodes, -1);
    fresh.prev_link.assign(n_nodes, -1);
    fresh.settled.assign(n_nodes, false);
    fresh.frontier.clear();
    fresh.dist[static_cast<size_t>(src)] = 0.0;
    fresh.frontier.push_back({0.0, src});
  }
  SsspTree& tree = slot->second;
  tree.last_used = ++sssp_tick_;  // O(1) LRU refresh

  // Resume the paused search. The frontier keeps its (dist, id) min order
  // across pauses, so nodes settle in exactly the order of one full run and
  // every prev_* entry matches it.
  auto& frontier = tree.frontier;
  while (!tree.settled[static_cast<size_t>(target)] && !frontier.empty()) {
    std::pop_heap(frontier.begin(), frontier.end(), std::greater<>());
    const NodeId u = frontier.back().second;
    frontier.pop_back();
    if (tree.settled[static_cast<size_t>(u)])
      continue;  // stale entry: u settled through a shorter one
    tree.settled[static_cast<size_t>(u)] = true;
    ++sssp_settled_;
    // Departed hosts can still be reached (as endpoints) but never relayed
    // through; the source itself is exempt so presence stays the caller's
    // check, not a routing property.
    if (!relays(tree, u))
      continue;
    for (auto [v, l] : adj_[static_cast<size_t>(u)]) {
      // Metric: latency, with a tiny per-hop epsilon so zero-latency LANs
      // still prefer fewer hops; ties implicitly favour first-declared edges.
      const double w = links_[static_cast<size_t>(l)].latency_s + 1e-9;
      if (tree.dist[static_cast<size_t>(u)] + w < tree.dist[static_cast<size_t>(v)]) {
        tree.dist[static_cast<size_t>(v)] = tree.dist[static_cast<size_t>(u)] + w;
        tree.prev_node[static_cast<size_t>(v)] = u;
        tree.prev_link[static_cast<size_t>(v)] = l;
        frontier.push_back({tree.dist[static_cast<size_t>(v)], v});
        std::push_heap(frontier.begin(), frontier.end(), std::greater<>());
      }
    }
  }
  return tree;
}

bool Platform::tree_path(NodeId from, NodeId to, SegId* seg) const {
  const SsspTree& tree = sssp_from(from, to);
  if (!tree.settled[static_cast<size_t>(to)])
    return false;
  std::vector<LinkId> path;
  for (NodeId v = to; v != from; v = tree.prev_node[static_cast<size_t>(v)])
    path.push_back(tree.prev_link[static_cast<size_t>(v)]);
  std::reverse(path.begin(), path.end());
  *seg = intern_segment(path.data(), path.size());
  return true;
}

bool Platform::node_path_segment(NodeId from, NodeId to, SegId* seg) const {
  if (from == to) {
    *seg = kNoSeg;
    return true;
  }
  const std::uint64_t key = pair_key(from, to);
  auto hit = node_pair_segs_.find(key);
  if (hit != node_pair_segs_.end()) {
    *seg = hit->second;
    return true;
  }
  if (!tree_path(from, to, seg))
    return false;
  node_pair_segs_.emplace(key, *seg);
  return true;
}

bool Platform::compose_zone_route(int src_host, int dst_host, RouteRef* out) const {
  const ZoneRec* src_zone = cluster_of(src_host);
  const ZoneRec* dst_zone = cluster_of(dst_host);
  if (src_zone == nullptr && dst_zone == nullptr)
    return false;  // no cluster rule applies: plain graph resolution

  const SegId src_up = host_zone_[static_cast<size_t>(src_host)].up;
  const SegId dst_up = host_zone_[static_cast<size_t>(dst_host)].up;
  if (src_zone != nullptr && src_zone == dst_zone) {
    // Intra-cluster: up(i) through the hub to up(j). O(1), no Dijkstra, no
    // per-pair state — this is the 99% path of a cluster workload.
    *out = RouteRef{src_up, kNoSeg, dst_up, 2 * src_zone->up_latency};
    return true;
  }

  // Leaving and/or entering a cluster: member -> gateway, gateway -> gateway
  // through the flat graph (memoized per endpoint node pair — all members
  // of a cluster share their gateway's entries, so this never scales with
  // member pairs), gateway -> member.
  RouteRef ref;
  if (src_zone != nullptr) {
    ref.up = src_zone->backbone >= 0 ? src_up + 1 : src_up;
    ref.latency += src_zone->up_latency + src_zone->backbone_latency;
  }
  if (dst_zone != nullptr) {
    ref.down = dst_zone->backbone >= 0 ? dst_up + 2 : dst_up;
    ref.latency += dst_zone->up_latency + dst_zone->backbone_latency;
  }
  if (!node_path_segment(graph_endpoint(src_host), graph_endpoint(dst_host), &ref.mid))
    throw_no_route(src_host, dst_host);
  if (ref.mid != kNoSeg)
    ref.latency += segs_[static_cast<size_t>(ref.mid)].latency;
  *out = ref;
  return true;
}

RouteView Platform::route(int src_host, int dst_host) const {
  check_host_index(src_host, "route");
  check_host_index(dst_host, "route");
  if (!sealed_)
    throw xbt::InvalidArgument("platform must be sealed before routing between " +
                               hosts_[static_cast<size_t>(src_host)].name + " and " +
                               hosts_[static_cast<size_t>(dst_host)].name + " (call Platform::seal())");
  check_host_present(src_host, "route");
  check_host_present(dst_host, "route");

  // Explicit routes (and memoized graph resolutions) win over everything.
  if (const RouteRef* cached = route_find(pair_key(src_host, dst_host)))
    return make_view(*cached);
  if (src_host == dst_host)
    return RouteView{};  // loopback, absent an explicit self-route

  RouteRef composed;
  if (compose_zone_route(src_host, dst_host, &composed))
    return make_view(composed);  // zone rule: O(1), never cached per pair

  SegId seg;
  if (!tree_path(host_nodes_[static_cast<size_t>(src_host)], host_nodes_[static_cast<size_t>(dst_host)], &seg))
    throw_no_route(src_host, dst_host);
  RouteRef& slot = route_slot(pair_key(src_host, dst_host));
  slot = RouteRef{kNoSeg, seg, kNoSeg, segs_[static_cast<size_t>(seg)].latency};
  return make_view(slot);
}

bool Platform::reachable(int src_host, int dst_host) const {
  check_host_index(src_host, "reachable");
  check_host_index(dst_host, "reachable");
  if (!sealed_)
    throw xbt::InvalidArgument("platform must be sealed before routing between " +
                               hosts_[static_cast<size_t>(src_host)].name + " and " +
                               hosts_[static_cast<size_t>(dst_host)].name + " (call Platform::seal())");
  if (!host_present_[static_cast<size_t>(src_host)] || !host_present_[static_cast<size_t>(dst_host)])
    return false;
  if (route_find(pair_key(src_host, dst_host)) != nullptr)
    return true;
  if (src_host == dst_host)
    return true;
  const ZoneRec* src_zone = cluster_of(src_host);
  if (src_zone != nullptr && src_zone == cluster_of(dst_host))
    return true;
  const NodeId from = graph_endpoint(src_host);
  const NodeId to = graph_endpoint(dst_host);
  return from == to || sssp_from(from, to).settled[static_cast<size_t>(to)];
}

RoutingMemoryStats Platform::routing_memory() const {
  RoutingMemoryStats s;
  s.segment_bytes = seg_links_.capacity() * sizeof(LinkId) + segs_.capacity() * sizeof(SegRec);
  // unordered_map footprint approximation: bucket pointers + one heap node
  // per entry (key + value + chain pointer).
  s.segment_bytes += seg_dedup_.bucket_count() * sizeof(void*);
  for (const auto& [h, v] : seg_dedup_) {
    (void)h;
    s.segment_bytes += sizeof(std::uint64_t) + sizeof(std::vector<SegId>) + sizeof(void*) * 2 +
                       v.capacity() * sizeof(SegId);
  }
  s.segment_bytes += node_pair_segs_.bucket_count() * sizeof(void*) +
                     node_pair_segs_.size() * (sizeof(std::uint64_t) + sizeof(SegId) + sizeof(void*) * 2);
  s.pair_cache_bytes =
      route_keys_.capacity() * sizeof(std::uint64_t) + route_refs_.capacity() * sizeof(RouteRef);
  for (const auto& [src, tree] : sssp_cache_) {
    (void)src;
    s.sssp_bytes += tree.dist.capacity() * sizeof(double) + tree.prev_node.capacity() * sizeof(NodeId) +
                    tree.prev_link.capacity() * sizeof(LinkId) + tree.settled.capacity() / 8 +
                    tree.frontier.capacity() * sizeof(tree.frontier[0]) + sizeof(SsspTree) +
                    sizeof(void*) * 3;
  }
  s.zone_bytes = zones_.capacity() * sizeof(ZoneRec) + host_zone_.capacity() * sizeof(HostZone);
  return s;
}

}  // namespace sg::platform
