/// \file platform.hpp
/// Virtual platform description: hosts (computing resources), links
/// (point-to-point communication resources), routers, multi-hop routes, and
/// hierarchical zones.
///
/// Three routing styles are supported, matching the paper's "simulation of
/// complex communications (multi-hop routing)":
///  * explicit routes:  add_route(src, dst, {links...})
///  * graph mode:       add_edge(nodeA, nodeB, link) + seal() validates the
///                      graph; latency-shortest paths are then resolved
///                      lazily, on first use of each (src, dst) pair.
///  * zones:            add_cluster_zone() groups hosts under a routing
///                      *rule* — a cluster member's route is composed in O(1)
///                      from its private up-link, the optional backbone, and
///                      the peer's down-link, with zero Dijkstra and zero
///                      per-pair state. Inter-zone routes compose
///                      src->gateway + gateway->gateway + gateway->dst.
/// Topologies may also be imported from generators (see sg::topo, BRITE).
///
/// ## Interned route segments
///
/// A resolved route is not a per-pair vector of links. It is a RouteRef:
/// three segment ids (up, middle, down) plus the precomputed latency.
/// Segments — short link sequences — live in a global arena and are
/// deduplicated, so a 100k-host cluster holds O(hosts) routing state (one
/// up/down segment per member) instead of O(pairs) materialized paths.
/// route() returns a RouteView, a cheap cursor over the (up to three)
/// segments; hot paths iterate links through it instead of assuming one
/// contiguous vector.
///
/// ## Lazy on-demand routing (graph mode)
///
/// seal() is O(nodes + edges): it only validates the description and builds
/// the adjacency structure. A route(src, dst) query between hosts that no
/// zone rule covers grows a shortest-path tree from `src`: a paused Dijkstra
/// that settles nodes only until `dst` is settled, then keeps its frontier so
/// that the next query from `src` resumes where this one stopped. A query
/// for a node the tree already settled costs no search at all. The settle
/// order is the one a full run would follow, so routes do not depend on which
/// queries came first. The resolved pair is cached as a RouteRef (24 bytes +
/// the interned segment, shared across pairs with the same path). Explicit
/// add_route() entries always win over both zone composition and
/// graph-derived paths, and a host talking to itself uses the empty loopback
/// route unless an explicit self-route overrides it.
///
/// The caches are an implementation detail: route() stays `const`. They make
/// routing non-thread-safe; resolve routes from a single thread (the
/// simulation kernel is single-threaded anyway). Name lookups only read:
/// every host, router and link name enters its name map when it is created.
///
/// The tree cache is LRU-bounded; seal() fixes its capacity at
/// max(64, hosts/16), so platforms with many concurrently active sources do
/// not thrash the cache. An evicted tree's buffers are reused for the next
/// source. Cluster-zone traffic never touches the cache.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "trace/trace.hpp"
#include "xbt/name_index.hpp"

namespace sg::platform {

using NodeId = int;  ///< index of a netpoint (host or router)
using LinkId = int;  ///< index of a link
using ZoneId = int;  ///< index of a zone
using SegId = std::int32_t;  ///< index of an interned route segment

constexpr SegId kNoSeg = -1;  ///< absent route piece (RouteRef)

/// How concurrent flows share a link's bandwidth.
enum class SharingPolicy {
  kShared,   ///< capacity divided among flows (normal LAN/WAN link)
  kFatpipe,  ///< each flow independently capped at capacity (backbone)
};

/// Routing rule of a zone.
enum class ZoneKind {
  kCluster,   ///< private link per member + optional backbone; O(1) composition
  kDijkstra,  ///< graph zone: members routed through the flat graph, as ever
};

struct HostSpec {
  std::string name;
  double speed_flops = 1e9;               ///< peak speed, flop/s
  sg::trace::Trace availability;          ///< scales speed over time (empty = 1.0)
  sg::trace::Trace state;                 ///< 1 = up, 0 = down (empty = always up)
  /// Membership trace: 1 = member, 0 = departed. Unlike `state` (a flap the
  /// engine applies as capacity 0), churn promotes to whole-host departure /
  /// return via the kernel membership driver (kernel/membership.hpp); the
  /// engine itself never schedules it.
  sg::trace::Trace churn;
};

struct LinkSpec {
  std::string name;
  double bandwidth_Bps = 1.25e8;          ///< byte/s
  double latency_s = 1e-4;                ///< seconds
  SharingPolicy policy = SharingPolicy::kShared;
  sg::trace::Trace availability;          ///< scales bandwidth over time
  sg::trace::Trace state;                 ///< 1 = up, 0 = down
};

/// A commodity cluster zone: `count` hosts, each with a private up/down link
/// to the zone hub, and (optionally) a backbone link between the hub and the
/// zone gateway. Member m is named `<host_prefix><m>` (host_prefix defaults
/// to `name`), its link `<host_prefix><m>-link`; the hub is `<name>-switch`.
/// With a backbone the gateway is the router `<name>-out` behind the
/// `<name>-backbone` link; without one (backbone_bandwidth <= 0) the hub
/// itself is the gateway. Intra-zone routes are [up(i), up(j)] — the
/// backbone is only crossed by traffic leaving the zone, matching the
/// historical make_cluster() star shape.
struct ClusterZoneSpec {
  std::string name = "cluster";
  std::string host_prefix;          ///< empty: use `name`
  int count = 8;
  double host_speed = 1e9;          ///< flop/s
  double link_bandwidth = 1.25e8;   ///< B/s per private up/down link
  double link_latency = 5e-5;
  double backbone_bandwidth = 1.25e9;  ///< <= 0: no backbone (hub is gateway)
  double backbone_latency = 5e-4;
  bool backbone_fatpipe = false;
};

/// A resolved route between two hosts: up to three interned segments and the
/// precomputed latency. 24 bytes + shared segment storage, vs. the old
/// per-pair std::vector<LinkId>.
struct RouteRef {
  SegId up = kNoSeg;    ///< source-side piece (e.g. member -> gateway)
  SegId mid = kNoSeg;   ///< gateway -> gateway (or the whole graph path)
  SegId down = kNoSeg;  ///< gateway -> destination member
  double latency = 0.0; ///< sum of link latencies (precomputed)
};

/// Cheap cursor over a resolved route's links. Returned by value from
/// Platform::route(); spans point into the platform's segment arena, so a
/// view is invalidated by the next route resolution on the same platform
/// (hot paths consume it immediately; materialize with links() otherwise).
class RouteView {
public:
  RouteView() = default;

  double latency() const { return latency_; }
  size_t size() const {
    return static_cast<size_t>(spans_[0].n) + spans_[1].n + spans_[2].n;
  }
  bool empty() const { return size() == 0; }
  /// Materialize the link sequence (tests, tools, packet-level replay).
  std::vector<LinkId> links() const {
    std::vector<LinkId> out;
    out.reserve(size());
    for (const Span& s : spans_)
      out.insert(out.end(), s.b, s.b + s.n);
    return out;
  }

  class iterator {
  public:
    using value_type = LinkId;
    LinkId operator*() const { return view_->spans_[seg_].b[idx_]; }
    iterator& operator++() {
      ++idx_;
      if (idx_ >= view_->spans_[seg_].n) {
        idx_ = 0;
        ++seg_;
        skip_empty();
      }
      return *this;
    }
    bool operator==(const iterator& o) const { return seg_ == o.seg_ && idx_ == o.idx_; }
    bool operator!=(const iterator& o) const { return !(*this == o); }

  private:
    friend class RouteView;
    iterator(const RouteView* v, int seg) : view_(v), seg_(seg) { skip_empty(); }
    void skip_empty() {
      while (seg_ < 3 && view_->spans_[seg_].n == 0)
        ++seg_;
    }
    const RouteView* view_;
    int seg_;
    std::uint32_t idx_ = 0;
  };

  iterator begin() const { return iterator(this, 0); }
  iterator end() const { return iterator(this, 3); }

private:
  friend class Platform;
  struct Span {
    const LinkId* b = nullptr;
    std::uint32_t n = 0;
  };
  Span spans_[3];
  double latency_ = 0.0;
};

/// Routing-state footprint, for benches and the scaling metrics: everything
/// the platform holds to answer route(), split by structure. O(hosts +
/// resolved pairs); cluster-zone traffic adds nothing to the pair cache.
struct RoutingMemoryStats {
  size_t segment_bytes = 0;    ///< interned segment arena + dedup index
  size_t pair_cache_bytes = 0; ///< resolved (src,dst) -> RouteRef table
  size_t sssp_bytes = 0;       ///< cached shortest-path trees, frontiers included
  size_t zone_bytes = 0;       ///< zone records + host -> zone map
  size_t total() const { return segment_bytes + pair_cache_bytes + sssp_bytes + zone_bytes; }
};

class Platform {
public:
  // -- construction ---------------------------------------------------------
  NodeId add_host(const HostSpec& spec);
  NodeId add_host(const std::string& name, double speed_flops);
  NodeId add_router(const std::string& name);
  LinkId add_link(const LinkSpec& spec);
  LinkId add_link(const std::string& name, double bandwidth_Bps, double latency_s,
                  SharingPolicy policy = SharingPolicy::kShared);

  /// Graph mode: declare that `link` connects netpoints a and b (undirected).
  /// Endpoints may not be cluster-zone members or hubs: a cluster's only
  /// connection to the rest of the platform is its gateway (that invariant is
  /// what makes O(1) route composition exact).
  void add_edge(NodeId a, NodeId b, LinkId link);

  /// Explicit mode: full route between two hosts. When symmetric, the
  /// reversed route serves dst->src as well. Explicit routes always win over
  /// zone composition and graph-derived paths.
  void add_route(NodeId src, NodeId dst, std::vector<LinkId> links, bool symmetric = true);

  /// Create a cluster zone: `spec.count` hosts, their private links, the hub,
  /// and (optionally) backbone + gateway, all named after the spec. The
  /// zone's edges are part of the flat graph too (export, packet-level and
  /// graph-mode tools keep working); route() never walks them for
  /// zone-covered pairs. Returns the zone id; member host indices are
  /// contiguous from zone_first_host().
  ZoneId add_cluster_zone(const ClusterZoneSpec& spec);

  /// Create an empty Dijkstra (graph) zone: membership metadata over hosts
  /// routed through the flat graph exactly like unzoned hosts (cluster
  /// traffic included — it runs Dijkstra from the cluster gateway straight
  /// to the member). `gateway` (a node in the flat graph) is recorded as
  /// the zone's conventional attach point for zone_gateway() introspection;
  /// it does not constrain routing.
  ZoneId add_graph_zone(const std::string& name, NodeId gateway);

  /// Assign a host to a graph zone (cluster zones own their members).
  void zone_add_host(ZoneId zone, int host_index);

  /// Freeze the topology: validate and build the routing adjacency.
  /// O(nodes + edges) — shortest paths are resolved lazily by route().
  void seal();
  bool sealed() const { return sealed_; }

  // -- dynamic membership (post-seal) ----------------------------------------
  /// Join a new member host to a sealed cluster zone: host + private uplink +
  /// hub edge, named after the zone spec (`<prefix><N>` where N counts
  /// members ever created; pass `name` to override, `speed_flops` > 0 to
  /// override the spec's host speed). Every seal-time structure is updated in
  /// place in O(affected): the member's route segments are appended to the
  /// arena, and each cached SSSP tree is extended with the one new leaf — no
  /// re-seal, no flush. Both names (`<host>` and `<host>-link`) are checked
  /// before anything changes: a taken one throws xbt::InvalidArgument naming
  /// it, generated names included. Returns the new host index.
  int join_host(ZoneId zone, const std::string& name = "", double speed_flops = -1.0);
  /// Join a new host to the flat graph of a sealed platform, attached to
  /// `attach` (any non-cluster-interior node) through a fresh private
  /// `uplink`. Same O(affected) incremental update and the same all-or-nothing
  /// name check. Returns the host index.
  int join_host(const HostSpec& spec, NodeId attach, const LinkSpec& uplink);
  /// Depart a host at (simulated) time `at`: the host stays in every index —
  /// ids remain valid, names stay taken — but route()/reachable() refuse it
  /// ("departed at t=…") and shortest paths stop transiting it. Leaf hosts
  /// (the churn case: cluster members, joined hosts) cost O(1); a departure
  /// that removes a *transit* node flushes only the path caches, which
  /// rebuild lazily. Use rejoin_host() to bring the host back.
  void leave_host(int host_index, double at = 0.0);
  /// Return a departed host to the platform: presence flips back, routes
  /// resolve again; cached state invalidated on departure rebuilds lazily.
  void rejoin_host(int host_index);
  /// Is the host currently a member (true for all hosts until leave_host)?
  bool host_present(int host_index) const {
    return host_present_[static_cast<size_t>(host_index)] != 0;
  }
  /// Time of the host's (latest) departure; meaningful while !host_present().
  double host_departed_at(int host_index) const {
    return host_departed_at_[static_cast<size_t>(host_index)];
  }
  size_t departed_host_count() const { return departed_count_; }
  /// Throws InvalidArgument naming the host and its departure time when the
  /// host has left the platform (the "departed at t=…" contract); no-op for
  /// present hosts. `what` prefixes the message ("route", "set_host_state"…).
  void check_host_present(int host_index, const char* what) const;
  /// The host's private links: links whose only graph edge touches the host
  /// (cluster uplinks, joined-host uplinks). These die and return with the
  /// host; shared buses do not qualify.
  std::vector<LinkId> host_private_links(int host_index) const;

  // -- lookup ---------------------------------------------------------------
  size_t host_count() const { return hosts_.size(); }
  size_t link_count() const { return links_.size(); }
  size_t node_count() const { return node_names_.size(); }
  size_t zone_count() const { return zones_.size(); }

  bool is_host(NodeId node) const;
  /// Host index (0..host_count) for a host node id.
  int host_index(NodeId node) const;
  /// Node id of the i-th host (throws xbt::InvalidArgument on a bad index).
  NodeId host_node(int host_index) const;

  const HostSpec& host(int host_index) const { return hosts_[static_cast<size_t>(host_index)]; }
  HostSpec& host_mutable(int host_index) { return hosts_[static_cast<size_t>(host_index)]; }
  const LinkSpec& link(LinkId id) const { return links_[static_cast<size_t>(id)]; }
  LinkSpec& link_mutable(LinkId id) { return links_[static_cast<size_t>(id)]; }

  const std::string& node_name(NodeId node) const { return node_names_[static_cast<size_t>(node)]; }

  std::optional<NodeId> node_by_name(const std::string& name) const;
  std::optional<int> host_by_name(const std::string& name) const;
  std::optional<LinkId> link_by_name(const std::string& name) const;

  // -- zones ----------------------------------------------------------------
  // Accessors throw xbt::InvalidArgument naming the call on a bad id.
  /// Zone of a host (by host index), or -1 when the host is in no zone.
  ZoneId zone_of_host(int host_index) const {
    check_host_index(host_index, "zone_of_host");
    return host_zone_[static_cast<size_t>(host_index)].zone;
  }
  ZoneKind zone_kind(ZoneId zone) const { return zone_rec(zone, "zone_kind").kind; }
  const std::string& zone_name(ZoneId zone) const { return zone_rec(zone, "zone_name").name; }
  /// Node where inter-zone traffic enters/leaves the zone.
  NodeId zone_gateway(ZoneId zone) const { return zone_rec(zone, "zone_gateway").gateway; }
  /// First member host index of a cluster zone: the members add_cluster_zone
  /// created are contiguous from here (joined members are not).
  int zone_first_host(ZoneId zone) const { return zone_rec(zone, "zone_first_host").first_host; }
  /// Cluster: members ever created, joined ones included; graph: hosts assigned.
  int zone_host_count(ZoneId zone) const { return zone_rec(zone, "zone_host_count").count; }
  std::optional<ZoneId> zone_by_name(const std::string& name) const;
  /// The ClusterZoneSpec a cluster zone was created from (parser round-trip).
  const ClusterZoneSpec& cluster_zone_spec(ZoneId zone) const;

  /// Route between two hosts (by host index), composed or resolved on
  /// demand. Cluster pairs are composed in O(1) with no per-pair state; the
  /// returned view is invalidated by the next resolution (consume it
  /// immediately, or materialize with links()). Throws xbt::InvalidArgument
  /// (naming both hosts) when the platform is not sealed or the pair is
  /// unreachable.
  RouteView route(int src_host, int dst_host) const;
  bool reachable(int src_host, int dst_host) const;

  /// All (undirected) graph edges, for export/inspection.
  struct Edge { NodeId a; NodeId b; LinkId link; };
  const std::vector<Edge>& edges() const { return edges_; }

  // -- cache introspection (tests/benches) ----------------------------------
  /// Number of (src, dst) pairs stored in the route cache (explicit routes +
  /// memoized graph resolutions; zone-composed pairs never enter it).
  size_t resolved_route_count() const { return route_count_; }
  /// Number of interned link segments in the arena.
  size_t interned_segment_count() const { return segs_.size(); }
  /// Number of memoized single-source shortest-path trees currently held.
  size_t cached_sssp_tree_count() const { return sssp_cache_.size(); }
  /// Nodes settled by all shortest-path searches so far (cumulative: evicted
  /// and flushed trees keep counting). Grows only as far as queries reach.
  size_t sssp_settled_count() const { return sssp_settled_; }
  /// Least number of SSSP trees the LRU holds, whatever the platform size.
  static constexpr size_t kSsspCacheFloor = 64;
  /// Capacity of the SSSP-tree LRU: max(kSsspCacheFloor, hosts/16), fixed
  /// at seal() time.
  size_t sssp_cache_capacity() const { return sssp_cache_cap_; }
  /// Bytes currently devoted to answering route() queries.
  RoutingMemoryStats routing_memory() const;

private:
  struct NodeRec {
    bool host = false;
    int host_index = -1;
  };

  /// An interned link sequence in the flat arena.
  struct SegRec {
    std::uint32_t off = 0;  ///< into seg_links_
    std::uint32_t len = 0;
    double latency = 0.0;   ///< sum of the segment's link latencies
  };

  struct ZoneRec {
    std::string name;
    ZoneKind kind = ZoneKind::kDijkstra;
    NodeId gateway = -1;
    NodeId hub = -1;          ///< cluster switch node (-1 for graph zones)
    int first_host = 0;       ///< cluster: first member host index
    int count = 0;            ///< cluster: members ever created (graph: hosts assigned)
    int names_skipped = 0;    ///< cluster: generated names refused as taken
    LinkId backbone = -1;
    double up_latency = 0.0;
    double backbone_latency = 0.0;
    ClusterZoneSpec spec;     ///< as created (dump/round-trip)
  };

  /// Single-source shortest-path tree, indexed by NodeId: a paused
  /// Dijkstra. Nodes are settled in (dist, id) order; `dist` and `prev_*`
  /// are final for settled nodes and tentative for the rest.
  struct SsspTree {
    NodeId src = -1;
    std::vector<double> dist;
    std::vector<NodeId> prev_node;
    std::vector<LinkId> prev_link;
    std::vector<bool> settled;  ///< bits: trees span every node of the platform
    /// Min-heap on (dist, id) of reached but unsettled nodes; may hold stale
    /// entries for nodes settled since. Empty once the tree is complete.
    std::vector<std::pair<double, NodeId>> frontier;
    std::uint64_t last_used = 0;  ///< LRU tick; hits bump it in O(1)
  };

  static std::uint64_t pair_key(int src_host, int dst_host) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src_host)) << 32) |
           static_cast<std::uint32_t>(dst_host);
  }

  void check_host_index(int host_index, const char* what) const;
  const ZoneRec& zone_rec(ZoneId zone, const char* what) const;
  void throw_no_route(int src_host, int dst_host) const;
  /// Throws unless `node` may take a new graph edge: cluster members and
  /// hubs (other than a hub that is its zone's gateway) may not, since a
  /// cluster's only connection to the rest of the platform is its gateway.
  void check_attachable(NodeId node, const char* what) const;
  /// Claim a name for the node / link about to be created; throws naming it
  /// when taken.
  void claim_node_name(const std::string& name);
  void claim_link_name(const std::string& name);
  /// Claim a new host's name and its uplink's: both or neither.
  void claim_host_names(const std::string& host, const std::string& link);
  /// Throw the claim_* error for a taken name without claiming anything.
  void check_names_free(const std::string& node, const std::string& link) const;
  auto node_name_of() const {
    return [this](int id) -> const std::string& { return node_names_[static_cast<size_t>(id)]; };
  }
  auto link_name_of() const {
    return [this](int id) -> const std::string& { return links_[static_cast<size_t>(id)].name; };
  }
  /// Append a host / link whose names are already claimed (no checks).
  NodeId push_host(const HostSpec& spec);
  LinkId push_link(const LinkSpec& spec);
  /// Create member `name` of cluster zone `zone` — host, private link, hub
  /// edge and route pieces — and return its host index. Serves
  /// add_cluster_zone and join_host(zone) alike.
  int add_member(ZoneId zone, const std::string& name, double speed_flops);
  /// Splice the last edge, a just-joined leaf host's, into the seal-time
  /// structures in place: adjacency, link degree, cached SSSP trees.
  void splice_leaf_edge();
  /// The cluster zone a host is a member of, or nullptr.
  const ZoneRec* cluster_of(int host_index) const {
    const ZoneId z = host_zone_[static_cast<size_t>(host_index)].zone;
    return z >= 0 && zones_[static_cast<size_t>(z)].kind == ZoneKind::kCluster
               ? &zones_[static_cast<size_t>(z)]
               : nullptr;
  }
  /// Where a host's traffic meets the flat graph: its cluster's gateway, or
  /// its own node.
  NodeId graph_endpoint(int host_index) const {
    const ZoneRec* z = cluster_of(host_index);
    return z != nullptr ? z->gateway : host_nodes_[static_cast<size_t>(host_index)];
  }
  /// May shortest paths run *through* this node? False only for departed
  /// hosts; a departed host can still be a path endpoint (presence is the
  /// caller's check).
  bool node_transitable(NodeId node) const {
    const NodeRec& rec = nodes_[static_cast<size_t>(node)];
    return !rec.host || host_present_[static_cast<size_t>(rec.host_index)] != 0;
  }
  /// May `node`, once settled, relax its arcs in `tree`? The source always
  /// may; other nodes only while transitable.
  bool relays(const SsspTree& tree, NodeId node) const {
    return node == tree.src || node_transitable(node);
  }
  /// Extend every cached SSSP tree with the just-joined leaf node (exact:
  /// the only path to a leaf is through its attach point). O(cached trees).
  void extend_sssp_trees(NodeId attach, LinkId uplink) const;
  /// Departure/return of a transit-capable node: drop the path caches
  /// (SSSP trees, node-pair segments, memoized graph routes) and re-seed
  /// the route table from the explicit routes, which always survive.
  void flush_transit_caches() const;
  /// The cached tree from `src`, grown until `target` is settled or the
  /// frontier runs dry (then `target` is unreachable: callers test
  /// `settled[target]`). Latency metric, with a tiny per-hop epsilon so
  /// zero-latency LANs still prefer fewer hops. At most sssp_cache_cap_
  /// trees are kept, each O(nodes); resolved RouteRefs are cached forever,
  /// so evicting a tree only costs searching again.
  const SsspTree& sssp_from(NodeId src, NodeId target) const;

  /// Intern a link sequence, deduplicated: identical sequences share one
  /// segment. O(len) on a hit.
  SegId intern_segment(const LinkId* links, size_t n) const;
  /// Append a segment without a dedup-index entry (cluster member pieces:
  /// each contains a unique private link, so they can never recur — skipping
  /// the index keeps the arena at a few dozen bytes per host).
  SegId append_segment(const LinkId* links, size_t n) const;
  /// Shortest path `from` -> `to` (from != to), walked back along the tree's
  /// parent links, as an interned segment. False when disconnected.
  bool tree_path(NodeId from, NodeId to, SegId* seg) const;
  /// tree_path memoized per node pair: O(zones^2) entries for zone-to-zone
  /// traffic, plus one per (gateway, outside endpoint) actually contacted —
  /// never O(member pairs), since all members of a cluster share their
  /// gateway's entries. Returns false when the nodes are disconnected.
  bool node_path_segment(NodeId from, NodeId to, SegId* seg) const;
  RouteView make_view(const RouteRef& ref) const;
  /// Zone-rule composition for a pair not in the route cache. Returns false
  /// when no zone rule covers the pair (fall through to graph resolution).
  bool compose_zone_route(int src_host, int dst_host, RouteRef* out) const;

  std::vector<std::string> node_names_;
  std::vector<NodeRec> nodes_;
  std::vector<HostSpec> hosts_;
  std::vector<NodeId> host_nodes_;
  std::vector<LinkSpec> links_;
  std::vector<Edge> edges_;
  /// Name -> id maps over node_names_ / links_; every name enters when its
  /// node or link is created.
  xbt::NameIndex node_index_;
  xbt::NameIndex link_index_;

  std::vector<ZoneRec> zones_;
  /// A host's zone (-1: none) and, for a cluster member, its [up] route
  /// piece (kNoSeg otherwise). With a backbone, the member's [up, backbone]
  /// and [backbone, up] pieces follow at +1 and +2; without one, [up] serves
  /// both ways. One record, so composing a route reads one per endpoint.
  struct HostZone {
    std::int32_t zone = -1;
    SegId up = kNoSeg;
  };
  std::vector<HostZone> host_zone_;  ///< by host index

  // -- dynamic membership ----------------------------------------------------
  std::vector<char> host_present_;        ///< host index -> currently a member?
  std::vector<double> host_departed_at_;  ///< last departure time (valid when absent)
  size_t departed_count_ = 0;
  /// Graph edges per link, built by seal() and maintained by joins: a link
  /// with degree 1 is private to its single endpoint (host_private_links).
  std::vector<std::int32_t> link_degree_;
  /// add_route() entries, kept verbatim so a transit flush can re-seed the
  /// route table without the caller's link vectors.
  struct ExplicitRoute {
    int src = -1;
    int dst = -1;
    RouteRef ref;
  };
  std::vector<ExplicitRoute> explicit_routes_;

  /// adjacency: node -> (neighbor, link); built by seal().
  std::vector<std::vector<std::pair<NodeId, LinkId>>> adj_;

  // -- interned segment arena ------------------------------------------------
  mutable std::vector<LinkId> seg_links_;  ///< flat storage, segments back to back
  mutable std::vector<SegRec> segs_;
  /// Dedup index: content hash -> candidate segment ids (collisions chain).
  mutable std::unordered_map<std::uint64_t, std::vector<SegId>> seg_dedup_;
  /// Memoized node -> node graph paths (gateway traffic), keyed like pairs.
  mutable std::unordered_map<std::uint64_t, SegId> node_pair_segs_;

  /// Resolved routes keyed by (src, dst) host-index pair. Explicit routes
  /// are inserted eagerly (they pre-empt zone composition and lazy
  /// resolution); graph-derived routes are added on first query. The index
  /// is open-addressing (linear probing over a power-of-2 table): a lookup
  /// is one probe run through a flat array instead of a hash-node chase —
  /// route() is on the hot path of every communication start. The mapped
  /// value is a 24-byte RouteRef stored inline; the links themselves live in
  /// the shared segment arena.
  static constexpr std::uint64_t kEmptyKey = ~std::uint64_t{0};
  mutable std::vector<std::uint64_t> route_keys_;  ///< kEmptyKey = free slot
  mutable std::vector<RouteRef> route_refs_;       ///< parallel to route_keys_
  mutable size_t route_count_ = 0;

  const RouteRef* route_find(std::uint64_t key) const;
  /// Existing record for key, or a freshly inserted empty one.
  RouteRef& route_slot(std::uint64_t key) const;
  void route_index_grow() const;

  size_t sssp_cache_cap_ = kSsspCacheFloor;  ///< raised by seal() with the host count
  /// LRU by last_used tick: a cache hit is an O(1) counter bump; eviction
  /// scans for the minimum, then re-keys the evicted tree's map node.
  mutable std::unordered_map<NodeId, SsspTree> sssp_cache_;
  mutable std::uint64_t sssp_tick_ = 0;
  mutable size_t sssp_settled_ = 0;  ///< sssp_settled_count()

  bool sealed_ = false;
};

}  // namespace sg::platform
