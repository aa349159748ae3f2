/// \file maxmin.hpp
/// The unifying MaxMin fairness model at the heart of SURF (paper:
/// "allocate as much capacity to all tasks in a way that maximizes the
/// minimum capacity allocation over all tasks").
///
/// The system consists of
///  * constraints — resources with a capacity C_c (CPU flop/s, link byte/s),
///  * variables   — activity rates v_i, optionally upper-bounded (b_i) and
///                  weighted (w_i, growth share / priority),
///  * elements    — "variable i consumes coeff * v_i of constraint c".
///
/// solve() computes the weighted max-min fair allocation by progressive
/// filling: all active variables grow proportionally to their weight until a
/// constraint saturates (shared) or a variable hits its bound; saturated
/// participants freeze and filling continues. Fatpipe (non-shared)
/// constraints cap each variable individually instead of dividing capacity —
/// the behaviour of an over-provisioned backbone.
///
/// The same solver is used for computation, communication, their
/// interference, and parallel tasks, exactly as the paper describes.
///
/// ## Solver internals: dirty sets and partial invalidation
///
/// Re-running progressive filling over the whole system on every state
/// change is O(constraints x elements x filling rounds) — the cost that kept
/// the original SURF from scaling. Instead, the system tracks *dirtiness* at
/// the granularity of individual variables and constraints:
///
///  * every mutation (new_variable, expand, release_variable, set_weight,
///    set_bound, set_capacity) marks the touched variable/constraint dirty —
///    no-op mutations (setting a value to itself) mark nothing;
///  * solve() computes the transitive closure of the dirty seeds over the
///    bipartite variable-constraint graph. Because the max-min allocation of
///    a connected component is independent of every other component, this
///    closure is exactly the union of the components whose allocation can
///    have changed;
///  * progressive filling then runs restricted to that closure. Allocations
///    of untouched components are left frozen, so the per-event cost is
///    O(affected subgraph), not O(whole system);
///  * solve_full() — the from-scratch path, used by the first solve and
///    by tests checking incremental ≡ full — seeds the same walk with every
///    live variable, one component at a time;
///  * changed_variables() reports which allocations moved in the last
///    solve(), letting callers (the SURF engine) refresh only those rates.
///
/// The decomposition is sound because progressive filling has a unique fixed
/// point (the weighted max-min fair allocation), and disjoint components
/// share no constraint: filling them together or separately yields the same
/// allocation.
///
/// ## Data layout: element arena and SoA hot fields
///
/// At scale the solver is memory-bound, not compute-bound: a churn event
/// touches a handful of variables/constraints, and the cost is dominated by
/// the cache lines those touches pull in. The layout is therefore organized
/// around density and reuse rather than around per-object encapsulation:
///
///  * **Element arena.** The incidence lists (which variables sit on a
///    constraint; which constraints a variable crosses) are not per-object
///    `std::vector`s but unrolled, doubly linked lists of 4-entry nodes
///    living in one shared, chunked arena. A node packs 4 (peer id,
///    coefficient, twin) entries plus its count and prev/next links in 80
///    bytes; a list is a chain of node indices. Since the common exec/comm
///    case has degree <= 4 (one CPU, or a couple of route links), the fast
///    path is a single node — one pointer chase, one cache line or two.
///    Nodes are recycled through an index-linked free list, so steady-state
///    churn re-uses the same (cache-hot) lines instead of walking the heap
///    allocator. Chunks (256 nodes, 20 KiB) give address stability without
///    vector-growth copies.
///  * **Twin links.** Every incidence is stored twice, once on each side,
///    and each entry records the node that holds its twin in the peer's
///    list. An entry never leaves its node — removal swap-fills the freed
///    slot from the same node's last entry, and a node that empties is
///    unlinked through its prev link — so twin links never need updating.
///    Releasing a variable (or constraint) therefore visits only its own
///    entries and, through their twins, the one node of each peer list that
///    holds it — never the rest of a fat pipe's user list. Within that node
///    it removes the lowest slot holding the released id (at most 4 to
///    look at), which leaves every list in exactly the order a
///    front-to-back scan removing all of the id's entries would, duplicates
///    included; list order fixes the fill sums' fold order and the
///    failure-propagation order.
///  * **Per-mutation cost.** new_variable / new_constraint / set_* are
///    O(1); expand is O(1); release_variable is O(variable degree) and
///    release_constraint O(constraint degree), each O(1) per incidence. A
///    solve costs O(closure elements), where a fat pipe in the closure
///    costs nothing beyond its own entry in each closure variable's list:
///    caps (capacity / coeff) are read from the variable side. A kept
///    snapshot (below) adds O(variable degree) to release_variable,
///    set_bound and an expand that brings a new variable in, and
///    O(constraint degree) to the set_capacity of a fat pipe with kept
///    users; set_weight and a kept row's set_capacity patch one field. While no snapshot
///    is kept, each mutation pays one flag or counter check for them.
///  * **SoA hot fields.** The fields the closure walk reads per variable
///    (`weight`, `bound`, `value`, flags) are parallel arrays indexed by id;
///    cold metadata does not share their cache lines.
///  * **One fill level over a dense snapshot.** While the closure is
///    collected, each shared constraint with two or more entries is captured
///    as a row of (local variable, coeff) in element-list order, each
///    variable folds its bound, its fatpipe caps and its single-entry shared
///    constraints into one cap, and a counting sort lays out each variable's
///    (row, coeff) edges; each entry names the position of its twin in the
///    other array. Filling then runs on these dense local arrays and never
///    walks the arena again. It first primes them: a row's growing users
///    give its weight sum and count, and a row with a single growing user is
///    a cap on it, as a fat pipe is. A growing variable's
///    value is λ·weight for one global level λ. Each filling row keeps its
///    remaining capacity (capacity minus the frozen users' consumption),
///    its growing weight sum and user count, so its saturation level is
///    remaining / sum; each capped variable's level is cap / weight. A round
///    min-scans the dense level array, moves λ there, and freezes every row
///    and variable within the saturation slack: a saturated row freezes its
///    growing users at λ·weight, a capped variable snaps to its cap. A
///    freeze updates each row the variable crosses in O(1); a row re-sums
///    from its captured users only when its sum falls below 1e-6 of its last
///    full sum (cancellation guard). A solve thus costs O(closure elements)
///    plus one dense scan per saturation level. A closure without filling
///    rows — a lone variable, say — is solved directly: each value is its
///    cap. A closure with one filling row and no capped variable saturates
///    in one step, at the row's level.
///  * **Kept snapshots.** A solve whose closure is one component of at
///    least kKeepMinVars variables keeps its snapshot (`zones_spread`-like
///    closures of one or two flows never do; a union of components, seeded
///    in several of them at once, is not kept either). Its variables and
///    rows carry kFlagKept and mutations patch it instead of marking seeds:
///    a new variable whose other shared constraints are its alone (the idle
///    first hops of a route) joins it, a single-entry constraint of a kept
///    variable becomes a row when a second entry arrives, a release
///    swap-removes the variable's entries through their twins, and
///    set_weight / set_bound / set_capacity patch one weight, cap or row
///    (a fat pipe's or single-entry constraint's capacity refolds its kept
///    users' caps). The per-id snapshot id and row arrays grow only up to
///    the largest kept id, so a system that keeps nothing pays no memory
///    for them. A patch that
///    moves no value — a weight-0 variable at value 0 joining or leaving —
///    leaves the snapshot clean. A solve primes and fills each patched
///    snapshot from its stored rows: no arena walk, no closure flags.
///    Whatever is not patched cheaply drops the snapshot and lets the walk
///    rebuild it: an expand that couples it with another component (a
///    merge), release_constraint, a snapshot that a split left covering
///    fewer than half the variables it was built with, or one whose patches
///    left more dead room than live entries. solve_full() drops every
///    snapshot before it rebuilds from the arena, so it stays an independent
///    oracle for the incremental path. Filling a kept snapshot folds sums in
///    its patched row order, not the walk's, so values may differ from a
///    fresh solve by a few ulps.
///  * **Id recycling.** Variable *and* constraint ids are recycled through
///    free lists (release_variable / release_constraint), keeping the id
///    space — and with it every parallel array — dense under churn.
///
/// Invariants the arena maintains:
///  * element lists contain only live peers: release_variable eagerly
///    removes the variable's entries from every constraint list it was on
///    (and release_constraint symmetrically), so a recycled id can never
///    revive a stale element;
///  * each entry's twin names the node of the peer's list that holds the
///    other copy of the incidence (duplicate incidences are paired one to
///    one, in no particular order);
///  * an (var, cnst) incidence appears exactly once per expand() call —
///    expanding twice yields two entries, matching the additive consumption
///    semantics of the old layout;
///  * the per-id degree counters track live entries, so degree introspection
///    is O(1) and the engine can reach "all actions on a failed resource"
///    in O(degree) via for_each_variable_on().
///
/// ## One system for the whole platform
///
/// The engine owns exactly one MaxMinSystem, as SURF does. Zones need no
/// solver partition of their own: an intra-zone event dirties only its own
/// connected component, so the closure above already keeps its cost
/// O(affected component), whatever the platform size. A shared backbone
/// fat pipe does not merge the components of the flows crossing it (fat
/// pipes are cap-only in the closure).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace sg::core {

class MaxMinSystem {
public:
  using VarId = int;
  using CnstId = int;
  static constexpr double kNoBound = -1.0;
  /// Rate assigned to a variable that no constraint or bound restricts.
  static constexpr double kUnlimited = 1e30;
  /// A solve whose closure has at least this many variables keeps its dense
  /// snapshot, and later mutations patch it; smaller closures are collected
  /// afresh from the arena on every solve.
  static constexpr size_t kKeepMinVars = 32;

  /// Create a resource constraint. `shared`: capacity divided among users;
  /// otherwise each user is individually capped (fatpipe). Capacities (here
  /// and in set_capacity) and weights (new_variable, set_weight) must be
  /// finite and >= 0, coefficients finite and > 0: anything else, NaN
  /// included, throws xbt::InvalidArgument naming the call.
  CnstId new_constraint(double capacity, bool shared = true);

  /// Release a constraint: its caps/shares disappear and every variable that
  /// was on it is freed to grow. The id is recycled by a later
  /// new_constraint. No-op when already released.
  void release_constraint(CnstId cnst);

  /// Create an activity variable. weight > 0 makes it active (its allocation
  /// grows proportionally to weight); weight == 0 suspends it (allocation 0).
  VarId new_variable(double weight, double bound = kNoBound);

  /// Declare that variable consumes `coeff` units of `cnst` per unit of rate.
  /// Throws xbt::InvalidArgument on an out-of-range id or a released
  /// variable/constraint.
  void expand(CnstId cnst, VarId var, double coeff = 1.0);

  /// Release a variable (its consumption disappears from all constraints).
  void release_variable(VarId var);

  void set_capacity(CnstId cnst, double capacity);
  double capacity(CnstId cnst) const;
  void set_weight(VarId var, double weight);
  double weight(VarId var) const;
  void set_bound(VarId var, double bound);
  double bound(VarId var) const;

  /// Allocation computed by the last solve().
  double value(VarId var) const;

  /// Total consumption of a constraint under the last solution
  /// (sum for shared constraints, max for fatpipe).
  double usage(CnstId cnst) const;

  /// Number of live (not released) variables.
  size_t variable_count() const { return live_vars_; }
  /// Number of live (not released) constraints.
  size_t constraint_count() const { return live_cnsts_; }

  /// Live entries on a constraint / live constraints under a variable (an id
  /// expanded twice on the same constraint counts twice).
  size_t constraint_degree(CnstId cnst) const;
  size_t variable_degree(VarId var) const;

  /// Visit every (constraint, coeff) incidence of a live variable. This is
  /// the engine's replacement for keeping its own per-action constraint
  /// list: the arena already has it.
  template <typename Fn>
  void for_each_constraint_of(VarId var, Fn&& fn) const {
    for (std::int32_t n = var_link_[static_cast<size_t>(var)].head; n != kNoNode; n = node(n).next) {
      const ElemNode& nd = node(n);
      for (std::int32_t k = 0; k < nd.count; ++k)
        fn(static_cast<CnstId>(nd.id[k]), nd.coeff[k]);
    }
  }

  /// Visit every (variable, coeff) incidence on a live constraint — the
  /// cnst -> users index failure propagation runs on. O(degree). The
  /// callback must not mutate the system; collect first, then mutate.
  template <typename Fn>
  void for_each_variable_on(CnstId cnst, Fn&& fn) const {
    for (std::int32_t n = cnst_core_[static_cast<size_t>(cnst)].head; n != kNoNode; n = node(n).next) {
      const ElemNode& nd = node(n);
      for (std::int32_t k = 0; k < nd.count; ++k)
        fn(static_cast<VarId>(nd.id[k]), nd.coeff[k]);
    }
  }

  /// Run progressive filling incrementally: only the connected components
  /// touched by a mutation since the last solve are recomputed; untouched
  /// allocations stay frozen. Idempotent between modifications.
  void solve();

  /// Recompute every allocation from scratch (the first solve() does; tests
  /// use it to check incremental ≡ full).
  void solve_full();

  /// True when a mutation since the last solve may have changed allocations.
  bool needs_solve() const {
    return full_solve_pending_ || !dirty_vars_.empty() || !dirty_cnsts_.empty() ||
           !dirty_kept_.empty();
  }

  /// Variables whose allocation changed in the last solve()/solve_full().
  /// Valid until the next solve.
  const std::vector<VarId>& changed_variables() const { return changed_vars_; }

  /// Counters for observing the incremental behaviour (tests/benches).
  struct SolveStats {
    size_t solves = 0;        ///< solve() calls that had dirty work to do
    size_t full_solves = 0;   ///< of which ran the from-scratch path
    size_t vars_visited = 0;  ///< cumulative size of the re-solved subsets
    size_t elements_scanned = 0;  ///< row entries read per fill plus re-sum reads
    size_t rounds = 0;  ///< saturation levels filling stepped through
  };
  const SolveStats& solve_stats() const { return stats_; }
  /// Joint solves over coupled solver shards: always 0, as there is one
  /// system. Kept for the benchmark driver's `maxmin.group_solves` metric
  /// (perfbench/), its one reader.
  size_t group_solve_count() const { return 0; }

  /// Footprint introspection (tests / the memory-tracking bench metrics).
  struct MemoryStats {
    size_t live_variables = 0;
    size_t live_constraints = 0;
    size_t arena_nodes_in_use = 0;     ///< nodes currently on some list
    size_t arena_nodes_allocated = 0;  ///< nodes ever created (>= in_use)
    size_t arena_bytes = 0;            ///< bytes held by arena chunks
    size_t soa_bytes = 0;              ///< bytes held by the parallel arrays
    size_t kept_snapshots = 0;         ///< snapshots kept between solves
    size_t snapshot_bytes = 0;         ///< bytes held by the kept snapshots
    size_t total_bytes() const { return arena_bytes + soa_bytes + snapshot_bytes; }
  };
  MemoryStats memory_stats() const;

 private:
  // -- element arena ---------------------------------------------------------
  static constexpr std::int32_t kNoNode = -1;
  static constexpr std::int32_t kNodeEntries = 4;  ///< degree <= 4 fast path
  struct ElemNode {
    std::int32_t count;               ///< live entries in this node
    std::int32_t next;                ///< next node of the list (or free list)
    std::int32_t prev;                ///< previous node of the list
    std::int32_t twin[kNodeEntries];  ///< node of the twin entry in the peer's list
    std::int32_t id[kNodeEntries];    ///< peer id: var ids on a constraint's
                                      ///< list, cnst ids on a variable's list
    double coeff[kNodeEntries];
  };
  static_assert(sizeof(ElemNode) == 80, "the layout notes above assume 80-byte nodes");
  static constexpr size_t kChunkShift = 8;
  static constexpr size_t kChunkNodes = size_t{1} << kChunkShift;  ///< 256 nodes / 20 KiB

  ElemNode& node(std::int32_t i) {
    return chunks_[static_cast<size_t>(i) >> kChunkShift][static_cast<size_t>(i) & (kChunkNodes - 1)];
  }
  const ElemNode& node(std::int32_t i) const {
    return chunks_[static_cast<size_t>(i) >> kChunkShift][static_cast<size_t>(i) & (kChunkNodes - 1)];
  }
  std::int32_t alloc_node();
  void free_node(std::int32_t n);
  /// Append one (peer, coeff) entry to the list rooted at `head`, as the
  /// last entry of the head node, and return that node. The caller sets the
  /// entry's twin.
  std::int32_t list_insert(std::int32_t& head, std::int32_t peer, double coeff);
  /// Remove one entry of `peer` from node `n` of the list rooted at `head`:
  /// the lowest slot holding it, swap-filled from the node's last entry.
  void node_remove(std::int32_t& head, std::int32_t n, std::int32_t peer);
  /// Free the whole chain and reset head to kNoNode.
  void list_free(std::int32_t& head);

  void check_var(VarId var, const char* what) const;
  void check_cnst(CnstId cnst, const char* what) const;

  void mark_var_dirty(VarId var);
  /// need_traverse: the change affects users beyond the dirtied variable
  /// itself (capacity moved). Shared constraints always traverse.
  void mark_cnst_dirty(CnstId cnst, bool need_traverse);

  // -- dense snapshots -------------------------------------------------------
  static constexpr std::int32_t kNoSlot = -1;
  static constexpr std::int32_t kFrozen = -2;
  struct LocalVar {
    double weight;
    double cap;        ///< bound, fatpipe, single-entry and lone-user row caps
    double old_value;  ///< value before the fill
    std::uint32_t edges, edges_end;  ///< its (row, coeff) entries in var_edges
                                     ///< (while collecting: their count)
    std::uint32_t active;  ///< growing entries on filling rows
    std::int32_t slot;     ///< its entry in the level array, kNoSlot, or
                           ///< kFrozen once it has its value (or no weight)
  };
  /// A shared constraint with at least two entries when captured.
  struct LocalRow {
    double capacity;
    double remaining;  ///< capacity minus the frozen users' consumption
    double sum;        ///< coeff * weight over the growing users
    double full_sum;   ///< sum when last summed in full
    std::uint32_t begin, end;  ///< its users in row_entries
    std::uint32_t limit;       ///< [end, limit) is free room for appends
    std::int32_t count;        ///< growing entries left; 0: not filling
    std::int32_t slot;         ///< its entry in the level array
  };
  struct LocalEntry {
    std::int32_t idx;    ///< local variable (row_entries) or row (var_edges)
    std::uint32_t twin;  ///< position of the other copy in the other array
    double coeff;
  };
  /// A closure's dense snapshot: its variables, its shared constraints of
  /// two or more entries as rows, and every incidence between them twice —
  /// once in its row's segment of row_entries, once in its variable's
  /// segment of var_edges, each naming the other's position.
  struct Snapshot {
    std::vector<VarId> vars;  ///< local variable -> VarId
    std::vector<LocalVar> lvars;
    std::vector<CnstId> cnsts;  ///< row -> CnstId
    std::vector<LocalRow> rows;
    std::vector<LocalEntry> row_entries;
    std::vector<LocalEntry> var_edges;
    /// Kept snapshots only: each variable's bound, fatpipe and
    /// single-entry constraint caps (LocalVar::cap is per fill).
    std::vector<double> base_caps;
    size_t entries = 0;  ///< live incidences
    size_t garbage = 0;  ///< slots left behind by moved or released segments
    size_t built = 0;    ///< variables when collected
    bool dirty = false;  ///< a patch since the last fill moved some value
    size_t bytes() const;
  };
  struct Local {
    std::int32_t snap;  ///< kept snapshot id
    std::int32_t idx;   ///< row index there
  };

  // -- affected-closure collection -------------------------------------------
  /// Collect the transitive closure of the dirty seeds into s (which must be
  /// empty), consume the seeds, and lay out its var_edges. kFlagInSet marks
  /// membership while collecting; kFlagTraverse doubles as the "users
  /// queued" marker (it is free then: the dirty seeds that use it are
  /// consumed first). Both markers are cleared before returning.
  void closure_collect(Snapshot& s);
  void closure_add_var(Snapshot& s, VarId v);
  void closure_add_cnst(CnstId c, bool traverse);
  /// Add a shared constraint's users to the closure and capture them as a
  /// row, unless it has a single entry (its user's var pass caps it).
  void capture_row(Snapshot& s, CnstId c);

  /// Progressive filling of a snapshot on one fill level; writes the values
  /// and appends the moved variables to changed_vars_.
  void fill(Snapshot& s);
  /// Reset the per-fill fields from the stored rows: weights, caps, each
  /// row's remaining capacity, sum and count. A row with one growing user
  /// becomes that user's cap. Returns the number of filling rows.
  size_t prime(Snapshot& s);
  /// The general case of fill(): levels, rounds and freezes.
  void fill_levels(Snapshot& s);
  /// Give local variable i its final value x and update the rows it crosses.
  void freeze(Snapshot& s, std::uint32_t i, double x);
  /// Swap-remove an entry of the level array, repointing the moved owner.
  void level_remove(Snapshot& s, std::int32_t slot);

  // -- kept snapshots ----------------------------------------------------------
  /// Keep s (a just-filled closure) when it is one component of at least
  /// kKeepMinVars variables: its variables and rows are flagged kFlagKept and
  /// mutations patch it from then on. A union of components (seeds of one
  /// solve in several of them) is not kept: each would re-solve them all.
  void keep(Snapshot& s);
  /// True when every variable of s reaches every other through its rows.
  bool connected(Snapshot& s);
  /// Forget kept snapshot id. When it has unsolved patches, its variables
  /// become dirty seeds, so the next walk rebuilds what it covered.
  void drop(std::int32_t id);
  Snapshot& kept(std::int32_t id) { return *kept_[static_cast<size_t>(id)]; }
  /// The snapshot of kept variable v and v's base cap there.
  Snapshot& kept_of(VarId v) { return kept(var_snap_[static_cast<size_t>(v)]); }
  double& kept_cap(VarId v) {
    return kept_of(v).base_caps[static_cast<size_t>(var_slot_[static_cast<size_t>(v)])];
  }
  void mark_kept_dirty(std::int32_t id);
  /// Mark v's snapshot dirty when v takes or holds capacity (a weight-0
  /// variable at value 0 moves no one).
  void touch(VarId v);
  /// Bound, fatpipe and single-entry caps of v, from its own element list:
  /// every constraint of v that is not a kept row caps it.
  double base_cap(VarId v) const;
  /// Patch the kept snapshots for an incidence just added to the arena.
  /// False: nothing kept is involved, or a merge dropped it; the caller
  /// marks dirty as usual.
  bool keep_expand(CnstId c, VarId v, double coeff);
  /// Append shared constraint c to kept snapshot id as an empty row.
  std::int32_t add_row(std::int32_t id, CnstId c);
  /// Add v, with its shared constraints that it uses alone, to snapshot id.
  void adopt(std::int32_t id, VarId v);
  /// Store the incidence (row r, local variable i) in s.
  void link(Snapshot& s, std::int32_t r, std::int32_t i, double coeff);
  /// Remove local variable i and its incidences from s.
  void unlink(Snapshot& s, std::int32_t i);

  // -- arena storage ---------------------------------------------------------
  std::vector<std::unique_ptr<ElemNode[]>> chunks_;
  std::int32_t free_nodes_ = kNoNode;  ///< index-linked through ElemNode::next
  std::int32_t arena_size_ = 0;        ///< nodes ever created
  size_t nodes_in_use_ = 0;

  // Per-id bookkeeping bits, one byte per id: the dirty/in-set/alive/active
  // states are always consulted together on the hot path, so packing them
  // costs one cache line per id instead of four.
  static constexpr unsigned char kFlagAlive = 1;
  static constexpr unsigned char kFlagDirty = 2;
  static constexpr unsigned char kFlagInSet = 4;
  static constexpr unsigned char kFlagTraverse = 8;  ///< cnsts: closure must reach users
  static constexpr unsigned char kFlagShared = 16;   ///< cnsts: capacity is divided
  static constexpr unsigned char kFlagKept = 32;     ///< in a kept snapshot

  // -- constraint storage (indexed by CnstId) --------------------------------
  /// Capacity + arena list head + degree, fused: the solver always reads
  /// them together, and four constraints share a cache line.
  struct CnstCore {
    double capacity;
    std::int32_t head;    ///< arena list of users
    std::int32_t degree;  ///< live entries on that list
  };
  std::vector<CnstCore> cnst_core_;
  std::vector<unsigned char> cnst_flags_;
  std::vector<Local> cnst_local_;  ///< its row, while kept (sized on demand)
  std::vector<CnstId> free_cnsts_;
  size_t live_cnsts_ = 0;

  // -- variable storage: hot solve fields as SoA (indexed by VarId) ----------
  std::vector<double> var_weight_;
  std::vector<double> var_bound_;
  std::vector<double> var_value_;
  std::vector<unsigned char> var_flags_;
  struct VarLink {
    std::int32_t head;    ///< arena list of constraints
    std::int32_t degree;  ///< live entries on that list
  };
  std::vector<VarLink> var_link_;
  std::vector<std::int32_t> var_slot_;  ///< local index while collecting or kept
  std::vector<std::int32_t> var_snap_;  ///< kept snapshot id (sized on demand)
  std::vector<VarId> free_vars_;
  size_t live_vars_ = 0;

  // -- dirty tracking --------------------------------------------------------
  std::vector<VarId> dirty_vars_;
  std::vector<CnstId> dirty_cnsts_;
  bool full_solve_pending_ = true;  ///< first solve is always full
  std::vector<VarId> changed_vars_;
  SolveStats stats_;

  // -- snapshots -------------------------------------------------------------
  Snapshot scratch_;  ///< the closure being collected and filled
  std::vector<std::unique_ptr<Snapshot>> kept_;  ///< by id; null: free
  std::vector<std::int32_t> free_kept_;
  size_t kept_live_ = 0;
  std::vector<std::int32_t> dirty_kept_;  ///< kept snapshots to fill

  // -- persistent scratch (reset only for the affected subset, so that an
  //    incremental solve never pays O(system size)) --------------------------
  std::vector<CnstId> affected_cnsts_;
  std::vector<CnstId> traverse_list_;  ///< closure: cnsts whose users must be added
  // The level array: one entry per filling row and per growing capped variable.
  std::vector<double> level_;         ///< saturation level
  std::vector<double> trigger_;       ///< level from which it counts as saturated
  std::vector<std::int32_t> owner_;   ///< row index, or ~local variable
  std::vector<std::int32_t> saturated_;  ///< owners saturating this round
};

}  // namespace sg::core
