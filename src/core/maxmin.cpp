#include "core/maxmin.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "xbt/exception.hpp"
#include "xbt/str.hpp"

namespace sg::core {

namespace {
constexpr double kEps = 1e-9;
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Capacities and weights must be finite and >= 0; coefficients finite and
/// > 0. NaN fails every comparison, so it is rejected too.
void check_amount(const char* call, const char* what, double v, bool positive = false) {
  if ((positive ? v > 0 : v >= 0) && v < kInf)
    return;
  throw xbt::InvalidArgument(std::string(call) + ": " + what + " must be finite and " +
                             (positive ? "positive" : "non-negative") + " (got " +
                             xbt::format("%g", v) + ")");
}

/// A bound may be any number (negative: no bound) except NaN, which would
/// compare false against every rate.
void check_bound(int var, double bound) {
  if (std::isnan(bound))
    throw xbt::InvalidArgument("set_bound: bound of variable " + std::to_string(var) +
                               " must not be NaN (got " + xbt::format("%g", bound) + ")");
}
}  // namespace

// ---------------------------------------------------------------------------
// Element arena
// ---------------------------------------------------------------------------

std::int32_t MaxMinSystem::alloc_node() {
  std::int32_t n;
  if (free_nodes_ != kNoNode) {
    n = free_nodes_;
    free_nodes_ = node(n).next;
  } else {
    if (static_cast<size_t>(arena_size_) == chunks_.size() * kChunkNodes)
      chunks_.push_back(std::make_unique<ElemNode[]>(kChunkNodes));
    n = arena_size_++;
  }
  ++nodes_in_use_;
  ElemNode& nd = node(n);
  nd.count = 0;
  nd.next = kNoNode;
  nd.prev = kNoNode;
  return n;
}

void MaxMinSystem::free_node(std::int32_t n) {
  node(n).next = free_nodes_;
  free_nodes_ = n;
  --nodes_in_use_;
}

std::int32_t MaxMinSystem::list_insert(std::int32_t& head, std::int32_t peer, double coeff) {
  if (head == kNoNode || node(head).count == kNodeEntries) {
    // Prepend a fresh node; entries then fill it from slot 0 up.
    const std::int32_t n = alloc_node();
    node(n).next = head;
    if (head != kNoNode)
      node(head).prev = n;
    head = n;
  }
  ElemNode& nd = node(head);
  nd.id[nd.count] = peer;
  nd.coeff[nd.count] = coeff;
  ++nd.count;
  return head;
}

void MaxMinSystem::node_remove(std::int32_t& head, std::int32_t n, std::int32_t peer) {
  // Removing the lowest slot each time is what a front-to-back scan that
  // swap-removes every entry of `peer` does, so the node ends in the same
  // order however its entries of `peer` are reached. Moved entries stay in
  // their node, so no twin needs repointing.
  ElemNode& nd = node(n);
  std::int32_t k = 0;
  while (nd.id[k] != peer)
    ++k;
  const std::int32_t last = --nd.count;
  nd.id[k] = nd.id[last];
  nd.coeff[k] = nd.coeff[last];
  nd.twin[k] = nd.twin[last];
  if (last > 0)
    return;
  if (nd.prev != kNoNode)
    node(nd.prev).next = nd.next;
  else
    head = nd.next;
  if (nd.next != kNoNode)
    node(nd.next).prev = nd.prev;
  free_node(n);
}

void MaxMinSystem::list_free(std::int32_t& head) {
  while (head != kNoNode) {
    const std::int32_t n = head;
    head = node(n).next;
    free_node(n);
  }
}

// ---------------------------------------------------------------------------
// Id management and mutations
// ---------------------------------------------------------------------------

void MaxMinSystem::check_var(VarId var, const char* what) const {
  if (var < 0 || static_cast<size_t>(var) >= var_weight_.size())
    throw xbt::InvalidArgument(std::string(what) + ": variable id " + std::to_string(var) +
                               " out of range");
}

void MaxMinSystem::check_cnst(CnstId cnst, const char* what) const {
  if (cnst < 0 || static_cast<size_t>(cnst) >= cnst_core_.size())
    throw xbt::InvalidArgument(std::string(what) + ": constraint id " + std::to_string(cnst) +
                               " out of range");
}

void MaxMinSystem::mark_var_dirty(VarId var) {
  if (full_solve_pending_ || (var_flags_[static_cast<size_t>(var)] & kFlagDirty))
    return;
  var_flags_[static_cast<size_t>(var)] |= kFlagDirty;
  dirty_vars_.push_back(var);
}

void MaxMinSystem::mark_cnst_dirty(CnstId cnst, bool need_traverse) {
  if (full_solve_pending_)
    return;
  unsigned char& flags = cnst_flags_[static_cast<size_t>(cnst)];
  // Shared constraints couple their users, so any change propagates to all of
  // them. A fatpipe caps each user independently: only a capacity change
  // (need_traverse) concerns users other than the (separately dirtied)
  // variable being added/removed.
  need_traverse = need_traverse || (flags & kFlagShared);
  if (flags & kFlagDirty) {
    if (need_traverse)
      flags |= kFlagTraverse;
    return;
  }
  flags |= kFlagDirty;
  if (need_traverse)
    flags |= kFlagTraverse;
  else
    flags &= static_cast<unsigned char>(~kFlagTraverse);
  dirty_cnsts_.push_back(cnst);
}

MaxMinSystem::CnstId MaxMinSystem::new_constraint(double capacity, bool shared) {
  check_amount("new_constraint", "capacity", capacity);
  CnstId id;
  if (!free_cnsts_.empty()) {
    id = free_cnsts_.back();
    free_cnsts_.pop_back();
    const size_t i = static_cast<size_t>(id);
    // release_constraint already freed the element list and zeroed the
    // degree; keep the dirty bit as-is (a pending seed is merely harmless).
    cnst_core_[i].capacity = capacity;
    cnst_flags_[i] |= kFlagAlive;
    if (shared)
      cnst_flags_[i] |= kFlagShared;
    else
      cnst_flags_[i] &= static_cast<unsigned char>(~kFlagShared);
  } else {
    id = static_cast<CnstId>(cnst_core_.size());
    cnst_core_.push_back({capacity, kNoNode, 0});
    cnst_flags_.push_back(static_cast<unsigned char>(kFlagAlive | (shared ? kFlagShared : 0)));
  }
  ++live_cnsts_;
  return id;
}

void MaxMinSystem::release_constraint(CnstId cnst) {
  check_cnst(cnst, "release_constraint");
  const size_t i = static_cast<size_t>(cnst);
  if (!(cnst_flags_[i] & kFlagAlive))
    return;
  // A kept snapshot is not patched for this: drop the snapshots it touches
  // (a row's own, or its kept users' for a cap).
  if (cnst_flags_[i] & kFlagKept)
    drop(cnst_local_[i].snap);
  else if (kept_live_ > 0)
    for_each_variable_on(cnst, [&](VarId v, double) {
      if (var_flags_[static_cast<size_t>(v)] & kFlagKept)
        drop(var_snap_[static_cast<size_t>(v)]);
    });
  cnst_flags_[i] &= static_cast<unsigned char>(~kFlagAlive);
  // Every user loses a cap/share: unlink each twin entry and re-solve the
  // freed variables' components.
  for (std::int32_t n = cnst_core_[i].head; n != kNoNode; n = node(n).next) {
    const ElemNode& nd = node(n);
    for (std::int32_t k = 0; k < nd.count; ++k) {
      const VarId v = nd.id[k];
      VarLink& vl = var_link_[static_cast<size_t>(v)];
      node_remove(vl.head, nd.twin[k], cnst);
      --vl.degree;
      mark_var_dirty(v);
    }
  }
  list_free(cnst_core_[i].head);
  cnst_core_[i].degree = 0;
  free_cnsts_.push_back(cnst);
  --live_cnsts_;
}

MaxMinSystem::VarId MaxMinSystem::new_variable(double weight, double bound) {
  check_amount("new_variable", "weight", weight);
  VarId id;
  if (!free_vars_.empty()) {
    // Recycle in place: the SoA slots and the (just-freed, cache-hot) arena
    // nodes of the released variable are what churn workloads re-use.
    id = free_vars_.back();
    free_vars_.pop_back();
    const size_t i = static_cast<size_t>(id);
    var_weight_[i] = weight;
    var_bound_[i] = bound;
    var_value_[i] = 0;
    var_flags_[i] |= kFlagAlive;
  } else {
    id = static_cast<VarId>(var_weight_.size());
    var_weight_.push_back(weight);
    var_bound_.push_back(bound);
    var_value_.push_back(0);
    var_flags_.push_back(kFlagAlive);
    var_link_.push_back({kNoNode, 0});
    var_slot_.push_back(0);
  }
  ++live_vars_;
  mark_var_dirty(id);
  return id;
}

void MaxMinSystem::expand(CnstId cnst, VarId var, double coeff) {
  check_amount("expand", "coefficient", coeff, /*positive=*/true);
  check_cnst(cnst, "expand");
  check_var(var, "expand");
  if (!(var_flags_[static_cast<size_t>(var)] & kFlagAlive))
    throw xbt::InvalidArgument("expand: variable id " + std::to_string(var) + " was released");
  if (!(cnst_flags_[static_cast<size_t>(cnst)] & kFlagAlive))
    throw xbt::InvalidArgument("expand: constraint id " + std::to_string(cnst) + " was released");
  CnstCore& cc = cnst_core_[static_cast<size_t>(cnst)];
  ElemNode& on_cnst = node(list_insert(cc.head, var, coeff));
  ++cc.degree;
  VarLink& vl = var_link_[static_cast<size_t>(var)];
  ElemNode& on_var = node(list_insert(vl.head, cnst, coeff));
  ++vl.degree;
  // Each new entry is the last of its list's head node.
  on_cnst.twin[on_cnst.count - 1] = vl.head;
  on_var.twin[on_var.count - 1] = cc.head;
  if (kept_live_ > 0 && keep_expand(cnst, var, coeff))
    return;
  // The constraint's existing users must re-share with the newcomer
  // (membership change: fatpipes stay cap-only).
  mark_cnst_dirty(cnst, /*need_traverse=*/false);
  mark_var_dirty(var);
}

void MaxMinSystem::release_variable(VarId var) {
  check_var(var, "release_variable");
  const size_t i = static_cast<size_t>(var);
  if (!(var_flags_[i] & kFlagAlive))
    return;
  // A kept variable leaves its snapshot; its other constraints only cap it
  // (fat pipes, single-entry ones), so nothing else is marked.
  const bool kept_var = (var_flags_[i] & kFlagKept) != 0;
  if (kept_var) {
    touch(var);
    unlink(kept_of(var), var_slot_[i]);
  }
  var_flags_[i] &= static_cast<unsigned char>(~(kFlagAlive | kFlagKept));
  var_value_[i] = 0;
  for (std::int32_t n = var_link_[i].head; n != kNoNode; n = node(n).next) {
    const ElemNode& nd = node(n);
    for (std::int32_t k = 0; k < nd.count; ++k) {
      // Eager removal: a stale element would silently re-attach to whatever
      // variable later recycles this id. The twin link makes it O(1) per
      // incidence, however many users the constraint has.
      const CnstId c = nd.id[k];
      CnstCore& cc = cnst_core_[static_cast<size_t>(c)];
      node_remove(cc.head, nd.twin[k], var);
      --cc.degree;
      // The freed share must be redistributed among the constraint's users
      // (membership change: fatpipes stay cap-only).
      if (!kept_var)
        mark_cnst_dirty(c, /*need_traverse=*/false);
    }
  }
  list_free(var_link_[i].head);
  var_link_[i].degree = 0;
  free_vars_.push_back(var);
  --live_vars_;
}

void MaxMinSystem::set_capacity(CnstId cnst, double capacity) {
  check_amount("set_capacity", "capacity", capacity);
  check_cnst(cnst, "set_capacity");
  CnstCore& cc = cnst_core_[static_cast<size_t>(cnst)];
  if (cc.capacity == capacity)
    return;
  cc.capacity = capacity;
  const size_t i = static_cast<size_t>(cnst);
  if (cnst_flags_[i] & kFlagKept) {
    Snapshot& s = kept(cnst_local_[i].snap);
    s.rows[static_cast<size_t>(cnst_local_[i].idx)].capacity = capacity;
    mark_kept_dirty(cnst_local_[i].snap);
    return;
  }
  if (kept_live_ > 0 && (!(cnst_flags_[i] & kFlagShared) || cc.degree == 1)) {
    // A cap (a fat pipe, or a single entry): refold its kept users' caps;
    // the walk re-solves the rest.
    bool others = false;
    for_each_variable_on(cnst, [&](VarId v, double) {
      if (!(var_flags_[static_cast<size_t>(v)] & kFlagKept)) {
        others = true;
        return;
      }
      kept_cap(v) = base_cap(v);
      touch(v);
    });
    if (!others)
      return;
  }
  // A capacity change moves every user's cap, so fatpipes traverse too.
  mark_cnst_dirty(cnst, /*need_traverse=*/true);
}

double MaxMinSystem::capacity(CnstId cnst) const {
  check_cnst(cnst, "capacity");
  return cnst_core_[static_cast<size_t>(cnst)].capacity;
}

void MaxMinSystem::set_weight(VarId var, double weight) {
  check_var(var, "set_weight");
  check_amount("set_weight", "weight", weight);
  if (var_weight_[static_cast<size_t>(var)] == weight)
    return;
  const size_t i = static_cast<size_t>(var);
  var_weight_[i] = weight;
  if (var_flags_[i] & kFlagKept) {
    kept_of(var).lvars[static_cast<size_t>(var_slot_[i])].weight = weight;
    mark_kept_dirty(var_snap_[i]);
  } else if (var_flags_[i] & kFlagAlive) {
    mark_var_dirty(var);
  }
}

double MaxMinSystem::weight(VarId var) const {
  check_var(var, "weight");
  return var_weight_[static_cast<size_t>(var)];
}

void MaxMinSystem::set_bound(VarId var, double bound) {
  check_var(var, "set_bound");
  check_bound(var, bound);
  if (var_bound_[static_cast<size_t>(var)] == bound)
    return;
  const size_t i = static_cast<size_t>(var);
  var_bound_[i] = bound;
  if (var_flags_[i] & kFlagKept) {
    kept_cap(var) = base_cap(var);
    touch(var);
  } else if (var_flags_[i] & kFlagAlive) {
    mark_var_dirty(var);
  }
}

double MaxMinSystem::bound(VarId var) const {
  check_var(var, "bound");
  return var_bound_[static_cast<size_t>(var)];
}

double MaxMinSystem::value(VarId var) const {
  check_var(var, "value");
  return var_value_[static_cast<size_t>(var)];
}

double MaxMinSystem::usage(CnstId cnst) const {
  check_cnst(cnst, "usage");
  const bool shared = (cnst_flags_[static_cast<size_t>(cnst)] & kFlagShared) != 0;
  double total = 0;
  for (std::int32_t n = cnst_core_[static_cast<size_t>(cnst)].head; n != kNoNode; n = node(n).next) {
    const ElemNode& nd = node(n);
    for (std::int32_t k = 0; k < nd.count; ++k) {
      const double u = nd.coeff[k] * var_value_[static_cast<size_t>(nd.id[k])];
      total = shared ? total + u : std::max(total, u);
    }
  }
  return total;
}

size_t MaxMinSystem::constraint_degree(CnstId cnst) const {
  check_cnst(cnst, "constraint_degree");
  return static_cast<size_t>(cnst_core_[static_cast<size_t>(cnst)].degree);
}

size_t MaxMinSystem::variable_degree(VarId var) const {
  check_var(var, "variable_degree");
  return static_cast<size_t>(var_link_[static_cast<size_t>(var)].degree);
}

MaxMinSystem::MemoryStats MaxMinSystem::memory_stats() const {
  MemoryStats m;
  m.live_variables = live_vars_;
  m.live_constraints = live_cnsts_;
  m.arena_nodes_in_use = nodes_in_use_;
  m.arena_nodes_allocated = static_cast<size_t>(arena_size_);
  m.arena_bytes = chunks_.size() * kChunkNodes * sizeof(ElemNode);
  auto cap_bytes = [](const auto& v) { return v.capacity() * sizeof(v[0]); };
  m.soa_bytes = cap_bytes(cnst_core_) + cap_bytes(cnst_flags_) + cap_bytes(cnst_local_) +
                cap_bytes(free_cnsts_) + cap_bytes(var_weight_) + cap_bytes(var_bound_) +
                cap_bytes(var_value_) + cap_bytes(var_flags_) + cap_bytes(var_link_) +
                cap_bytes(var_slot_) + cap_bytes(var_snap_) + cap_bytes(free_vars_);
  m.kept_snapshots = kept_live_;
  for (const auto& s : kept_)
    if (s)
      m.snapshot_bytes += sizeof(Snapshot) + s->bytes();
  return m;
}

// ---------------------------------------------------------------------------
// Kept snapshots
// ---------------------------------------------------------------------------

size_t MaxMinSystem::Snapshot::bytes() const {
  auto cap_bytes = [](const auto& v) { return v.capacity() * sizeof(v[0]); };
  return cap_bytes(vars) + cap_bytes(lvars) + cap_bytes(cnsts) + cap_bytes(rows) +
         cap_bytes(row_entries) + cap_bytes(var_edges) + cap_bytes(base_caps);
}

bool MaxMinSystem::connected(Snapshot& s) {
  // The fill is over, so the slot fields are free to mark what was reached;
  // saturated_ is the queue.
  for (LocalVar& lv : s.lvars)
    lv.slot = kNoSlot;
  for (LocalRow& row : s.rows)
    row.slot = kNoSlot;
  saturated_.assign(1, 0);
  s.lvars[0].slot = 0;
  for (size_t q = 0; q < saturated_.size(); ++q) {
    const LocalVar& lv = s.lvars[static_cast<size_t>(saturated_[q])];
    for (std::uint32_t e = lv.edges; e < lv.edges_end; ++e) {
      LocalRow& row = s.rows[static_cast<size_t>(s.var_edges[e].idx)];
      if (row.slot == 0)
        continue;
      row.slot = 0;
      for (std::uint32_t k = row.begin; k < row.end; ++k) {
        const std::int32_t i = s.row_entries[k].idx;
        if (s.lvars[static_cast<size_t>(i)].slot != 0) {
          s.lvars[static_cast<size_t>(i)].slot = 0;
          saturated_.push_back(i);
        }
      }
    }
  }
  return saturated_.size() == s.vars.size();
}

void MaxMinSystem::keep(Snapshot& s) {
  if (s.vars.size() < kKeepMinVars || !connected(s))
    return;
  std::int32_t id;
  if (!free_kept_.empty()) {
    id = free_kept_.back();
    free_kept_.pop_back();
  } else {
    id = static_cast<std::int32_t>(kept_.size());
    kept_.emplace_back();
  }
  for (size_t r = 0; r < s.cnsts.size(); ++r) {
    const CnstId c = s.cnsts[r];
    if (cnst_local_.size() <= static_cast<size_t>(c))
      cnst_local_.resize(static_cast<size_t>(c) + 1);
    cnst_flags_[static_cast<size_t>(c)] |= kFlagKept;
    cnst_local_[static_cast<size_t>(c)] = {id, static_cast<std::int32_t>(r)};
  }
  // The fill folded lone rows into the caps: take the base caps afresh,
  // now that the rows are flagged.
  s.base_caps.resize(s.vars.size());
  for (size_t i = 0; i < s.vars.size(); ++i) {
    const VarId v = s.vars[i];  // its var_slot_ is the walk's local index
    if (var_snap_.size() <= static_cast<size_t>(v))
      var_snap_.resize(static_cast<size_t>(v) + 1);
    var_flags_[static_cast<size_t>(v)] |= kFlagKept;
    var_snap_[static_cast<size_t>(v)] = id;
    s.base_caps[i] = base_cap(v);
  }
  kept_[static_cast<size_t>(id)] = std::make_unique<Snapshot>(std::move(s));
  s = Snapshot();
  ++kept_live_;
}

void MaxMinSystem::drop(std::int32_t id) {
  Snapshot& s = kept(id);
  for (VarId v : s.vars) {
    var_flags_[static_cast<size_t>(v)] &= static_cast<unsigned char>(~kFlagKept);
    if (s.dirty)
      mark_var_dirty(v);
  }
  for (CnstId c : s.cnsts)
    cnst_flags_[static_cast<size_t>(c)] &= static_cast<unsigned char>(~kFlagKept);
  kept_[static_cast<size_t>(id)].reset();  // a stale id in dirty_kept_ now reads null
  free_kept_.push_back(id);
  --kept_live_;
}

void MaxMinSystem::mark_kept_dirty(std::int32_t id) {
  Snapshot& s = kept(id);
  if (!s.dirty) {
    s.dirty = true;
    dirty_kept_.push_back(id);
  }
}

void MaxMinSystem::touch(VarId v) {
  const size_t i = static_cast<size_t>(v);
  if (var_weight_[i] > 0 || var_value_[i] != 0)
    mark_kept_dirty(var_snap_[i]);
}

double MaxMinSystem::base_cap(VarId v) const {
  const double b = var_bound_[static_cast<size_t>(v)];
  double cap = b >= 0 ? b : kInf;
  for_each_constraint_of(v, [&](CnstId c, double coeff) {
    if (!(cnst_flags_[static_cast<size_t>(c)] & kFlagKept))
      cap = std::min(cap, cnst_core_[static_cast<size_t>(c)].capacity / coeff);
  });
  return cap;
}

bool MaxMinSystem::keep_expand(CnstId c, VarId v, double coeff) {
  const size_t vi = static_cast<size_t>(v);
  const size_t ci = static_cast<size_t>(c);
  const bool shared = (cnst_flags_[ci] & kFlagShared) != 0;
  const std::int32_t degree = cnst_core_[ci].degree;  // the new entry included
  if (shared && degree == 2 && !(cnst_flags_[ci] & kFlagKept)) {
    // c was a single-entry cap. If its first user is kept, c becomes a row
    // of that user's snapshot. The new entry is the last of the head node,
    // so the first one sits just before it.
    const ElemNode& head = node(cnst_core_[ci].head);
    const ElemNode& nd = head.count > 1 ? head : node(head.next);
    const VarId w = nd.id[head.count > 1 ? head.count - 2 : 0];
    const double w_coeff = nd.coeff[head.count > 1 ? head.count - 2 : 0];
    if (var_flags_[static_cast<size_t>(w)] & kFlagKept) {
      const std::int32_t id = var_snap_[static_cast<size_t>(w)];
      link(kept(id), add_row(id, c), var_slot_[static_cast<size_t>(w)], w_coeff);
      kept_cap(w) = base_cap(w);
      touch(w);
    }
  }
  const bool v_kept = (var_flags_[vi] & kFlagKept) != 0;
  const bool c_kept = (cnst_flags_[ci] & kFlagKept) != 0;
  if (!v_kept && !c_kept)
    return false;
  if (!shared || (!c_kept && degree == 1)) {  // a fat pipe or an idle link: a cap on v
    double& cap = kept_cap(v);
    cap = std::min(cap, cnst_core_[ci].capacity / coeff);
    touch(v);
    return true;
  }
  if (v_kept && c_kept) {
    if (var_snap_[vi] == cnst_local_[ci].snap) {
      link(kept_of(v), cnst_local_[ci].idx, var_slot_[vi], coeff);
      touch(v);
      return true;
    }
  } else if (c_kept) {
    // A fresh variable joins when every other shared constraint it crosses
    // is its alone (the first hops of a route may be idle links).
    bool alone = true;
    for_each_constraint_of(v, [&](CnstId d, double) {
      if (d != c && (cnst_flags_[static_cast<size_t>(d)] & kFlagShared))
        for_each_variable_on(d, [&](VarId u, double) { alone = alone && u == v; });
    });
    if (alone) {
      adopt(cnst_local_[ci].snap, v);
      touch(v);
      return true;
    }
  }
  // A merge: forget what it couples, and let the walk collect the union.
  if (v_kept)
    drop(var_snap_[vi]);
  if (c_kept)
    drop(cnst_local_[ci].snap);
  return false;
}

std::int32_t MaxMinSystem::add_row(std::int32_t id, CnstId c) {
  Snapshot& s = kept(id);
  const auto r = static_cast<std::int32_t>(s.rows.size());
  const auto at = static_cast<std::uint32_t>(s.row_entries.size());
  s.cnsts.push_back(c);
  s.rows.push_back({cnst_core_[static_cast<size_t>(c)].capacity, 0, 0, 0, at, at, at, 0, kNoSlot});
  // A pending seed of c is served by the snapshot from now on.
  unsigned char& flags = cnst_flags_[static_cast<size_t>(c)];
  flags = static_cast<unsigned char>((flags | kFlagKept) & ~(kFlagDirty | kFlagTraverse));
  if (cnst_local_.size() <= static_cast<size_t>(c))
    cnst_local_.resize(static_cast<size_t>(c) + 1);
  cnst_local_[static_cast<size_t>(c)] = {id, r};
  return r;
}

void MaxMinSystem::adopt(std::int32_t id, VarId v) {
  Snapshot& s = kept(id);
  const auto i = static_cast<std::int32_t>(s.vars.size());
  const auto at = static_cast<std::uint32_t>(s.var_edges.size());
  s.vars.push_back(v);
  s.lvars.push_back({var_weight_[static_cast<size_t>(v)], kInf, 0, at, at, 0, kNoSlot});
  unsigned char& flags = var_flags_[static_cast<size_t>(v)];
  flags = static_cast<unsigned char>((flags | kFlagKept) & ~kFlagDirty);
  if (var_snap_.size() <= static_cast<size_t>(v))
    var_snap_.resize(static_cast<size_t>(v) + 1);
  var_snap_[static_cast<size_t>(v)] = id;
  var_slot_[static_cast<size_t>(v)] = i;
  // Its kept rows, and the constraints it crosses more than once alone,
  // are rows; the rest cap it.
  for_each_constraint_of(v, [&](CnstId c, double coeff) {
    const size_t ci = static_cast<size_t>(c);
    if (cnst_flags_[ci] & kFlagKept)
      link(s, cnst_local_[ci].idx, i, coeff);
    else if ((cnst_flags_[ci] & kFlagShared) && cnst_core_[ci].degree > 1)
      link(s, add_row(id, c), i, coeff);
  });
  s.base_caps.push_back(base_cap(v));
}

void MaxMinSystem::link(Snapshot& s, std::int32_t r, std::int32_t i, double coeff) {
  // Both segments grow at their end. A variable's edges move to the end of
  // var_edges unless they are there already; a full row moves to the end of
  // row_entries with as much room again. Moved entries repoint their twins.
  LocalVar& lv = s.lvars[static_cast<size_t>(i)];
  if (lv.edges_end != s.var_edges.size()) {
    const auto at = static_cast<std::uint32_t>(s.var_edges.size());
    for (std::uint32_t e = lv.edges; e < lv.edges_end; ++e) {
      const LocalEntry moved = s.var_edges[e];
      s.row_entries[moved.twin].twin = static_cast<std::uint32_t>(s.var_edges.size());
      s.var_edges.push_back(moved);
    }
    s.garbage += lv.edges_end - lv.edges;
    lv.edges_end = static_cast<std::uint32_t>(s.var_edges.size());
    lv.edges = at;
  }
  LocalRow& row = s.rows[static_cast<size_t>(r)];
  if (row.end == row.limit) {
    const std::uint32_t n = row.end - row.begin;
    const std::uint32_t room = std::max<std::uint32_t>(4, n);
    if (row.limit != s.row_entries.size()) {
      const auto at = static_cast<std::uint32_t>(s.row_entries.size());
      s.row_entries.resize(at + n);
      for (std::uint32_t k = 0; k < n; ++k) {
        const LocalEntry moved = s.row_entries[row.begin + k];
        s.var_edges[moved.twin].twin = at + k;
        s.row_entries[at + k] = moved;
      }
      s.garbage += row.limit - row.begin;
      row.begin = at;
      row.end = row.limit = at + n;
    }
    s.row_entries.resize(row.limit + room);
    row.limit += room;
  }
  s.row_entries[row.end] = {i, lv.edges_end, coeff};
  s.var_edges.push_back({r, row.end, coeff});
  ++row.end;
  ++lv.edges_end;
  ++s.entries;
}

void MaxMinSystem::unlink(Snapshot& s, std::int32_t i) {
  LocalVar& lv = s.lvars[static_cast<size_t>(i)];
  for (std::uint32_t e = lv.edges; e < lv.edges_end; ++e) {
    // Swap-fill the freed row entry from its row's last one.
    LocalRow& row = s.rows[static_cast<size_t>(s.var_edges[e].idx)];
    const std::uint32_t p = s.var_edges[e].twin;
    const std::uint32_t last = --row.end;
    if (p != last) {
      s.row_entries[p] = s.row_entries[last];
      s.var_edges[s.row_entries[p].twin].twin = p;
    }
  }
  s.entries -= lv.edges_end - lv.edges;
  if (lv.edges_end == s.var_edges.size())
    s.var_edges.resize(lv.edges);
  else
    s.garbage += lv.edges_end - lv.edges;
  // Swap-remove the local variable, renumbering the moved one's entries.
  const size_t last = s.vars.size() - 1;
  if (static_cast<size_t>(i) != last) {
    s.vars[static_cast<size_t>(i)] = s.vars[last];
    s.lvars[static_cast<size_t>(i)] = s.lvars[last];
    s.base_caps[static_cast<size_t>(i)] = s.base_caps[last];
    var_slot_[static_cast<size_t>(s.vars[last])] = i;
    const LocalVar& moved = s.lvars[static_cast<size_t>(i)];
    for (std::uint32_t e = moved.edges; e < moved.edges_end; ++e)
      s.row_entries[s.var_edges[e].twin].idx = i;
  }
  s.vars.pop_back();
  s.lvars.pop_back();
  s.base_caps.pop_back();
}

// ---------------------------------------------------------------------------
// Solving
// ---------------------------------------------------------------------------

void MaxMinSystem::closure_add_var(Snapshot& s, VarId v) {
  unsigned char& flags = var_flags_[static_cast<size_t>(v)];
  // Kept variables are only ever reached through a capacity-dirty cap, which
  // already refolded theirs.
  if ((flags & (kFlagInSet | kFlagAlive | kFlagKept)) == kFlagAlive) {
    // kFlagDirty is clear here, except in solve_full(), where it marks the
    // variables that no component filled yet.
    flags = static_cast<unsigned char>((flags | kFlagInSet) & ~kFlagDirty);
    var_slot_[static_cast<size_t>(v)] = static_cast<std::int32_t>(s.vars.size());
    s.vars.push_back(v);
    const double b = var_bound_[static_cast<size_t>(v)];
    s.lvars.push_back({var_weight_[static_cast<size_t>(v)], b >= 0 ? b : kInf, 0, 0, 0, 0, kNoSlot});
  }
}

void MaxMinSystem::closure_add_cnst(CnstId c, bool traverse) {
  unsigned char& flags = cnst_flags_[static_cast<size_t>(c)];
  if (!(flags & kFlagAlive))
    return;
  if (!(flags & kFlagInSet)) {
    flags |= kFlagInSet;
    affected_cnsts_.push_back(c);
  }
  // While collecting, kFlagTraverse marks "users queued", so the users of a
  // traversed constraint are reached exactly once.
  if (traverse && !(flags & kFlagTraverse)) {
    flags |= kFlagTraverse;
    traverse_list_.push_back(c);
  }
}

void MaxMinSystem::capture_row(Snapshot& s, CnstId c) {
  const CnstCore& cc = cnst_core_[static_cast<size_t>(c)];
  if (cc.degree == 1) {  // a cap, which its user's var pass folds
    for_each_variable_on(c, [&](VarId v, double) { closure_add_var(s, v); });
    return;
  }
  const auto begin = static_cast<std::uint32_t>(s.row_entries.size());
  for_each_variable_on(c, [&](VarId v, double coeff) {
    closure_add_var(s, v);
    const std::int32_t i = var_slot_[static_cast<size_t>(v)];
    s.row_entries.push_back({i, 0, coeff});
    ++s.lvars[static_cast<size_t>(i)].edges;  // counted here, laid out by closure_collect()
  });
  const auto end = static_cast<std::uint32_t>(s.row_entries.size());
  if (end == begin)
    return;
  s.cnsts.push_back(c);
  s.rows.push_back({cc.capacity, 0, 0, 0, begin, end, end, 0, kNoSlot});
}

void MaxMinSystem::closure_collect(Snapshot& s) {
  s.vars.clear();
  s.lvars.clear();
  s.cnsts.clear();
  s.rows.clear();
  s.row_entries.clear();
  affected_cnsts_.clear();
  traverse_list_.clear();

  // Transitive closure of the dirty seeds over the variable-constraint graph:
  // the union of the connected components whose allocation can have changed.
  // Fatpipe constraints cap each user individually and do not couple them, so
  // they do not propagate the closure var -> fatpipe -> other vars: they are
  // included cap-only (traversed only when capacity-dirty themselves). This
  // keeps a shared backbone fatpipe from merging every flow into one
  // component. A membership-dirty fatpipe stays cap-only — adding/removing
  // one user does not move the others' caps. A seed whose dirty bit is clear
  // was taken over by a kept snapshot.
  for (CnstId c : dirty_cnsts_) {
    unsigned char& flags = cnst_flags_[static_cast<size_t>(c)];
    if (!(flags & kFlagDirty))
      continue;
    const bool traverse = (flags & kFlagTraverse) != 0;
    flags &= static_cast<unsigned char>(~(kFlagDirty | kFlagTraverse));
    closure_add_cnst(c, traverse);
  }
  dirty_cnsts_.clear();
  for (VarId v : dirty_vars_) {
    unsigned char& flags = var_flags_[static_cast<size_t>(v)];
    if (!(flags & kFlagDirty))
      continue;
    flags &= static_cast<unsigned char>(~kFlagDirty);
    closure_add_var(s, v);
  }
  dirty_vars_.clear();

  // Worklist to exhaustion. Each variable's own list gives its caps — fat
  // pipes and single-entry shared constraints; a fat pipe's other users are
  // never walked — and each shared constraint's list, walked once, gives its
  // row.
  size_t vi = 0;
  size_t ti = 0;
  while (vi < s.vars.size() || ti < traverse_list_.size()) {
    if (vi < s.vars.size()) {
      const VarId v = s.vars[vi];
      double& cap = s.lvars[vi++].cap;
      for_each_constraint_of(v, [&](CnstId c, double coeff) {
        const CnstCore& cc = cnst_core_[static_cast<size_t>(c)];
        const bool row = (cnst_flags_[static_cast<size_t>(c)] & kFlagShared) && cc.degree > 1;
        closure_add_cnst(c, row);
        if (!row)
          cap = std::min(cap, cc.capacity / coeff);
      });
    } else {
      const CnstId c = traverse_list_[ti++];
      if (cnst_flags_[static_cast<size_t>(c)] & kFlagShared)
        capture_row(s, c);
      else
        for_each_variable_on(c, [&](VarId v, double) { closure_add_var(s, v); });
    }
  }

  for (VarId v : s.vars)
    var_flags_[static_cast<size_t>(v)] &= static_cast<unsigned char>(~kFlagInSet);
  for (CnstId c : affected_cnsts_)
    cnst_flags_[static_cast<size_t>(c)] &= static_cast<unsigned char>(~(kFlagInSet | kFlagTraverse));

  // Each variable's (row, coeff) edges, by counting: capture_row() counted
  // them, edges becomes the end of its range, then a walk of the rows from
  // the last entry down fills each range from its end.
  s.var_edges.resize(s.row_entries.size());
  std::uint32_t total = 0;
  for (LocalVar& lv : s.lvars)
    lv.edges = lv.edges_end = total += lv.edges;
  for (size_t r = s.rows.size(); r-- > 0;)
    for (std::uint32_t k = s.rows[r].end; k-- > s.rows[r].begin;) {
      LocalEntry& entry = s.row_entries[k];
      const std::uint32_t e = --s.lvars[static_cast<size_t>(entry.idx)].edges;
      s.var_edges[e] = {static_cast<std::int32_t>(r), k, entry.coeff};
      entry.twin = e;
    }
  s.entries = s.row_entries.size();
  s.garbage = 0;
  s.built = s.vars.size();
}

void MaxMinSystem::solve() {
  if (full_solve_pending_) {
    solve_full();
    return;
  }
  changed_vars_.clear();
  if (!needs_solve())
    return;
  ++stats_.solves;
  // Kept snapshots fill from their stored rows. One that a split has left
  // covering fewer than half the variables it was built with, or whose
  // patches left more dead room than live entries, is dropped instead: its
  // variables become seeds and the walk below collects them afresh.
  for (std::int32_t id : dirty_kept_) {
    if (!kept_[static_cast<size_t>(id)])
      continue;
    Snapshot& s = kept(id);
    if (2 * s.vars.size() < s.built || s.garbage > s.entries + 64) {
      drop(id);
      continue;
    }
    s.dirty = false;
    fill(s);
  }
  dirty_kept_.clear();
  if (dirty_vars_.empty() && dirty_cnsts_.empty())
    return;
  closure_collect(scratch_);
  fill(scratch_);
  keep(scratch_);
}

void MaxMinSystem::solve_full() {
  // The oracle path: forget every kept snapshot and rebuild from the arena.
  for (size_t id = 0; id < kept_.size(); ++id)
    if (kept_[id]) {
      kept_[id]->dirty = false;
      drop(static_cast<std::int32_t>(id));
    }
  dirty_kept_.clear();
  // Every live variable is a seed, marked dirty until a component reaches
  // it. Filling one component at a time sizes the snapshot by the largest
  // component, not by the system.
  for (unsigned char& flags : var_flags_)
    flags = static_cast<unsigned char>((flags & kFlagAlive) ? flags | kFlagDirty : flags & ~kFlagDirty);
  dirty_vars_.clear();
  for (CnstId c : dirty_cnsts_)
    cnst_flags_[static_cast<size_t>(c)] &= static_cast<unsigned char>(~(kFlagDirty | kFlagTraverse));
  dirty_cnsts_.clear();
  full_solve_pending_ = false;
  ++stats_.solves;
  ++stats_.full_solves;
  changed_vars_.clear();
  for (size_t i = 0; i < var_flags_.size(); ++i) {
    if (!(var_flags_[i] & kFlagDirty))
      continue;
    dirty_vars_.push_back(static_cast<VarId>(i));
    closure_collect(scratch_);
    fill(scratch_);
    keep(scratch_);
  }
}

void MaxMinSystem::level_remove(Snapshot& s, std::int32_t slot) {
  const size_t k = static_cast<size_t>(slot);
  level_[k] = level_.back();
  trigger_[k] = trigger_.back();
  owner_[k] = owner_.back();
  const std::int32_t o = owner_[k];
  (o >= 0 ? s.rows[static_cast<size_t>(o)].slot : s.lvars[static_cast<size_t>(~o)].slot) = slot;
  level_.pop_back();
  trigger_.pop_back();
  owner_.pop_back();
}

void MaxMinSystem::freeze(Snapshot& s, std::uint32_t i, double x) {
  LocalVar& lv = s.lvars[i];
  var_value_[static_cast<size_t>(s.vars[i])] = x;
  if (lv.slot != kNoSlot)
    level_remove(s, lv.slot);  // may rewrite lv.slot when it was the last entry
  lv.slot = kFrozen;
  for (std::uint32_t e = lv.edges; e < lv.edges_end; ++e) {
    LocalRow& row = s.rows[static_cast<size_t>(s.var_edges[e].idx)];
    if (row.count == 0)
      continue;
    row.remaining -= s.var_edges[e].coeff * x;
    row.sum -= s.var_edges[e].coeff * lv.weight;
    if (--row.count == 0)
      level_remove(s, row.slot);
  }
  // Re-level once every entry is subtracted: a variable expanded twice on a
  // row crosses it twice.
  for (std::uint32_t e = lv.edges; e < lv.edges_end; ++e) {
    LocalRow& row = s.rows[static_cast<size_t>(s.var_edges[e].idx)];
    if (row.count == 0)
      continue;
    if (row.sum < 1e-6 * row.full_sum) {  // cancellation: sum the survivors afresh
      row.sum = 0;
      for (std::uint32_t k = row.begin; k < row.end; ++k) {
        const LocalVar& u = s.lvars[static_cast<size_t>(s.row_entries[k].idx)];
        if (u.slot != kFrozen)
          row.sum += s.row_entries[k].coeff * u.weight;
      }
      row.full_sum = row.sum;
      stats_.elements_scanned += row.end - row.begin;
    }
    level_[static_cast<size_t>(row.slot)] = row.remaining / row.sum;
    trigger_[static_cast<size_t>(row.slot)] =
        (row.remaining - kEps * std::max(1.0, row.capacity)) / row.sum;
  }
}

size_t MaxMinSystem::prime(Snapshot& s) {
  const bool kept = !s.base_caps.empty();
  for (size_t i = 0; i < s.vars.size(); ++i) {
    LocalVar& lv = s.lvars[i];
    if (kept)  // a fresh walk folded them already
      lv.cap = s.base_caps[i];
    lv.old_value = var_value_[static_cast<size_t>(s.vars[i])];
    lv.active = 0;
    lv.slot = lv.weight > 0 ? kNoSlot : kFrozen;
  }
  size_t filling = 0;
  for (LocalRow& row : s.rows) {
    double sum = 0;
    double coeffs = 0;
    std::int32_t count = 0;
    std::int32_t first = 0;
    bool lone = true;  // every growing entry is the same variable's
    for (std::uint32_t k = row.begin; k < row.end; ++k) {
      const LocalEntry& entry = s.row_entries[k];
      LocalVar& lv = s.lvars[static_cast<size_t>(entry.idx)];
      if (lv.slot == kFrozen)
        continue;
      sum += entry.coeff * lv.weight;
      coeffs += entry.coeff;
      if (count++ == 0)
        first = entry.idx;
      lone = lone && entry.idx == first;
      ++lv.active;
    }
    stats_.elements_scanned += row.end - row.begin;
    row.remaining = row.capacity;
    row.slot = kNoSlot;
    row.count = 0;
    if (count == 0)
      continue;
    if (lone) {  // a cap, as a fat pipe is
      LocalVar& lv = s.lvars[static_cast<size_t>(first)];
      lv.cap = std::min(lv.cap, row.capacity / coeffs);
      lv.active -= static_cast<std::uint32_t>(count);
      continue;
    }
    row.sum = row.full_sum = sum;
    row.count = count;
    ++filling;
  }
  return filling;
}

void MaxMinSystem::fill(Snapshot& s) {
  stats_.vars_visited += s.vars.size();
  // One filling row and no capped variable (the churn of one flow on one
  // link): the row's users all saturate at its level, in one step.
  if (prime(s) == 1 && std::none_of(s.lvars.begin(), s.lvars.end(), [](const LocalVar& lv) {
        return lv.slot != kFrozen && lv.cap < kInf;
      })) {
    ++stats_.rounds;
    const LocalRow& row = *std::find_if(s.rows.begin(), s.rows.end(), [](const LocalRow& r) { return r.count > 0; });
    const double lambda = row.remaining / row.sum;
    for (size_t i = 0; i < s.vars.size(); ++i) {
      const LocalVar& lv = s.lvars[i];
      var_value_[static_cast<size_t>(s.vars[i])] =
          lv.slot == kFrozen ? 0 : lv.active > 0 && lambda < kInf ? lambda * lv.weight : kUnlimited;
    }
  } else {
    fill_levels(s);
  }
  for (size_t i = 0; i < s.vars.size(); ++i)
    if (var_value_[static_cast<size_t>(s.vars[i])] != s.lvars[i].old_value)
      changed_vars_.push_back(s.vars[i]);
}

void MaxMinSystem::fill_levels(Snapshot& s) {
  level_.clear();
  trigger_.clear();
  owner_.clear();
  auto push_level = [&](double level, double trigger, std::int32_t owner) {
    level_.push_back(level);
    trigger_.push_back(trigger);
    owner_.push_back(owner);
    return static_cast<std::int32_t>(level_.size() - 1);
  };
  for (size_t r = s.rows.size(); r-- > 0;) {
    LocalRow& row = s.rows[r];
    if (row.count > 0)
      row.slot = push_level(row.remaining / row.sum,
                            (row.remaining - kEps * std::max(1.0, row.capacity)) / row.sum,
                            static_cast<std::int32_t>(r));
  }

  // Variables off every filling row take their cap (or no value at all)
  // directly.
  for (std::uint32_t i = 0; i < s.vars.size(); ++i) {
    LocalVar& lv = s.lvars[i];
    if (lv.slot == kFrozen)
      var_value_[static_cast<size_t>(s.vars[i])] = 0;
    else if (lv.active == 0)
      freeze(s, i, lv.cap < kInf ? lv.cap : kUnlimited);
    else if (lv.cap < kInf)
      lv.slot = push_level(lv.cap / lv.weight, (lv.cap - kEps * std::max(1.0, lv.cap)) / lv.weight,
                           ~static_cast<std::int32_t>(i));
  }

  double lambda = 0;
  while (!level_.empty()) {
    ++stats_.rounds;
    // Next saturation: a 4-accumulator min-scan over the dense levels.
    double m[4] = {kInf, kInf, kInf, kInf};
    const size_t n = level_.size();
    size_t k = 0;
    for (; k + 4 <= n; k += 4)
      for (size_t j = 0; j < 4; ++j)
        m[j] = std::min(m[j], level_[k + j]);
    for (; k < n; ++k)
      m[0] = std::min(m[0], level_[k]);
    lambda = std::max(lambda, std::min(std::min(m[0], m[1]), std::min(m[2], m[3])));
    if (lambda == kInf) {  // levels overflowed: nothing restricts the rest
      for (std::uint32_t i = 0; i < s.vars.size(); ++i)
        if (s.lvars[i].slot != kFrozen)
          var_value_[static_cast<size_t>(s.vars[i])] = kUnlimited;
      break;
    }
    // The entry at the minimum has trigger <= level <= lambda, so every
    // round freezes someone.
    saturated_.clear();
    for (k = 0; k < n; ++k)
      if (trigger_[k] <= lambda)
        saturated_.push_back(owner_[k]);
    for (std::int32_t o : saturated_) {  // saturated rows freeze their users...
      if (o < 0 || s.rows[static_cast<size_t>(o)].count == 0)
        continue;
      LocalRow& row = s.rows[static_cast<size_t>(o)];
      row.count = 0;
      level_remove(s, row.slot);
      for (std::uint32_t e = row.begin; e < row.end; ++e) {
        const auto i = static_cast<std::uint32_t>(s.row_entries[e].idx);
        if (s.lvars[i].slot != kFrozen)
          freeze(s, i, lambda * s.lvars[i].weight);
      }
    }
    for (std::int32_t o : saturated_)  // ...then capped variables snap to their cap
      if (o < 0 && s.lvars[static_cast<size_t>(~o)].slot != kFrozen)
        freeze(s, static_cast<std::uint32_t>(~o), s.lvars[static_cast<size_t>(~o)].cap);
  }
}

}  // namespace sg::core
