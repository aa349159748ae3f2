#include "core/maxmin.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "core/workers.hpp"
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
    remaining_.push_back(0);
  }
  ++live_cnsts_;
  return id;
}

void MaxMinSystem::release_constraint(CnstId cnst) {
  check_cnst(cnst, "release_constraint");
  const size_t i = static_cast<size_t>(cnst);
  if (!(cnst_flags_[i] & kFlagAlive))
    return;
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
    effective_bound_.push_back(kInf);
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
  var_flags_[i] &= static_cast<unsigned char>(~kFlagAlive);
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
  // A capacity change moves every user's cap, so fatpipes traverse too.
  mark_cnst_dirty(cnst, /*need_traverse=*/true);
}

double MaxMinSystem::capacity(CnstId cnst) const {
  check_cnst(cnst, "capacity");
  return cnst_core_[static_cast<size_t>(cnst)].capacity;
}

void MaxMinSystem::set_weight(VarId var, double weight) {
  check_amount("set_weight", "weight", weight);
  if (var_weight_.at(static_cast<size_t>(var)) == weight)
    return;
  var_weight_[static_cast<size_t>(var)] = weight;
  if (var_flags_[static_cast<size_t>(var)] & kFlagAlive)
    mark_var_dirty(var);
}

double MaxMinSystem::weight(VarId var) const { return var_weight_.at(static_cast<size_t>(var)); }

void MaxMinSystem::set_bound(VarId var, double bound) {
  check_var(var, "set_bound");
  check_bound(var, bound);
  if (var_bound_[static_cast<size_t>(var)] == bound)
    return;
  var_bound_[static_cast<size_t>(var)] = bound;
  if (var_flags_[static_cast<size_t>(var)] & kFlagAlive)
    mark_var_dirty(var);
}

double MaxMinSystem::bound(VarId var) const { return var_bound_.at(static_cast<size_t>(var)); }

double MaxMinSystem::value(VarId var) const { return var_value_.at(static_cast<size_t>(var)); }

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
  m.soa_bytes = cap_bytes(cnst_core_) + cap_bytes(cnst_flags_) + cap_bytes(free_cnsts_) +
                cap_bytes(var_weight_) + cap_bytes(var_bound_) + cap_bytes(var_value_) +
                cap_bytes(var_flags_) + cap_bytes(var_link_) + cap_bytes(free_vars_) +
                cap_bytes(effective_bound_) + cap_bytes(remaining_);
  return m;
}

// ---------------------------------------------------------------------------
// Solving
// ---------------------------------------------------------------------------

void MaxMinSystem::closure_add_var(VarId v) {
  unsigned char& flags = var_flags_[static_cast<size_t>(v)];
  if (!(flags & kFlagInSet) && (flags & kFlagAlive)) {
    flags |= kFlagInSet;
    affected_vars_.push_back(v);
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
  // During a closure epoch kFlagTraverse marks "users queued": a cap-only
  // fatpipe inclusion can be upgraded later (e.g. a capacity-dirty seed in a
  // second collect round) and its users are then reached exactly once.
  if (traverse && !(flags & kFlagTraverse)) {
    flags |= kFlagTraverse;
    traverse_list_.push_back(c);
  }
}

void MaxMinSystem::closure_collect() {
  if (!closure_open_) {
    affected_vars_.clear();
    affected_cnsts_.clear();
    traverse_list_.clear();
    closure_vi_ = 0;
    closure_ti_ = 0;
    closure_was_full_ = false;
    closure_open_ = true;
  }
  if (full_solve_pending_) {
    // First solve of this (sub)system: everything is affected, and no
    // traversal is needed since nothing can be missing.
    for (size_t i = 0; i < var_flags_.size(); ++i)
      if (var_flags_[i] & kFlagAlive)
        closure_add_var(static_cast<VarId>(i));
    for (size_t c = 0; c < cnst_flags_.size(); ++c)
      closure_add_cnst(static_cast<CnstId>(c), /*traverse=*/false);
    for (VarId v : dirty_vars_)
      var_flags_[static_cast<size_t>(v)] &= static_cast<unsigned char>(~kFlagDirty);
    dirty_vars_.clear();
    for (CnstId c : dirty_cnsts_)
      cnst_flags_[static_cast<size_t>(c)] &= static_cast<unsigned char>(~(kFlagDirty | kFlagTraverse));
    dirty_cnsts_.clear();
    full_solve_pending_ = false;
    closure_was_full_ = true;
    closure_vi_ = affected_vars_.size();
    closure_ti_ = traverse_list_.size();
    return;
  }

  // Transitive closure of the dirty seeds over the variable-constraint graph:
  // the union of the connected components whose allocation can have changed.
  // Fatpipe constraints cap each user individually and do not couple them, so
  // they do not propagate the closure var -> fatpipe -> other vars: they are
  // included cap-only (traversed only when capacity-dirty themselves). This
  // keeps a shared backbone fatpipe from merging every flow into one
  // component. A membership-dirty fatpipe stays cap-only — adding/removing
  // one user does not move the others' caps.
  for (CnstId c : dirty_cnsts_) {
    unsigned char& flags = cnst_flags_[static_cast<size_t>(c)];
    const bool traverse = (flags & kFlagTraverse) != 0;
    flags &= static_cast<unsigned char>(~(kFlagDirty | kFlagTraverse));
    closure_add_cnst(c, traverse);
  }
  dirty_cnsts_.clear();
  for (VarId v : dirty_vars_) {
    var_flags_[static_cast<size_t>(v)] &= static_cast<unsigned char>(~kFlagDirty);
    closure_add_var(v);
  }
  dirty_vars_.clear();

  // Worklist to exhaustion. The cursors persist across collect calls, so a
  // later round (sharded group formation seeds sibling replicas) resumes
  // where this one stopped instead of rescanning the whole closure.
  while (closure_vi_ < affected_vars_.size() || closure_ti_ < traverse_list_.size()) {
    if (closure_vi_ < affected_vars_.size()) {
      const VarId v = affected_vars_[closure_vi_++];
      for_each_constraint_of(v, [&](CnstId c, double) {
        closure_add_cnst(c, (cnst_flags_[static_cast<size_t>(c)] & kFlagShared) != 0);
      });
    } else {
      const CnstId c = traverse_list_[closure_ti_++];
      for_each_variable_on(c, [&](VarId v, double) { closure_add_var(v); });
    }
  }
}

void MaxMinSystem::closure_commit() {
  for (VarId v : affected_vars_)
    var_flags_[static_cast<size_t>(v)] &= static_cast<unsigned char>(~kFlagInSet);
  for (CnstId c : affected_cnsts_)
    cnst_flags_[static_cast<size_t>(c)] &= static_cast<unsigned char>(~(kFlagInSet | kFlagTraverse));
  closure_open_ = false;
}

void MaxMinSystem::solve() {
  if (full_solve_pending_) {
    solve_full();
    return;
  }
  if (dirty_vars_.empty() && dirty_cnsts_.empty()) {
    changed_vars_.clear();
    return;
  }

  closure_collect();
  closure_commit();

  if (affected_vars_.size() * 2 > live_vars_ && full_solve_profitable()) {
    solve_full();
    return;
  }
  solve_subset(affected_vars_, affected_cnsts_);
}

bool MaxMinSystem::full_solve_profitable() const {
  // solve_full() rebuilds the affected sets by sweeping the whole id arena,
  // alive or recycled. When most slots are recycled — a churned or drained
  // system holding a handful of live variables in a once-large arena — that
  // sweep is O(capacity), and escalating would turn an O(affected) event
  // into an O(platform) one. Escalate only when the sweep is comparable to
  // the closure already collected.
  return var_flags_.size() + cnst_flags_.size() <=
         8 * (affected_vars_.size() + affected_cnsts_.size());
}

void MaxMinSystem::solve_full() {
  affected_vars_.clear();
  affected_cnsts_.clear();
  for (size_t i = 0; i < var_flags_.size(); ++i)
    if (var_flags_[i] & kFlagAlive)
      affected_vars_.push_back(static_cast<VarId>(i));
  for (size_t c = 0; c < cnst_flags_.size(); ++c)
    if (cnst_flags_[c] & kFlagAlive)
      affected_cnsts_.push_back(static_cast<CnstId>(c));

  for (VarId v : dirty_vars_)
    var_flags_[static_cast<size_t>(v)] &= static_cast<unsigned char>(~kFlagDirty);
  dirty_vars_.clear();
  for (CnstId c : dirty_cnsts_)
    cnst_flags_[static_cast<size_t>(c)] &= static_cast<unsigned char>(~(kFlagDirty | kFlagTraverse));
  dirty_cnsts_.clear();
  full_solve_pending_ = false;

  ++stats_.full_solves;
  solve_subset(affected_vars_, affected_cnsts_);
}

template <typename Fn>
void MaxMinSystem::fill_walk(size_t c, Fn&& fn) {
  stats_.elements_scanned += static_cast<size_t>(cnst_core_[c].degree);
  for (std::int32_t n = cnst_core_[c].head; n != kNoNode; n = node(n).next) {
    const ElemNode& nd = node(n);
    for (std::int32_t k = 0; k < nd.count; ++k)
      fn(static_cast<size_t>(nd.id[k]), nd.coeff[k]);
  }
}

double MaxMinSystem::fill_resum(FillCnst& fc) {
  if (fc.slice == kNoSlice)
    return kNoUsers;  // a lone user, and it just froze
  FillSlice& sl = fill_slices_[fc.slice];
  stats_.elements_scanned += sl.end - sl.begin;
  double sum = 0;
  std::uint32_t kept = sl.begin;
  for (std::uint32_t e = sl.begin; e < sl.end; ++e) {
    const FillElem el = fill_elems_[e];
    if (var_flags_[static_cast<size_t>(el.var)] & kFlagActive) {
      sum += el.rate;
      fill_elems_[kept++] = el;
    }
  }
  sl.end = kept;
  return kept == sl.begin ? kNoUsers : sum;
}

void MaxMinSystem::fill_start(const std::vector<VarId>& svars, const std::vector<CnstId>& scnsts) {
  ++stats_.solves;
  stats_.vars_visited += svars.size();

  // The active bit — still growing — is clear between solves.
  // `effective_bound_[i]` folds the variable's own bound together with its
  // fatpipe caps. All hot fields are SoA arrays, so these loops touch exactly
  // the cache lines of the subset's ids.
  old_values_.resize(svars.size());
  fill_vars_.clear();
  for (size_t k = 0; k < svars.size(); ++k) {
    const size_t i = static_cast<size_t>(svars[k]);
    old_values_[k] = var_value_[i];
    var_value_[i] = 0;
    effective_bound_[i] = kInf;
    if (var_weight_[i] <= 0)
      continue;
    var_flags_[i] |= kFlagActive;
    fill_vars_.push_back(svars[k]);
    if (var_bound_[i] >= 0)
      effective_bound_[i] = var_bound_[i];
  }

  // Shared constraints enter the working list with their active sum.
  fill_cnsts_.clear();
  fill_slices_.clear();
  fill_elems_.clear();
  bool fatpipes = false;
  for (CnstId cid : scnsts) {
    const size_t c = static_cast<size_t>(cid);
    remaining_[c] = cnst_core_[c].capacity;
    if (!(cnst_flags_[c] & kFlagShared)) {
      fatpipes = true;
      continue;
    }
    double sum = 0;
    const auto begin = static_cast<std::uint32_t>(fill_elems_.size());
    fill_walk(c, [&](size_t i, double coeff) {
      if (var_flags_[i] & kFlagActive) {
        fill_elems_.push_back({static_cast<VarId>(i), coeff * var_weight_[i]});
        sum += fill_elems_.back().rate;
      }
    });
    const auto end = static_cast<std::uint32_t>(fill_elems_.size());
    if (end == begin)
      continue;
    // A lone user needs no slice: once it freezes, the constraint is done.
    std::uint32_t slice = kNoSlice;
    if (end - begin == 1) {
      fill_elems_.pop_back();
    } else {
      slice = static_cast<std::uint32_t>(fill_slices_.size());
      fill_slices_.push_back({begin, end});
    }
    fill_cnsts_.push_back({cid, slice, sum});
  }

  // Fatpipe constraints translate to per-variable caps, capacity / coeff,
  // read from each growing variable's own list: a fat pipe's users outside
  // the subset are never walked. Every constraint of a subset variable is in
  // the subset, so these are exactly the subset's fatpipe caps, and min is
  // exact in any order.
  if (!fatpipes)
    return;
  for (VarId vid : fill_vars_) {
    const size_t i = static_cast<size_t>(vid);
    stats_.elements_scanned += static_cast<size_t>(var_link_[i].degree);
    for_each_constraint_of(vid, [&](CnstId cid, double coeff) {
      const size_t c = static_cast<size_t>(cid);
      if (!(cnst_flags_[c] & kFlagShared))
        effective_bound_[i] = std::min(effective_bound_[i], cnst_core_[c].capacity / coeff);
    });
  }
}

double MaxMinSystem::fill_delta(double delta) const {
  // Growth room before the tightest shared constraint saturates...
  for (const FillCnst& fc : fill_cnsts_)
    if (fc.sum > 0)
      delta = std::min(delta, std::max(0.0, remaining_[static_cast<size_t>(fc.id)]) / fc.sum);
  // ...or a variable bound is reached.
  for (VarId vid : fill_vars_) {
    const size_t i = static_cast<size_t>(vid);
    if (effective_bound_[i] < kInf)
      delta = std::min(delta, std::max(0.0, effective_bound_[i] - var_value_[i]) / var_weight_[i]);
  }
  return delta;
}

void MaxMinSystem::fill_grow(double delta) {
  for (VarId vid : fill_vars_)
    var_value_[static_cast<size_t>(vid)] += delta * var_weight_[static_cast<size_t>(vid)];
  // No variable froze since the sums were taken, so each is this round's
  // consumption rate as well.
  for (const FillCnst& fc : fill_cnsts_)
    remaining_[static_cast<size_t>(fc.id)] -= delta * fc.sum;
}

void MaxMinSystem::fill_unlimited() {
  for (VarId vid : fill_vars_) {
    const size_t i = static_cast<size_t>(vid);
    var_value_[i] = kUnlimited;
    var_flags_[i] &= static_cast<unsigned char>(~kFlagActive);
  }
  fill_vars_.clear();
}

template <typename Freeze>
void MaxMinSystem::fill_freeze(Freeze&& freeze) {
  for (FillCnst& fc : fill_cnsts_) {
    const size_t c = static_cast<size_t>(fc.id);
    if (remaining_[c] > kEps * std::max(1.0, cnst_core_[c].capacity))
      continue;
    fill_walk(c, [&](size_t i, double) {
      if (var_flags_[i] & kFlagActive)
        freeze(i);
    });
    fc.sum = kNoUsers;  // saturated: every user is frozen now
  }
  for (VarId vid : fill_vars_) {
    const size_t i = static_cast<size_t>(vid);
    if ((var_flags_[i] & kFlagActive) && effective_bound_[i] < kInf &&
        var_value_[i] >= effective_bound_[i] - kEps * std::max(1.0, effective_bound_[i])) {
      var_value_[i] = effective_bound_[i];
      freeze(i);
    }
  }
}

void MaxMinSystem::fill_compact() {
  // Every shared constraint of a variable that was growing at the start of
  // the round is on fill_cnsts_, so the touched marks set here are all
  // cleared by the second loop.
  size_t kept = 0;
  for (VarId vid : fill_vars_) {
    const size_t i = static_cast<size_t>(vid);
    if (var_flags_[i] & kFlagActive) {
      fill_vars_[kept++] = vid;
      continue;
    }
    stats_.elements_scanned += static_cast<size_t>(var_link_[i].degree);
    for_each_constraint_of(vid, [&](CnstId c, double) {
      if (cnst_flags_[static_cast<size_t>(c)] & kFlagShared)
        cnst_flags_[static_cast<size_t>(c)] |= kFlagTouched;
    });
  }
  fill_vars_.resize(kept);

  kept = 0;
  for (FillCnst fc : fill_cnsts_) {
    unsigned char& flags = cnst_flags_[static_cast<size_t>(fc.id)];
    if (flags & kFlagTouched) {
      flags &= static_cast<unsigned char>(~kFlagTouched);
      if (fc.sum != kNoUsers)
        fc.sum = fill_resum(fc);
    }
    if (fc.sum != kNoUsers)
      fill_cnsts_[kept++] = fc;
  }
  fill_cnsts_.resize(kept);
}

void MaxMinSystem::solve_subset(const std::vector<VarId>& svars, const std::vector<CnstId>& scnsts) {
  fill_start(svars, scnsts);
  while (!fill_vars_.empty()) {
    const double delta = fill_delta(kInf);
    if (delta == kInf) {
      fill_unlimited();
      break;
    }
    fill_grow(delta);
    size_t frozen = 0;
    auto freeze = [&](size_t i) {
      var_flags_[i] &= static_cast<unsigned char>(~kFlagActive);
      ++frozen;
    };
    fill_freeze(freeze);
    // delta chosen as an exact saturation point must freeze someone; if
    // numerical dust prevented it, force-freeze the first growing variable
    // to guarantee termination.
    if (frozen == 0)
      freeze(static_cast<size_t>(fill_vars_.front()));
    fill_compact();
  }

  changed_vars_.clear();
  for (size_t k = 0; k < svars.size(); ++k)
    if (var_value_[static_cast<size_t>(svars[k])] != old_values_[k])
      changed_vars_.push_back(svars[k]);
}

// ---------------------------------------------------------------------------
// ShardedMaxMin — id mapping and mutations
// ---------------------------------------------------------------------------

ShardedMaxMin::ShardedMaxMin(int shard_count) { init_shards(shard_count); }

void ShardedMaxMin::init_shards(int shard_count) {
  if (shard_count < 1)
    throw xbt::InvalidArgument("init_shards: shard count must be >= 1");
  if (live_vars_ > 0 || live_cnsts_ > 0)
    throw xbt::InvalidArgument("init_shards: system is not empty");
  shards_ = std::vector<MaxMinSystem>(static_cast<size_t>(shard_count));
  var_global_.assign(static_cast<size_t>(shard_count), {});
  cnst_global_.assign(static_cast<size_t>(shard_count), {});
  shard_linked_.assign(static_cast<size_t>(shard_count), 0);
  scan_pos_.assign(static_cast<size_t>(shard_count), 0);
  shard_flags_.assign(static_cast<size_t>(shard_count), 0);
  shard_dirty_.assign(static_cast<size_t>(shard_count), 0);
  uf_parent_.assign(static_cast<size_t>(shard_count), 0);
  group_slot_.assign(static_cast<size_t>(shard_count), -1);
  groups_.clear();
  n_groups_ = 0;
}

void ShardedMaxMin::check_var(VarId var, const char* what) const {
  if (var < 0 || static_cast<size_t>(var) >= vars_.size())
    throw xbt::InvalidArgument(std::string(what) + ": variable id " + std::to_string(var) +
                               " out of range");
}

void ShardedMaxMin::check_cnst(CnstId cnst, const char* what) const {
  if (cnst < 0 || static_cast<size_t>(cnst) >= cnsts_.size())
    throw xbt::InvalidArgument(std::string(what) + ": constraint id " + std::to_string(cnst) +
                               " out of range");
}

ShardedMaxMin::CnstId ShardedMaxMin::new_constraint_in(ShardId shard, double capacity, bool shared) {
  if (shard < 0 || static_cast<size_t>(shard) >= shards_.size())
    throw xbt::InvalidArgument("new_constraint_in: shard " + std::to_string(shard) + " out of range");
  const MaxMinSystem::CnstId local = shards_[static_cast<size_t>(shard)].new_constraint(capacity, shared);
  mark_shard(shard);
  CnstId g;
  if (!free_cnst_ids_.empty()) {
    g = free_cnst_ids_.back();
    free_cnst_ids_.pop_back();
  } else {
    g = static_cast<CnstId>(cnsts_.size());
    cnsts_.push_back({});
  }
  cnsts_[static_cast<size_t>(g)] = CnstRec{shard, local};
  auto& rev = cnst_global_[static_cast<size_t>(shard)];
  if (rev.size() <= static_cast<size_t>(local))
    rev.resize(static_cast<size_t>(local) + 1, -1);
  rev[static_cast<size_t>(local)] = g;
  ++live_cnsts_;
  return g;
}

void ShardedMaxMin::release_constraint(CnstId cnst) {
  check_cnst(cnst, "release_constraint");
  CnstRec& c = cnsts_[static_cast<size_t>(cnst)];
  if (c.shard < 0)
    return;
  shards_[static_cast<size_t>(c.shard)].release_constraint(c.local);
  cnst_global_[static_cast<size_t>(c.shard)][static_cast<size_t>(c.local)] = -1;
  mark_shard(c.shard);
  c.shard = -1;
  free_cnst_ids_.push_back(cnst);
  --live_cnsts_;
}

ShardedMaxMin::ShardId ShardedMaxMin::shard_of_constraint(CnstId cnst) const {
  check_cnst(cnst, "shard_of_constraint");
  return cnsts_[static_cast<size_t>(cnst)].shard;
}

ShardedMaxMin::VarId ShardedMaxMin::new_variable(double weight, double bound) {
  check_amount("new_variable", "weight", weight);
  VarId g;
  if (!free_var_ids_.empty()) {
    g = free_var_ids_.back();
    free_var_ids_.pop_back();
  } else {
    g = static_cast<VarId>(vars_.size());
    vars_.push_back({});
  }
  VarRec& r = vars_[static_cast<size_t>(g)];
  r = VarRec{};
  r.weight = weight;
  r.bound = bound;
  r.alive = true;
  detached_dirty_.push_back(g);
  ++live_vars_;
  return g;
}

MaxMinSystem::VarId ShardedMaxMin::make_replica(VarId var, ShardId shard, bool linked) {
  const VarRec& r = vars_[static_cast<size_t>(var)];
  MaxMinSystem& m = shards_[static_cast<size_t>(shard)];
  const MaxMinSystem::VarId lv = m.new_variable(r.weight, r.bound);
  mark_shard(shard);
  if (linked) {
    m.var_flags_[static_cast<size_t>(lv)] |= MaxMinSystem::kFlagLinked;
    ++shard_linked_[static_cast<size_t>(shard)];
  }
  auto& rev = var_global_[static_cast<size_t>(shard)];
  if (rev.size() <= static_cast<size_t>(lv))
    rev.resize(static_cast<size_t>(lv) + 1, -1);
  rev[static_cast<size_t>(lv)] = var;
  return lv;
}

MaxMinSystem::VarId ShardedMaxMin::replica_in(VarId var, ShardId shard) {
  VarRec& r = vars_[static_cast<size_t>(var)];
  if (r.shard == shard)
    return r.local;
  if (r.shard == kDetached) {
    r.local = make_replica(var, shard, /*linked=*/false);
    r.shard = shard;
    return r.local;
  }
  if (r.shard >= 0) {
    // Second shard: the variable becomes cross-shard. Flag the existing
    // replica and move both into a replica list; from now on every solve
    // whose closure reaches one of them must co-solve the others.
    shards_[static_cast<size_t>(r.shard)].var_flags_[static_cast<size_t>(r.local)] |=
        MaxMinSystem::kFlagLinked;
    ++shard_linked_[static_cast<size_t>(r.shard)];
    std::int32_t mi;
    if (!free_multi_.empty()) {
      mi = free_multi_.back();
      free_multi_.pop_back();
      multi_[static_cast<size_t>(mi)].clear();
    } else {
      mi = static_cast<std::int32_t>(multi_.size());
      multi_.emplace_back();
    }
    auto& list = multi_[static_cast<size_t>(mi)];
    list.push_back(Replica{r.shard, r.local});
    const MaxMinSystem::VarId lv = make_replica(var, shard, /*linked=*/true);
    list.push_back(Replica{shard, lv});
    r.shard = kMulti;
    r.multi = mi;
    return lv;
  }
  auto& list = multi_[static_cast<size_t>(r.multi)];
  for (const Replica& rp : list)
    if (rp.shard == shard)
      return rp.local;
  const MaxMinSystem::VarId lv = make_replica(var, shard, /*linked=*/true);
  list.push_back(Replica{shard, lv});
  return lv;
}

void ShardedMaxMin::expand(CnstId cnst, VarId var, double coeff) {
  // Checked before replica_in() so a bad coefficient creates no replica.
  check_amount("expand", "coefficient", coeff, /*positive=*/true);
  check_cnst(cnst, "expand");
  check_var(var, "expand");
  const CnstRec& c = cnsts_[static_cast<size_t>(cnst)];
  if (c.shard < 0)
    throw xbt::InvalidArgument("expand: constraint id " + std::to_string(cnst) + " was released");
  if (!vars_[static_cast<size_t>(var)].alive)
    throw xbt::InvalidArgument("expand: variable id " + std::to_string(var) + " was released");
  const MaxMinSystem::VarId lv = replica_in(var, c.shard);
  shards_[static_cast<size_t>(c.shard)].expand(c.local, lv, coeff);
  mark_shard(c.shard);
}

void ShardedMaxMin::release_variable(VarId var) {
  check_var(var, "release_variable");
  VarRec& r = vars_[static_cast<size_t>(var)];
  if (!r.alive)
    return;
  for_each_replica(r, [&](Replica rp) {
    shards_[static_cast<size_t>(rp.shard)].release_variable(rp.local);
    var_global_[static_cast<size_t>(rp.shard)][static_cast<size_t>(rp.local)] = -1;
    mark_shard(rp.shard);
    if (r.shard == kMulti)
      --shard_linked_[static_cast<size_t>(rp.shard)];
  });
  if (r.shard == kMulti)
    free_multi_.push_back(r.multi);
  r.alive = false;
  r.shard = kDetached;
  r.local = -1;
  r.multi = -1;
  r.detached_value = 0;
  free_var_ids_.push_back(var);
  --live_vars_;
}

void ShardedMaxMin::release_variable_local(VarId var) {
  check_var(var, "release_variable_local");
  VarRec& r = vars_[static_cast<size_t>(var)];
  if (!r.alive)
    return;
  if (r.shard == kMulti)
    throw xbt::InvalidArgument("release_variable_local: variable id " + std::to_string(var) +
                               " spans several shards");
  if (r.shard >= 0) {
    shards_[static_cast<size_t>(r.shard)].release_variable(r.local);
    var_global_[static_cast<size_t>(r.shard)][static_cast<size_t>(r.local)] = -1;
    mark_shard(r.shard);
  }
  r.alive = false;
  r.shard = kDetached;
  r.local = -1;
  r.multi = -1;
  r.detached_value = 0;
  // The global id is NOT recycled here: concurrent lanes would race on
  // free_var_ids_, and the reuse order would depend on lane timing. The
  // engine hands the ids to commit_released() in fixed shard order instead.
}

void ShardedMaxMin::commit_released(const VarId* ids, size_t count) {
  free_var_ids_.insert(free_var_ids_.end(), ids, ids + count);
  live_vars_ -= count;
}

void ShardedMaxMin::set_capacity(CnstId cnst, double capacity) {
  check_cnst(cnst, "set_capacity");
  const CnstRec& c = cnsts_[static_cast<size_t>(cnst)];
  if (c.shard < 0)
    throw xbt::InvalidArgument("set_capacity: constraint id " + std::to_string(cnst) + " was released");
  shards_[static_cast<size_t>(c.shard)].set_capacity(c.local, capacity);
  mark_shard(c.shard);
}

double ShardedMaxMin::capacity(CnstId cnst) const {
  check_cnst(cnst, "capacity");
  const CnstRec& c = cnsts_[static_cast<size_t>(cnst)];
  if (c.shard < 0)
    throw xbt::InvalidArgument("capacity: constraint id " + std::to_string(cnst) + " was released");
  return shards_[static_cast<size_t>(c.shard)].capacity(c.local);
}

void ShardedMaxMin::set_weight(VarId var, double weight) {
  check_amount("set_weight", "weight", weight);
  check_var(var, "set_weight");
  VarRec& r = vars_[static_cast<size_t>(var)];
  if (r.weight == weight)
    return;
  r.weight = weight;
  if (r.shard == kDetached) {
    if (r.alive)
      detached_dirty_.push_back(var);
    return;
  }
  for_each_replica(r, [&](Replica rp) {
    shards_[static_cast<size_t>(rp.shard)].set_weight(rp.local, weight);
    mark_shard(rp.shard);
  });
}

double ShardedMaxMin::weight(VarId var) const {
  check_var(var, "weight");
  return vars_[static_cast<size_t>(var)].weight;
}

void ShardedMaxMin::set_bound(VarId var, double bound) {
  check_var(var, "set_bound");
  check_bound(var, bound);
  VarRec& r = vars_[static_cast<size_t>(var)];
  if (r.bound == bound)
    return;
  r.bound = bound;
  if (r.shard == kDetached) {
    if (r.alive)
      detached_dirty_.push_back(var);
    return;
  }
  for_each_replica(r, [&](Replica rp) {
    shards_[static_cast<size_t>(rp.shard)].set_bound(rp.local, bound);
    mark_shard(rp.shard);
  });
}

double ShardedMaxMin::bound(VarId var) const {
  check_var(var, "bound");
  return vars_[static_cast<size_t>(var)].bound;
}

double ShardedMaxMin::value(VarId var) const {
  check_var(var, "value");
  const VarRec& r = vars_[static_cast<size_t>(var)];
  if (r.shard >= 0)
    return shards_[static_cast<size_t>(r.shard)].value(r.local);
  if (r.shard == kMulti) {
    const Replica& head = multi_[static_cast<size_t>(r.multi)][0];
    return shards_[static_cast<size_t>(head.shard)].value(head.local);
  }
  return r.detached_value;
}

double ShardedMaxMin::usage(CnstId cnst) const {
  check_cnst(cnst, "usage");
  const CnstRec& c = cnsts_[static_cast<size_t>(cnst)];
  if (c.shard < 0)
    throw xbt::InvalidArgument("usage: constraint id " + std::to_string(cnst) + " was released");
  return shards_[static_cast<size_t>(c.shard)].usage(c.local);
}

size_t ShardedMaxMin::constraint_degree(CnstId cnst) const {
  check_cnst(cnst, "constraint_degree");
  const CnstRec& c = cnsts_[static_cast<size_t>(cnst)];
  if (c.shard < 0)
    throw xbt::InvalidArgument("constraint_degree: constraint id " + std::to_string(cnst) +
                               " was released");
  return shards_[static_cast<size_t>(c.shard)].constraint_degree(c.local);
}

size_t ShardedMaxMin::variable_degree(VarId var) const {
  check_var(var, "variable_degree");
  size_t degree = 0;
  for_each_replica(vars_[static_cast<size_t>(var)], [&](Replica rp) {
    degree += shards_[static_cast<size_t>(rp.shard)].variable_degree(rp.local);
  });
  return degree;
}

int ShardedMaxMin::variable_shard_span(VarId var) const {
  check_var(var, "variable_shard_span");
  const VarRec& r = vars_[static_cast<size_t>(var)];
  if (r.shard >= 0)
    return 1;
  if (r.shard == kMulti)
    return static_cast<int>(multi_[static_cast<size_t>(r.multi)].size());
  return 0;
}

bool ShardedMaxMin::needs_solve() const {
  if (!detached_dirty_.empty())
    return true;
  // shard_dirty_ is a conservative superset of the shards whose own
  // needs_solve() can be true, so quiet shards cost one byte load here.
  for (size_t s = 0; s < shards_.size(); ++s)
    if (shard_dirty_[s] && shards_[s].needs_solve())
      return true;
  return false;
}

MaxMinSystem::SolveStats ShardedMaxMin::solve_stats() const {
  MaxMinSystem::SolveStats total;
  for (const MaxMinSystem& m : shards_) {
    total.solves += m.stats_.solves;
    total.full_solves += m.stats_.full_solves;
    total.vars_visited += m.stats_.vars_visited;
    total.elements_scanned += m.stats_.elements_scanned;
  }
  return total;
}

MaxMinSystem::MemoryStats ShardedMaxMin::memory_stats() const {
  MaxMinSystem::MemoryStats total;
  for (const MaxMinSystem& m : shards_) {
    const MaxMinSystem::MemoryStats s = m.memory_stats();
    total.arena_nodes_in_use += s.arena_nodes_in_use;
    total.arena_nodes_allocated += s.arena_nodes_allocated;
    total.arena_bytes += s.arena_bytes;
    total.soa_bytes += s.soa_bytes;
  }
  total.live_variables = live_vars_;
  total.live_constraints = live_cnsts_;
  auto cap_bytes = [](const auto& v) { return v.capacity() * sizeof(v[0]); };
  total.soa_bytes += cap_bytes(vars_) + cap_bytes(cnsts_) + cap_bytes(free_var_ids_) +
                     cap_bytes(free_cnst_ids_) + cap_bytes(multi_) + cap_bytes(free_multi_);
  for (const auto& rev : var_global_)
    total.soa_bytes += cap_bytes(rev);
  for (const auto& rev : cnst_global_)
    total.soa_bytes += cap_bytes(rev);
  return total;
}

// ---------------------------------------------------------------------------
// ShardedMaxMin — solving
// ---------------------------------------------------------------------------

void ShardedMaxMin::solve(ShardWorkers* workers, PhaseProbe* probe) {
  changed_vars_.clear();

  // Detached variables: nothing constrains them, so their allocation is the
  // unconstrained rate — no shard needs to know.
  for (VarId g : detached_dirty_) {
    VarRec& r = vars_[static_cast<size_t>(g)];
    if (!r.alive || r.shard != kDetached)
      continue;
    const double nv = r.weight > 0 ? kUnlimited : 0.0;
    if (nv != r.detached_value) {
      r.detached_value = nv;
      changed_vars_.push_back(g);
    }
  }
  detached_dirty_.clear();

  open_.clear();
  const ShardId n = static_cast<ShardId>(shards_.size());
  auto open_shard = [&](ShardId s) {
    if (shard_flags_[static_cast<size_t>(s)] & kShardOpen)
      return;
    shard_flags_[static_cast<size_t>(s)] |= kShardOpen;
    scan_pos_[static_cast<size_t>(s)] = 0;
    open_.push_back(s);
  };
  for (ShardId s = 0; s < n; ++s) {
    shard_flags_[static_cast<size_t>(s)] = 0;
    if (!shard_dirty_[static_cast<size_t>(s)])
      continue;
    shard_dirty_[static_cast<size_t>(s)] = 0;
    if (shards_[static_cast<size_t>(s)].needs_solve())
      open_shard(s);
  }
  if (open_.empty())
    return;

  // Collect the dirty closures to a cross-shard fixpoint: whenever a closure
  // reaches a linked replica, its siblings are seeded dirty in their shards
  // (joining them to the group) and those shards' closures are re-collected.
  // Shards whose closure reaches no linked replica stay fully local.
  bool progress = true;
  while (progress) {
    progress = false;
    for (size_t oi = 0; oi < open_.size(); ++oi) {  // open_ may grow inside
      const ShardId s = open_[oi];
      MaxMinSystem& m = shards_[static_cast<size_t>(s)];
      if (!m.closure_pending())
        continue;
      m.closure_collect();
      progress = true;
      size_t& pos = scan_pos_[static_cast<size_t>(s)];
      for (; pos < m.affected_vars_.size(); ++pos) {
        const MaxMinSystem::VarId lv = m.affected_vars_[pos];
        if (!(m.var_flags_[static_cast<size_t>(lv)] & MaxMinSystem::kFlagLinked))
          continue;
        shard_flags_[static_cast<size_t>(s)] |= kShardCoupled;
        const VarId g = var_global_[static_cast<size_t>(s)][static_cast<size_t>(lv)];
        VarRec& r = vars_[static_cast<size_t>(g)];
        if (!r.in_group) {
          r.in_group = true;
          group_linked_.push_back(g);
        }
        for_each_replica(r, [&](Replica rp) {
          if (rp.shard == s)
            return;
          open_shard(rp.shard);
          shard_flags_[static_cast<size_t>(rp.shard)] |= kShardCoupled;
          MaxMinSystem& m2 = shards_[static_cast<size_t>(rp.shard)];
          if (!(m2.var_flags_[static_cast<size_t>(rp.local)] &
                (MaxMinSystem::kFlagInSet | MaxMinSystem::kFlagDirty)))
            m2.mark_var_dirty(rp.local);
        });
      }
    }
  }
  for (ShardId s : open_)
    shards_[static_cast<size_t>(s)].closure_commit();

  uncoupled_.clear();
  coupled_.clear();
  for (ShardId s : open_) {
    if (shard_flags_[static_cast<size_t>(s)] & kShardCoupled)
      coupled_.push_back(s);
    else
      uncoupled_.push_back(s);
  }

  // Partition the coupled shards into independent groups: two shards belong
  // to the same group exactly when a chain of linked variables connects
  // them. Union-find (path halving) over each linked variable's replica
  // shards, then bucket shards in discovery order — the partition depends
  // only on the system's topology, never on lane count or timing.
  n_groups_ = 0;
  if (!coupled_.empty()) {
    for (ShardId s : coupled_) {
      uf_parent_[static_cast<size_t>(s)] = s;
      group_slot_[static_cast<size_t>(s)] = -1;
    }
    auto find_root = [&](ShardId s) {
      while (uf_parent_[static_cast<size_t>(s)] != s) {
        uf_parent_[static_cast<size_t>(s)] =
            uf_parent_[static_cast<size_t>(uf_parent_[static_cast<size_t>(s)])];
        s = uf_parent_[static_cast<size_t>(s)];
      }
      return s;
    };
    for (VarId g : group_linked_) {
      ShardId first = -1;
      for_each_replica(vars_[static_cast<size_t>(g)], [&](Replica rp) {
        const ShardId root = find_root(rp.shard);
        if (first < 0)
          first = root;
        else if (root != first)
          uf_parent_[static_cast<size_t>(root)] = first;
      });
    }
    for (ShardId s : coupled_) {
      const ShardId root = find_root(s);
      std::int32_t gi = group_slot_[static_cast<size_t>(root)];
      if (gi < 0) {
        gi = static_cast<std::int32_t>(n_groups_++);
        if (groups_.size() < n_groups_)
          groups_.emplace_back();
        groups_[static_cast<size_t>(gi)].shards.clear();
        groups_[static_cast<size_t>(gi)].linked.clear();
        group_slot_[static_cast<size_t>(root)] = gi;
      }
      groups_[static_cast<size_t>(gi)].shards.push_back(s);
    }
    for (VarId g : group_linked_) {
      // Any replica names the group — the union above merged them all.
      const VarRec& r = vars_[static_cast<size_t>(g)];
      const ShardId s0 =
          r.shard >= 0 ? r.shard : multi_[static_cast<size_t>(r.multi)][0].shard;
      groups_[static_cast<size_t>(group_slot_[static_cast<size_t>(find_root(s0))])]
          .linked.push_back(g);
    }
  }

  // Uncoupled shards: plain shard-local incremental solve — no other shard's
  // state is read or written, which is what makes them safe to fan out
  // across worker lanes while the coupled group co-solves on the caller.
  auto solve_local = [this](ShardId s) {
    MaxMinSystem& m = shards_[static_cast<size_t>(s)];
    if (m.closure_was_full_) {
      ++m.stats_.full_solves;
      m.solve_subset(m.affected_vars_, m.affected_cnsts_);
    } else if (shard_linked_[static_cast<size_t>(s)] == 0 &&
               m.affected_vars_.size() * 2 > m.live_vars_ && m.full_solve_profitable()) {
      // Whole-shard escalation is only sound when the shard hosts no linked
      // replica: solve_full() would otherwise recompute replicas outside the
      // closure locally, splitting them from their siblings (see
      // shard_linked_). Shards with linked replicas solve exactly the
      // collected closure instead.
      m.solve_full();
    } else {
      m.solve_subset(m.affected_vars_, m.affected_cnsts_);
    }
  };

  // Fan the independent work items — uncoupled shard solves AND per-group
  // joint solves — out over the lanes. Each item reads and writes only its
  // own (disjoint) shard set, so the item -> lane assignment cannot change
  // any value; solve_group defers nothing shared (changed detection below
  // is serial).
  const int n_uncoupled = static_cast<int>(uncoupled_.size());
  const int n_items = n_uncoupled + static_cast<int>(n_groups_);
  auto run_item = [&](int i) {
    if (i < n_uncoupled)
      solve_local(uncoupled_[static_cast<size_t>(i)]);
    else
      solve_group(groups_[static_cast<size_t>(i - n_uncoupled)]);
  };
  if (workers != nullptr) {
    workers->run(n_items, run_item, {}, probe);
  } else {
    const std::uint64_t t0 = probe != nullptr ? phase_clock_ns() : 0;
    for (int i = 0; i < n_items; ++i)
      run_item(i);
    if (probe != nullptr) {
      const std::uint64_t dt = phase_clock_ns() - t0;
      probe->parallel_ns += dt;
      probe->lanes[0].busy_ns += dt;
    }
  }
  group_solves_ += n_groups_;

  // Serial aggregation in a fixed order — uncoupled shards in discovery
  // order, then the coupled shards in discovery order — keeps
  // changed_variables() (and with it the engine's rate refresh) identical
  // at every lane count, and identical to the pre-partition ordering.
  for (ShardId s : uncoupled_) {
    const MaxMinSystem& m = shards_[static_cast<size_t>(s)];
    for (MaxMinSystem::VarId lv : m.changed_vars_)
      changed_vars_.push_back(var_global_[static_cast<size_t>(s)][static_cast<size_t>(lv)]);
  }
  // Coupled changed detection: a linked variable's replicas all moved
  // together, so it is reported once, from its canonical (first) replica.
  for (ShardId s : coupled_) {
    const MaxMinSystem& m = shards_[static_cast<size_t>(s)];
    for (size_t k = 0; k < m.affected_vars_.size(); ++k) {
      const size_t i = static_cast<size_t>(m.affected_vars_[k]);
      if (m.var_value_[i] == m.old_values_[k])
        continue;
      const VarId g = var_global_[static_cast<size_t>(s)][i];
      const VarRec& r = vars_[static_cast<size_t>(g)];
      if (r.shard == kMulti) {
        const Replica& head = multi_[static_cast<size_t>(r.multi)][0];
        if (head.shard != s || head.local != m.affected_vars_[k])
          continue;
      }
      changed_vars_.push_back(g);
    }
  }

  for (VarId g : group_linked_)
    vars_[static_cast<size_t>(g)].in_group = false;
  group_linked_.clear();
}

void ShardedMaxMin::solve_full() {
  std::fill(shard_dirty_.begin(), shard_dirty_.end(), static_cast<unsigned char>(1));
  for (MaxMinSystem& m : shards_)
    m.full_solve_pending_ = true;
  for (size_t g = 0; g < vars_.size(); ++g)
    if (vars_[g].alive && vars_[g].shard == kDetached)
      detached_dirty_.push_back(static_cast<VarId>(g));
  solve();
}

/// Joint progressive filling over one coupled group's affected subsets: the
/// filling steps of MaxMinSystem::solve_subset, run shard by shard, with one
/// twist: the replicas of a linked logical variable are one activity. They
/// share the growth (identical delta * weight updates keep their values
/// bitwise equal), their effective bound is the min over every shard's caps,
/// and freezing any replica freezes all of them with the freezing replica's
/// value. Touches only gr's shards (plus read-only façade tables), so
/// independent groups run concurrently on worker lanes; changed detection
/// stays in solve().
void ShardedMaxMin::solve_group(Group& gr) {
  for (ShardId s : gr.shards) {
    MaxMinSystem& m = shards_[static_cast<size_t>(s)];
    m.changed_vars_.clear();
    if (m.closure_was_full_)
      ++m.stats_.full_solves;
    m.fill_start(m.affected_vars_, m.affected_cnsts_);
  }

  // Linked logical variables: fold every shard's caps into one shared
  // effective bound. Every replica of every group variable is in its shard's
  // affected set (the closure fixpoint seeded them), so the fold sees all.
  for (VarId g : gr.linked) {
    const VarRec& r = vars_[static_cast<size_t>(g)];
    if (!r.alive)
      continue;
    double eb = kInf;
    for_each_replica(r, [&](Replica rp) {
      const MaxMinSystem& m = shards_[static_cast<size_t>(rp.shard)];
      eb = std::min(eb, m.effective_bound_[static_cast<size_t>(rp.local)]);
    });
    for_each_replica(r, [&](Replica rp) {
      shards_[static_cast<size_t>(rp.shard)].effective_bound_[static_cast<size_t>(rp.local)] = eb;
    });
  }

  size_t frozen = 0;
  auto freeze_var = [&](ShardId s, size_t i) {
    MaxMinSystem& m = shards_[static_cast<size_t>(s)];
    if (!(m.var_flags_[i] & MaxMinSystem::kFlagActive))
      return;
    m.var_flags_[i] &= static_cast<unsigned char>(~MaxMinSystem::kFlagActive);
    ++frozen;
    if (m.var_flags_[i] & MaxMinSystem::kFlagLinked) {
      const VarId g = var_global_[static_cast<size_t>(s)][i];
      const double val = m.var_value_[i];
      for_each_replica(vars_[static_cast<size_t>(g)], [&](Replica rp) {
        if (rp.shard == s)
          return;
        MaxMinSystem& m2 = shards_[static_cast<size_t>(rp.shard)];
        m2.var_flags_[static_cast<size_t>(rp.local)] &=
            static_cast<unsigned char>(~MaxMinSystem::kFlagActive);
        m2.var_value_[static_cast<size_t>(rp.local)] = val;  // no epsilon split
      });
    }
  };
  // First shard with a growing variable, or nullptr when filling is done.
  auto first_growing = [&]() -> ShardId* {
    for (ShardId& s : gr.shards)
      if (!shards_[static_cast<size_t>(s)].fill_vars_.empty())
        return &s;
    return nullptr;
  };

  while (ShardId* head = first_growing()) {
    // The growth step is global across the group.
    double delta = kInf;
    for (ShardId s : gr.shards)
      delta = shards_[static_cast<size_t>(s)].fill_delta(delta);
    if (delta == kInf) {
      for (ShardId s : gr.shards)
        shards_[static_cast<size_t>(s)].fill_unlimited();
      break;
    }
    for (ShardId s : gr.shards)
      shards_[static_cast<size_t>(s)].fill_grow(delta);

    // Freezing a linked replica freezes its siblings in their own shards;
    // each shard's compaction then re-sums the constraints they left.
    frozen = 0;
    for (ShardId s : gr.shards)
      shards_[static_cast<size_t>(s)].fill_freeze([&](size_t i) { freeze_var(s, i); });
    if (frozen == 0)
      freeze_var(*head, static_cast<size_t>(shards_[static_cast<size_t>(*head)].fill_vars_.front()));
    for (ShardId s : gr.shards)
      shards_[static_cast<size_t>(s)].fill_compact();
  }
}

}  // namespace sg::core
