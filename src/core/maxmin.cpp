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
  check_var(var, "set_weight");
  check_amount("set_weight", "weight", weight);
  if (var_weight_[static_cast<size_t>(var)] == weight)
    return;
  var_weight_[static_cast<size_t>(var)] = weight;
  if (var_flags_[static_cast<size_t>(var)] & kFlagAlive)
    mark_var_dirty(var);
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
  var_bound_[static_cast<size_t>(var)] = bound;
  if (var_flags_[static_cast<size_t>(var)] & kFlagAlive)
    mark_var_dirty(var);
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
  // While collecting, kFlagTraverse marks "users queued", so the users of a
  // traversed constraint are reached exactly once.
  if (traverse && !(flags & kFlagTraverse)) {
    flags |= kFlagTraverse;
    traverse_list_.push_back(c);
  }
}

void MaxMinSystem::closure_collect() {
  affected_vars_.clear();
  affected_cnsts_.clear();
  traverse_list_.clear();

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

  // Worklist to exhaustion.
  size_t vi = 0;
  size_t ti = 0;
  while (vi < affected_vars_.size() || ti < traverse_list_.size()) {
    if (vi < affected_vars_.size()) {
      const VarId v = affected_vars_[vi++];
      for_each_constraint_of(v, [&](CnstId c, double) {
        closure_add_cnst(c, (cnst_flags_[static_cast<size_t>(c)] & kFlagShared) != 0);
      });
    } else {
      const CnstId c = traverse_list_[ti++];
      for_each_variable_on(c, [&](VarId v, double) { closure_add_var(v); });
    }
  }

  for (VarId v : affected_vars_)
    var_flags_[static_cast<size_t>(v)] &= static_cast<unsigned char>(~kFlagInSet);
  for (CnstId c : affected_cnsts_)
    cnst_flags_[static_cast<size_t>(c)] &= static_cast<unsigned char>(~(kFlagInSet | kFlagTraverse));
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

}  // namespace sg::core
