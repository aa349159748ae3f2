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
                cap_bytes(var_slot_);
  return m;
}

// ---------------------------------------------------------------------------
// Solving
// ---------------------------------------------------------------------------

void MaxMinSystem::closure_add_var(VarId v) {
  unsigned char& flags = var_flags_[static_cast<size_t>(v)];
  if (!(flags & kFlagInSet) && (flags & kFlagAlive)) {
    // kFlagDirty is clear here, except in solve_full(), where it marks the
    // variables that no component filled yet.
    flags = static_cast<unsigned char>((flags | kFlagInSet) & ~kFlagDirty);
    var_slot_[static_cast<size_t>(v)] = static_cast<std::int32_t>(affected_vars_.size());
    affected_vars_.push_back(v);
    const double w = var_weight_[static_cast<size_t>(v)];
    const double b = var_bound_[static_cast<size_t>(v)];
    local_vars_.push_back({w, b >= 0 ? b : kInf, var_value_[static_cast<size_t>(v)], 0, kNoSlot, w > 0});
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

void MaxMinSystem::capture_row(CnstId c) {
  const auto begin = static_cast<std::uint32_t>(row_entries_.size());
  double sum = 0;
  double coeffs = 0;
  bool lone = true;  // every growing entry is the same variable's
  for_each_variable_on(c, [&](VarId v, double coeff) {
    closure_add_var(v);
    const std::int32_t i = var_slot_[static_cast<size_t>(v)];
    if (!local_vars_[static_cast<size_t>(i)].growing)
      return;
    row_entries_.push_back({i, coeff});
    ++local_vars_[static_cast<size_t>(i)].edges;  // counted here, laid out by fill()
    sum += coeff * local_vars_[static_cast<size_t>(i)].weight;
    coeffs += coeff;
    lone = lone && i == row_entries_[begin].idx;
  });
  const auto end = static_cast<std::uint32_t>(row_entries_.size());
  stats_.elements_scanned += end - begin;
  if (end == begin)
    return;
  const double capacity = cnst_core_[static_cast<size_t>(c)].capacity;
  if (lone) {  // a cap, as a fat pipe is
    LocalVar& lv = local_vars_[static_cast<size_t>(row_entries_[begin].idx)];
    lv.cap = std::min(lv.cap, capacity / coeffs);
    lv.edges -= end - begin;
    row_entries_.resize(begin);
    return;
  }
  local_rows_.push_back({capacity, sum, sum, kEps * std::max(1.0, capacity), begin, end,
                         static_cast<std::int32_t>(end - begin), kNoSlot});
}

void MaxMinSystem::closure_collect() {
  affected_vars_.clear();
  affected_cnsts_.clear();
  traverse_list_.clear();
  local_vars_.clear();
  local_rows_.clear();
  row_entries_.clear();

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

  // Worklist to exhaustion. Each variable's own list gives its fatpipe caps
  // (a fat pipe's other users are never walked); each shared constraint's
  // list, walked once, gives its row.
  size_t vi = 0;
  size_t ti = 0;
  while (vi < affected_vars_.size() || ti < traverse_list_.size()) {
    if (vi < affected_vars_.size()) {
      const VarId v = affected_vars_[vi];
      double& cap = local_vars_[vi++].cap;
      for_each_constraint_of(v, [&](CnstId c, double coeff) {
        const bool shared = (cnst_flags_[static_cast<size_t>(c)] & kFlagShared) != 0;
        closure_add_cnst(c, shared);
        if (!shared)
          cap = std::min(cap, cnst_core_[static_cast<size_t>(c)].capacity / coeff);
      });
    } else {
      const CnstId c = traverse_list_[ti++];
      if (cnst_flags_[static_cast<size_t>(c)] & kFlagShared)
        capture_row(c);
      else
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
  changed_vars_.clear();
  if (!needs_solve())
    return;
  ++stats_.solves;
  closure_collect();
  fill();
}

void MaxMinSystem::solve_full() {
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
    closure_collect();
    fill();
  }
}

void MaxMinSystem::level_remove(std::int32_t slot) {
  const size_t k = static_cast<size_t>(slot);
  level_[k] = level_.back();
  trigger_[k] = trigger_.back();
  owner_[k] = owner_.back();
  const std::int32_t o = owner_[k];
  (o >= 0 ? local_rows_[static_cast<size_t>(o)].slot : local_vars_[static_cast<size_t>(~o)].slot) = slot;
  level_.pop_back();
  trigger_.pop_back();
  owner_.pop_back();
}

void MaxMinSystem::freeze(std::uint32_t i, double x) {
  LocalVar& lv = local_vars_[i];
  lv.growing = false;
  var_value_[static_cast<size_t>(affected_vars_[i])] = x;
  if (lv.slot != kNoSlot)
    level_remove(lv.slot);
  const size_t first = lv.edges;
  const size_t last = i + 1 < local_vars_.size() ? local_vars_[i + 1].edges : var_edges_.size();
  for (size_t e = first; e < last; ++e) {
    LocalRow& row = local_rows_[static_cast<size_t>(var_edges_[e].idx)];
    if (row.count == 0)
      continue;
    row.remaining -= var_edges_[e].coeff * x;
    row.sum -= var_edges_[e].coeff * lv.weight;
    if (--row.count == 0)
      level_remove(row.slot);
  }
  // Re-level once every entry is subtracted: a variable expanded twice on a
  // row crosses it twice.
  for (size_t e = first; e < last; ++e) {
    LocalRow& row = local_rows_[static_cast<size_t>(var_edges_[e].idx)];
    if (row.count == 0)
      continue;
    if (row.sum < 1e-6 * row.full_sum) {  // cancellation: sum the survivors afresh
      row.sum = 0;
      for (std::uint32_t k = row.begin; k < row.end; ++k) {
        const LocalVar& u = local_vars_[static_cast<size_t>(row_entries_[k].idx)];
        if (u.growing)
          row.sum += row_entries_[k].coeff * u.weight;
      }
      row.full_sum = row.sum;
      stats_.elements_scanned += row.end - row.begin;
    }
    level_[static_cast<size_t>(row.slot)] = row.remaining / row.sum;
    trigger_[static_cast<size_t>(row.slot)] = (row.remaining - row.slack) / row.sum;
  }
}

void MaxMinSystem::fill() {
  stats_.vars_visited += local_vars_.size();
  // One row and no capped variable (the churn of one flow on one link): the
  // row's users all saturate at its level, in one step.
  if (local_rows_.size() == 1 && std::none_of(local_vars_.begin(), local_vars_.end(), [](const LocalVar& lv) {
        return lv.growing && lv.cap < kInf;
      })) {
    ++stats_.rounds;
    const double lambda = local_rows_[0].remaining / local_rows_[0].sum;
    for (size_t i = 0; i < local_vars_.size(); ++i) {
      const LocalVar& lv = local_vars_[i];  // edges: its count of row entries
      var_value_[static_cast<size_t>(affected_vars_[i])] =
          !lv.growing ? 0 : lv.edges > 0 && lambda < kInf ? lambda * lv.weight : kUnlimited;
    }
  } else {
    fill_levels();
  }
  for (size_t i = 0; i < local_vars_.size(); ++i)
    if (var_value_[static_cast<size_t>(affected_vars_[i])] != local_vars_[i].old_value)
      changed_vars_.push_back(affected_vars_[i]);
}

void MaxMinSystem::fill_levels() {
  level_.clear();
  trigger_.clear();
  owner_.clear();
  auto push_level = [&](double level, double trigger, std::int32_t owner) {
    level_.push_back(level);
    trigger_.push_back(trigger);
    owner_.push_back(owner);
    return static_cast<std::int32_t>(level_.size() - 1);
  };
  // Each variable's (row, coeff) edges, by counting: capture_row() counted
  // them, edges becomes the end of its range, then the fill below walks it
  // down to the start.
  var_edges_.resize(row_entries_.size());
  std::uint32_t total = 0;
  for (LocalVar& lv : local_vars_)
    lv.edges = total += lv.edges;
  for (size_t r = local_rows_.size(); r-- > 0;) {
    LocalRow& row = local_rows_[r];
    for (std::uint32_t k = row.end; k-- > row.begin;)
      var_edges_[--local_vars_[static_cast<size_t>(row_entries_[k].idx)].edges] = {
          static_cast<std::int32_t>(r), row_entries_[k].coeff};
    row.slot = push_level(row.remaining / row.sum, (row.remaining - row.slack) / row.sum,
                          static_cast<std::int32_t>(r));
  }

  // Variables off every row take their cap (or no value at all) directly.
  for (std::uint32_t i = 0; i < local_vars_.size(); ++i) {
    LocalVar& lv = local_vars_[i];
    const size_t last = i + 1 < local_vars_.size() ? local_vars_[i + 1].edges : var_edges_.size();
    if (!lv.growing)
      var_value_[static_cast<size_t>(affected_vars_[i])] = 0;
    else if (lv.edges == last)
      freeze(i, lv.cap < kInf ? lv.cap : kUnlimited);
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
      for (std::uint32_t i = 0; i < local_vars_.size(); ++i)
        if (local_vars_[i].growing)
          var_value_[static_cast<size_t>(affected_vars_[i])] = kUnlimited;
      break;
    }
    // The entry at the minimum has trigger <= level <= lambda, so every
    // round freezes someone.
    saturated_.clear();
    for (k = 0; k < n; ++k)
      if (trigger_[k] <= lambda)
        saturated_.push_back(owner_[k]);
    for (std::int32_t o : saturated_) {  // saturated rows freeze their users...
      if (o < 0 || local_rows_[static_cast<size_t>(o)].count == 0)
        continue;
      LocalRow& row = local_rows_[static_cast<size_t>(o)];
      row.count = 0;
      level_remove(row.slot);
      for (std::uint32_t e = row.begin; e < row.end; ++e) {
        const auto i = static_cast<std::uint32_t>(row_entries_[e].idx);
        if (local_vars_[i].growing)
          freeze(i, lambda * local_vars_[i].weight);
      }
    }
    for (std::int32_t o : saturated_)  // ...then capped variables snap to their cap
      if (o < 0 && local_vars_[static_cast<size_t>(~o)].growing)
        freeze(static_cast<std::uint32_t>(~o), local_vars_[static_cast<size_t>(~o)].cap);
  }
}

}  // namespace sg::core
