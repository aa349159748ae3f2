/// E8 — microbenchmark behind the paper's "fast and accurate simulation
/// capabilities" claim: cost of the MaxMin progressive-filling solve as the
/// system grows, and the sharing-policy ablation (shared vs fatpipe).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "core/maxmin.hpp"
#include "xbt/random.hpp"

namespace {

using sg::core::MaxMinSystem;

void build_random_system(MaxMinSystem& sys, int n_vars, int n_cnsts, bool fatpipes,
                         std::uint64_t seed) {
  sg::xbt::Rng rng(seed);
  std::vector<MaxMinSystem::CnstId> cnsts;
  for (int c = 0; c < n_cnsts; ++c)
    cnsts.push_back(sys.new_constraint(rng.uniform(10, 1000), !fatpipes || rng.uniform01() < 0.7));
  for (int v = 0; v < n_vars; ++v) {
    auto var = sys.new_variable(rng.uniform(0.5, 2.0));
    const int uses = 1 + static_cast<int>(rng.uniform_int(0, 2));
    for (int u = 0; u < uses; ++u)
      sys.expand(cnsts[rng.uniform_int(0, static_cast<std::uint64_t>(n_cnsts - 1))], var,
                 rng.uniform(0.5, 2.0));
  }
}

// Both rows time a from-scratch solve_full() every iteration: a plain
// solve() on a system with no pending mutation returns at once.
void BM_SolveFullShared(benchmark::State& state) {
  MaxMinSystem sys;
  build_random_system(sys, static_cast<int>(state.range(0)), static_cast<int>(state.range(0)) / 4 + 1,
                      false, 1);
  for (auto _ : state) {
    sys.solve_full();
    benchmark::DoNotOptimize(sys.value(0));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SolveFullShared)->RangeMultiplier(4)->Range(16, 4096)->Complexity();

void BM_SolveFullWithFatpipes(benchmark::State& state) {
  MaxMinSystem sys;
  build_random_system(sys, static_cast<int>(state.range(0)), static_cast<int>(state.range(0)) / 4 + 1,
                      true, 2);
  for (auto _ : state) {
    sys.solve_full();
    benchmark::DoNotOptimize(sys.value(0));
  }
}
BENCHMARK(BM_SolveFullWithFatpipes)->RangeMultiplier(4)->Range(16, 4096);

void BM_IncrementalChurn(benchmark::State& state) {
  // The engine's actual usage pattern: actions come and go between solves.
  MaxMinSystem sys;
  sg::xbt::Rng rng(3);
  std::vector<MaxMinSystem::CnstId> cnsts;
  for (int c = 0; c < 64; ++c)
    cnsts.push_back(sys.new_constraint(100.0));
  std::vector<MaxMinSystem::VarId> vars;
  for (int v = 0; v < 256; ++v) {
    auto var = sys.new_variable(1.0);
    sys.expand(cnsts[static_cast<size_t>(v) % cnsts.size()], var);
    vars.push_back(var);
  }
  size_t cursor = 0;
  for (auto _ : state) {
    sys.release_variable(vars[cursor]);
    auto var = sys.new_variable(1.0);
    sys.expand(cnsts[cursor % cnsts.size()], var);
    vars[cursor] = var;
    cursor = (cursor + 1) % vars.size();
    sys.solve();
    benchmark::DoNotOptimize(sys.usage(cnsts[0]));
  }
}
BENCHMARK(BM_IncrementalChurn);

// --- the acceptance workload: N independent client/server pairs, one flow
// changed per event. Each flow crosses its pair's client and server link.
// BM_ChurnIncremental re-solves with the incremental path (only the touched
// pair's component); BM_ChurnFullResolve forces the from-scratch solver on
// the identical mutation sequence. The ratio of the two is the speedup that
// turns per-event cost from O(system) into O(affected subgraph).

struct PairedFlows {
  MaxMinSystem sys;
  std::vector<MaxMinSystem::CnstId> client_links;
  std::vector<MaxMinSystem::CnstId> server_links;
  std::vector<MaxMinSystem::VarId> flows;
};

PairedFlows build_paired_flows(int n_pairs) {
  PairedFlows p;
  sg::xbt::Rng rng(7);
  for (int i = 0; i < n_pairs; ++i) {
    p.client_links.push_back(p.sys.new_constraint(rng.uniform(50, 150)));
    p.server_links.push_back(p.sys.new_constraint(rng.uniform(50, 150)));
    auto flow = p.sys.new_variable(1.0);
    p.sys.expand(p.client_links.back(), flow);
    p.sys.expand(p.server_links.back(), flow);
    p.flows.push_back(flow);
  }
  p.sys.solve();
  return p;
}

void churn_one_flow(PairedFlows& p, size_t cursor) {
  p.sys.release_variable(p.flows[cursor]);
  auto flow = p.sys.new_variable(1.0);
  p.sys.expand(p.client_links[cursor], flow);
  p.sys.expand(p.server_links[cursor], flow);
  p.flows[cursor] = flow;
}

void BM_ChurnIncremental(benchmark::State& state) {
  auto p = build_paired_flows(static_cast<int>(state.range(0)));
  size_t cursor = 0;
  for (auto _ : state) {
    churn_one_flow(p, cursor);
    cursor = (cursor + 1) % p.flows.size();
    p.sys.solve();
    benchmark::DoNotOptimize(p.sys.value(p.flows[cursor]));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ChurnIncremental)->RangeMultiplier(4)->Range(160, 10240)->Complexity();

void BM_ChurnFullResolve(benchmark::State& state) {
  auto p = build_paired_flows(static_cast<int>(state.range(0)));
  size_t cursor = 0;
  for (auto _ : state) {
    churn_one_flow(p, cursor);
    cursor = (cursor + 1) % p.flows.size();
    p.sys.solve_full();
    benchmark::DoNotOptimize(p.sys.value(p.flows[cursor]));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ChurnFullResolve)->RangeMultiplier(4)->Range(160, 10240)->Complexity();

// --- coupled components: N flows on random multi-hop routes over a 100-node
// graph, so the flows share links and every churn event re-solves one large
// component over many filling rounds (the regime of perfbench's
// waxman_coupled workload). One flow is replaced per iteration.

/// Hop lists (link indices) of shortest routes between random node pairs of a
/// ring-plus-chords graph.
std::vector<std::vector<int>> random_graph_routes(int n_nodes, int n_routes, sg::xbt::Rng& rng,
                                                  int& n_links) {
  std::vector<std::vector<std::pair<int, int>>> adj(static_cast<size_t>(n_nodes));  // (peer, link)
  n_links = 0;
  auto add_edge = [&](int a, int b) {
    adj[static_cast<size_t>(a)].push_back({b, n_links});
    adj[static_cast<size_t>(b)].push_back({a, n_links});
    ++n_links;
  };
  for (int v = 0; v < n_nodes; ++v)
    add_edge(v, (v + 1) % n_nodes);
  for (int c = 0; c < n_nodes; ++c)
    add_edge(static_cast<int>(rng.uniform_int(0, static_cast<std::uint64_t>(n_nodes - 1))),
             static_cast<int>(rng.uniform_int(0, static_cast<std::uint64_t>(n_nodes - 1))));
  std::vector<std::vector<int>> routes;
  std::vector<std::pair<int, int>> parent;  // (previous node, link) on the BFS tree
  while (static_cast<int>(routes.size()) < n_routes) {
    const int src = static_cast<int>(rng.uniform_int(0, static_cast<std::uint64_t>(n_nodes - 1)));
    const int dst = static_cast<int>(rng.uniform_int(0, static_cast<std::uint64_t>(n_nodes - 1)));
    if (src == dst)
      continue;
    parent.assign(static_cast<size_t>(n_nodes), {-1, -1});
    parent[static_cast<size_t>(src)] = {src, -1};
    std::vector<int> queue{src};
    for (size_t q = 0; q < queue.size(); ++q)
      for (auto [peer, link] : adj[static_cast<size_t>(queue[q])])
        if (parent[static_cast<size_t>(peer)].first < 0) {
          parent[static_cast<size_t>(peer)] = {queue[q], link};
          queue.push_back(peer);
        }
    std::vector<int> hops;
    for (int v = dst; v != src; v = parent[static_cast<size_t>(v)].first)
      hops.push_back(parent[static_cast<size_t>(v)].second);
    routes.push_back(std::move(hops));
  }
  return routes;
}

/// One coupled-component churn run. `bounded`: every flow also gets a rate
/// bound, as engine flows carry their gamma / 2 RTT window bound.
void coupled_component_churn(benchmark::State& state, bool bounded) {
  const int n_flows = static_cast<int>(state.range(0));
  sg::xbt::Rng rng(11);
  int n_links = 0;
  const auto routes = random_graph_routes(100, 4 * n_flows, rng, n_links);
  MaxMinSystem sys;
  std::vector<MaxMinSystem::CnstId> links;
  for (int l = 0; l < n_links; ++l)
    links.push_back(sys.new_constraint(rng.uniform(10, 1000)));
  auto start_flow = [&] {
    const auto var = sys.new_variable(1.0, bounded ? rng.uniform(10, 1000) : MaxMinSystem::kNoBound);
    for (int hop : routes[rng.uniform_int(0, routes.size() - 1)])
      sys.expand(links[static_cast<size_t>(hop)], var);
    return var;
  };
  std::vector<MaxMinSystem::VarId> flows;
  for (int f = 0; f < n_flows; ++f)
    flows.push_back(start_flow());
  sys.solve();
  const auto before = sys.solve_stats();
  size_t cursor = 0;
  for (auto _ : state) {
    sys.release_variable(flows[cursor]);
    flows[cursor] = start_flow();
    cursor = (cursor + 1) % flows.size();
    sys.solve();
    benchmark::DoNotOptimize(sys.value(flows[cursor]));
  }
  const auto after = sys.solve_stats();
  const double solves = static_cast<double>(std::max<size_t>(1, after.solves - before.solves));
  state.counters["vars_per_solve"] =
      static_cast<double>(after.vars_visited - before.vars_visited) / solves;
  state.counters["scanned_per_solve"] =
      static_cast<double>(after.elements_scanned - before.elements_scanned) / solves;
  state.counters["rounds_per_solve"] = static_cast<double>(after.rounds - before.rounds) / solves;
}

void BM_CoupledComponentChurn(benchmark::State& state) { coupled_component_churn(state, false); }
BENCHMARK(BM_CoupledComponentChurn)->Arg(50)->Arg(200)->Arg(800);

void BM_CoupledComponentChurnBounded(benchmark::State& state) { coupled_component_churn(state, true); }
BENCHMARK(BM_CoupledComponentChurnBounded)->Arg(200);

// --- fat-pipe churn: N flows, each on its own access link and on one shared
// fat pipe (a cluster backbone or WAN link); one flow is released, re-added
// and re-solved per iteration. Caps are read from the variable side and
// releases unlink through twin links, so scanned_per_solve — and the time —
// stays flat in N.
void BM_FatpipeChurn(benchmark::State& state) {
  const int n_flows = static_cast<int>(state.range(0));
  sg::xbt::Rng rng(13);
  MaxMinSystem sys;
  const auto pipe = sys.new_constraint(1e4, /*shared=*/false);
  std::vector<MaxMinSystem::CnstId> access;
  std::vector<MaxMinSystem::VarId> flows;
  auto start_flow = [&](size_t f) {
    const auto var = sys.new_variable(1.0);
    sys.expand(access[f], var);
    sys.expand(pipe, var);
    return var;
  };
  for (int f = 0; f < n_flows; ++f) {
    access.push_back(sys.new_constraint(rng.uniform(10, 1e5)));
    flows.push_back(start_flow(static_cast<size_t>(f)));
  }
  sys.solve();
  const auto before = sys.solve_stats();
  size_t cursor = 0;
  for (auto _ : state) {
    sys.release_variable(flows[cursor]);
    flows[cursor] = start_flow(cursor);
    sys.solve();
    benchmark::DoNotOptimize(sys.value(flows[cursor]));
    cursor = (cursor + 1) % flows.size();
  }
  const auto after = sys.solve_stats();
  const double solves = static_cast<double>(std::max<size_t>(1, after.solves - before.solves));
  state.counters["scanned_per_solve"] =
      static_cast<double>(after.elements_scanned - before.elements_scanned) / solves;
  state.counters["rounds_per_solve"] = static_cast<double>(after.rounds - before.rounds) / solves;
}
BENCHMARK(BM_FatpipeChurn)->Arg(100)->Arg(1000)->Arg(10000);

}  // namespace

BENCHMARK_MAIN();
