#include "engine_churn.hpp"

#include <cmath>
#include <vector>

#include "platform/parser.hpp"

namespace perfbench {
namespace {

using sg::core::ActionEvent;
using sg::core::ActionPtr;
using sg::core::Engine;

/// Cumulative counters read before and after the timed phase.
struct Snapshot {
  sg::core::MaxMinSystem::SolveStats solve;
  size_t group_solves = 0;
  Engine::PhaseStats phases;

  explicit Snapshot(const Engine& e)
      : solve(e.sharing_system().solve_stats()),
        group_solves(e.sharing_system().group_solve_count()),
        phases(e.phase_stats()) {}
};

double share(std::uint64_t part, std::uint64_t total) {
  return total > 0 ? static_cast<double>(part) / static_cast<double>(total) : 0.0;
}

}  // namespace

Rep run_churn_rep(const std::string& platform_text, std::uint64_t seed, ChurnWorkload& w,
                  const ChurnBudget& budget, const RepMode& mode, Checks& checks) {
  const ScopedMode scoped(mode);
  sg::xbt::Rng rng(seed);            // the workload's flow sequence
  sg::xbt::Rng check_rng(~seed);     // which links the load check samples
  Rep rep;
  Digest digest;

  // -- set-up: parse + seal, Engine, initial flows -----------------------------
  const auto t_setup = Clock::now();
  sg::platform::Platform parsed = sg::platform::parse_platform(platform_text);
  const double parse_s = seconds_since(t_setup);
  const int slots = w.bind(parsed);
  Engine engine(std::move(parsed));
  const sg::platform::Platform& p = engine.platform();

  bool timing = false;  // wrap comm_start / run_until (traced reps, timed phase)
  double start_ns = 0;
  std::uint64_t starts = 0;
  std::vector<float> run_until_us;
  std::vector<std::pair<int, int>> pairs;  // replayed through route() afterwards
  auto start_flow = [&](int slot) {
    int src = 0, dst = 0;
    double bytes = 0;
    w.next_flow(slot, rng, &src, &dst, &bytes);
    ActionPtr a;
    if (timing) {
      const auto t0 = Clock::now();
      a = engine.comm_start(src, dst, bytes);
      start_ns += ns_between(t0, Clock::now());
      ++starts;
      pairs.emplace_back(src, dst);
    } else {
      a = engine.comm_start(src, dst, bytes);
    }
    a->user_data = reinterpret_cast<void*>(static_cast<std::intptr_t>(slot));
  };

  // Footprint probes walk the heap: traced reps only, so setup_s never pays.
  auto footprint = [&] {
    return mode.traced ? heap_bytes() - static_cast<double>(
                                           engine.sharing_system().memory_stats().total_bytes())
                       : 0.0;
  };
  const double footprint0 = footprint();
  for (int s = 0; s < slots; ++s)
    start_flow(s);
  rep.setup_s = seconds_since(t_setup);
  const double bytes_per_action = (footprint() - footprint0) / slots;  // engine-side bytes

  // -- the run loop ------------------------------------------------------------
  std::uint64_t rounds = 0;
  auto handle = [&](const ActionEvent& ev, bool replace) {
    const sg::core::Action& a = *ev.action;
    const int slot = static_cast<int>(reinterpret_cast<std::intptr_t>(a.user_data));
    digest.add(static_cast<std::uint64_t>(slot));
    digest.add(static_cast<std::uint64_t>(ev.failed));
    digest.add(a.finish_time());
    digest.add(a.total());
    if (ev.failed)
      checks.check(w.failure_expected(engine, a), "flow failed without a scheduled trace");
    else
      checks.check(a.state() == sg::core::ActionState::kDone &&
                       respects_bound(a.finish_time() - a.start_time(),
                                      solo_lower_bound(p, a.host(), a.peer_host(), a.total())),
                   "flow beat its solo lower bound");
    if (replace)
      start_flow(slot);
  };
  auto sample_links = [&] {
    for (int i = 0; i < 4; ++i) {
      const auto l = static_cast<sg::platform::LinkId>(check_rng.uniform_int(0, p.link_count() - 1));
      checks.check(engine.link_load(l) <= engine.link_bandwidth(l) * (1 + 1e-9),
                   "link load exceeds its bandwidth");
    }
  };
  std::vector<double>* slices = nullptr;  // set for the timed phase
  auto run = [&](std::uint64_t n_events, bool replace) {
    std::uint64_t events = 0;
    std::uint64_t slice_start = 0;
    auto t_slice = Clock::now();
    while (replace ? events < n_events : engine.running_action_count() > 0) {
      sg::core::StepLog log;
      if (timing) {
        const auto t0 = Clock::now();
        log = engine.run_until();
        run_until_us.push_back(static_cast<float>(ns_between(t0, Clock::now()) / 1e3));
      } else {
        log = engine.run_until();
      }
      for (const ActionEvent& ev : log) {
        ++events;
        handle(ev, replace);
      }
      if (++rounds % budget.sample_every_rounds == 0)
        sample_links();
      if (slices != nullptr && events - slice_start >= budget.slice_events) {
        const auto now = Clock::now();
        slices->push_back(static_cast<double>(events - slice_start) * 1e9 / ns_between(t_slice, now));
        slice_start = events;
        t_slice = now;
      }
    }
    return events;
  };

  // The N-thread row is informational, and the spread regime runs up to ten
  // times slower on lanes: it gets a tenth of the work (and its own digest).
  const std::uint64_t share_of_work = mode.threads > 1 ? 10 : 1;
  run(budget.warmup_events / share_of_work, true);
  timing = mode.traced;
  const Snapshot before(engine);
  const std::uint64_t rounds0 = rounds;
  slices = &rep.rates;
  const auto t_timed = Clock::now();
  rep.events = run(budget.timed_events / share_of_work, true);
  rep.timed_s = seconds_since(t_timed);
  slices = nullptr;
  const Snapshot after(engine);
  const std::uint64_t timed_rounds = rounds - rounds0;
  timing = false;

  const auto mem = engine.sharing_system().memory_stats();
  const double bytes_per_flow =
      mem.live_variables > 0 ? static_cast<double>(mem.total_bytes()) / mem.live_variables : 0.0;
  const size_t resolved_routes = p.resolved_route_count();
  const size_t sssp_trees = p.cached_sssp_tree_count();
  const double routing_bytes = static_cast<double>(p.routing_memory().total());

  run(0, false);  // drain: every flow must end done or failed by a trace
  checks.check(engine.running_action_count() == 0, "flows left running after the drain");
  digest.add(engine.now());
  rep.digest = digest.value();
  rep.clock = engine.now();

  const Engine::PhaseStats& ph = after.phases;
  const Engine::PhaseStats& ph0 = before.phases;
  if (mode.threads > 1) {
    double busy = 0;
    for (size_t i = 0; i < ph.lane_busy_ns.size(); ++i)
      busy += static_cast<double>(ph.lane_busy_ns[i] -
                                  (i < ph0.lane_busy_ns.size() ? ph0.lane_busy_ns[i] : 0));
    const double fanout = static_cast<double>(ph.parallel_ns - ph0.parallel_ns);
    rep.layer.push_back({"engine.lane_busy_share",
                         fanout > 0 ? busy / (fanout * engine.thread_count()) : 0.0, "ratio"});
  }
  if (!mode.traced)
    return rep;

  // Route cost on this rep's own pairs, replayed after the timed phase.
  const size_t n_replay = std::min<size_t>(pairs.size(), 200000);
  const auto t_route = Clock::now();
  for (size_t i = 0; i < n_replay; ++i)
    p.route(pairs[i].first, pairs[i].second);
  const double route_ns = n_replay > 0 ? ns_between(t_route, Clock::now()) / n_replay : 0.0;

  const std::uint64_t solves = after.solve.solves - before.solve.solves;
  const std::uint64_t total_ns = ph.total_ns - ph0.total_ns;
  std::vector<double> rt(run_until_us.begin(), run_until_us.end());
  rep.layer = {
      {"platform.parse_s", parse_s, "s"},
      {"platform.route_ns", route_ns, "ns"},
      {"platform.resolved_routes", static_cast<double>(resolved_routes), "count"},
      {"platform.sssp_trees", static_cast<double>(sssp_trees), "count"},
      {"platform.routing_bytes", routing_bytes, "B"},
      {"maxmin.solves", static_cast<double>(solves), "count"},
      {"maxmin.full_solves", static_cast<double>(after.solve.full_solves - before.solve.full_solves), "count"},
      {"maxmin.vars_per_solve",
       solves > 0 ? static_cast<double>(after.solve.vars_visited - before.solve.vars_visited) / solves : 0.0,
       "count"},
      {"maxmin.group_solves", static_cast<double>(after.group_solves - before.group_solves), "count"},
      {"maxmin.bytes_per_flow", bytes_per_flow, "B"},
      {"engine.run_until_us_p50", quantile(rt, 0.5), "us"},
      {"engine.run_until_us_p99", quantile(rt, 0.99), "us"},
      {"engine.run_until_samples", static_cast<double>(rt.size()), "count"},
      {"engine.start_ns", starts > 0 ? start_ns / starts : 0.0, "ns"},
      {"engine.events_per_round",
       timed_rounds > 0 ? static_cast<double>(rep.events) / timed_rounds : 0.0, "count"},
      {"engine.solve_share", share(ph.solve_ns - ph0.solve_ns, total_ns), "ratio"},
      {"engine.pick_share", share(ph.pick_ns - ph0.pick_ns, total_ns), "ratio"},
      {"engine.advance_share", share(ph.advance_ns - ph0.advance_ns, total_ns), "ratio"},
      {"engine.epilogue_share", share(ph.epilogue_ns - ph0.epilogue_ns, total_ns), "ratio"},
      {"engine.bytes_per_action", bytes_per_action, "B"},
      // No actors: the kernel layer is idle on the engine workloads.
      {"kernel.run_s", 0.0, "s"},
      {"kernel.self_share", 0.0, "ratio"},
      {"kernel.switch_ns", 0.0, "ns"},
      {"kernel.context_switches", 0.0, "count"},
      {"kernel.wakeups", 0.0, "count"},
      {"kernel.bytes_per_actor", 0.0, "B"},
      {"kernel.stack_slabs", 0.0, "count"},
  };
  return rep;
}

}  // namespace perfbench
