/// master_worker — the paper's MSG design point, driven through the msg
/// API. 4 parsed zones of 512 hosts each: a cluster of 511 workers plus a
/// front-end host for the zone's master, attached to the cluster gateway by
/// a fat-pipe link. About 2k long-lived processes (one per host). Each
/// master dispatches its tasks in waves: one task per own worker, of which
/// about 10% instead go to a worker in another zone. Tasks take their flops
/// and bytes from a few fixed sizes. A master sends a wave through
/// short-lived courier processes and collects the results through as many
/// collector processes (MSG's dynamic process creation), so the transfers
/// of a wave run concurrently; workers execute each task and return a small
/// result to the task's master.
///
/// Why: the kernel and msg layers dominate — process creation, context
/// switches, mailbox matching, the round epilogue. Equal task sizes over
/// equal links make many completions share a date, so this is the batched
/// regime (many events per round). Fat pipes carry everything but the
/// workers' private links, so no shared link couples concurrent flows and a
/// solver change should barely move this workload (maxmin.vars_per_solve
/// shows how much the solver's closures still group flows that only share
/// fat pipes).
#include <cstdint>
#include <vector>

#include "bench.hpp"
#include "core/engine.hpp"
#include "msg/msg.hpp"
#include "platform/parser.hpp"
#include "xbt/random.hpp"
#include "xbt/str.hpp"

namespace perfbench {
namespace {

using namespace sg::msg;

constexpr int kZones = 4;
constexpr int kWorkers = 511;  // cluster members per zone; the master has its own host
constexpr int kWaves = 30;
constexpr double kCrossZone = 0.10;
constexpr double kFlops[] = {1e8, 2e8, 4e8};
constexpr double kBytes[] = {1e5, 4e5};
constexpr double kResultBytes = 1e3;
constexpr int kTaskChannel = 0;
constexpr int kResultChannel = 1;
constexpr int kWaveDoneChannel = 2;
/// Events per rate sample: about one wave of all four masters, so every
/// sample holds the same mix of transfers, executions and process churn.
constexpr std::uint64_t kSliceEvents = 6000;

struct TaskSpec {
  int zone;    ///< destination worker's zone
  int member;  ///< destination worker's member index
  double flops;
  double bytes;
};

/// The seeded input: platform text and every master's task waves.
struct Plan {
  std::string text;
  std::vector<std::vector<std::vector<TaskSpec>>> waves;  ///< [zone][wave][i]
  std::vector<std::vector<int>> expected;                 ///< [zone][member] tasks received
  int total_tasks = 0;

  explicit Plan(std::uint64_t seed) {
    for (int z = 0; z < kZones; ++z)
      text += sg::xbt::format(
          "cluster mw%d hosts:%d prefix:mw%d- speed:1Gf bw:125MBps lat:50us backbone:10GBps "
          "blat:50us fatpipe\n"
          "host mw%d-master speed:1Gf\n"
          "link mw%d-front bw:10GBps lat:50us fatpipe\n"
          "edge mw%d-master mw%d-out mw%d-front\n",
          z, kWorkers, z, z, z, z, z, z);
    text += "router core\n";
    for (int z = 0; z < kZones; ++z)
      text += sg::xbt::format("link wan%d bw:1.25GBps lat:100us fatpipe\nedge core mw%d-out wan%d\n", z,
                              z, z);
    sg::xbt::Rng rng(seed * 7919 + 2);
    waves.assign(kZones, std::vector<std::vector<TaskSpec>>(kWaves));
    expected.assign(kZones, std::vector<int>(kWorkers, 0));
    for (int z = 0; z < kZones; ++z)
      for (int w = 0; w < kWaves; ++w)
        for (int m = 0; m < kWorkers; ++m) {
          TaskSpec t{z, m, 0, 0};
          if (rng.uniform01() < kCrossZone) {
            t.zone = static_cast<int>((z + 1 + rng.uniform_int(0, kZones - 2)) % kZones);
            t.member = static_cast<int>(rng.uniform_int(0, kWorkers - 1));
          }
          t.flops = kFlops[rng.uniform_int(0, 2)];
          t.bytes = kBytes[rng.uniform_int(0, 1)];
          waves[static_cast<size_t>(z)][static_cast<size_t>(w)].push_back(t);
          ++expected[static_cast<size_t>(t.zone)][static_cast<size_t>(t.member)];
          ++total_tasks;
        }
  }
};

void* id_ptr(int id) { return reinterpret_cast<void*>(static_cast<std::intptr_t>(id)); }
int ptr_id(const void* p) { return static_cast<int>(reinterpret_cast<std::intptr_t>(p)); }

Rep run_rep(const Plan& plan, const RepMode& mode, Checks& checks) {
  const ScopedMode scoped(mode);
  Rep rep;
  Digest digest;
  std::vector<int> executed(static_cast<size_t>(plan.total_tasks), 0);
  std::vector<int> collected(static_cast<size_t>(plan.total_tasks), 0);
  std::vector<int> wave_left(kZones, 0);
  std::vector<int> first(kZones, 0);   // first worker host of each zone
  std::vector<int> master(kZones, 0);  // each zone's master host
  // Live-process accounting for kernel.bytes_per_actor (traced reps only:
  // they run serially, so the counters need no synchronization).
  int live = 0, peak_live = 0, sampled_live = 0;
  double rss_at_peak = 0;
  auto enter = [&] {
    if (!mode.traced || ++live <= peak_live)
      return;
    peak_live = live;
    if (peak_live % 256 == 0) {
      sampled_live = peak_live;
      rss_at_peak = rss_bytes();
    }
  };
  auto leave = [&] {
    if (mode.traced)
      --live;
  };

  // -- set-up: parse + seal, Kernel, initial processes ---------------------------
  const auto t_setup = Clock::now();
  sg::platform::Platform parsed = sg::platform::parse_platform(plan.text);
  const double parse_s = seconds_since(t_setup);
  for (int z = 0; z < kZones; ++z) {
    first[static_cast<size_t>(z)] = parsed.zone_first_host(*parsed.zone_by_name(sg::xbt::format("mw%d", z)));
    master[static_cast<size_t>(z)] = *parsed.host_by_name(sg::xbt::format("mw%d-master", z));
  }
  MSG_init(std::move(parsed), 3);
  sg::kernel::Kernel& kernel = MSG_kernel();
  sg::core::Engine& engine = kernel.engine();
  const sg::platform::Platform& p = engine.platform();
  const double rss_before = rss_bytes();

  double best_live_vars = 0, bytes_per_flow = 0;
  auto t_slice = Clock::now();
  engine.set_action_observer([&](const sg::core::Action& a, sg::core::ActionState,
                                 sg::core::ActionState now) {
    using sg::core::ActionState;
    if (now != ActionState::kDone && now != ActionState::kFailed)
      return;
    if (++rep.events % kSliceEvents == 0) {
      const auto t = Clock::now();
      rep.rates.push_back(static_cast<double>(kSliceEvents) * 1e9 / ns_between(t_slice, t));
      t_slice = t;
    }
    digest.add(static_cast<std::uint64_t>(a.kind()));
    digest.add(static_cast<std::uint64_t>(a.host()) << 32 | static_cast<std::uint32_t>(a.peer_host()));
    digest.add(static_cast<std::uint64_t>(now));
    digest.add(a.finish_time());
    digest.add(a.total());
    if (!checks.check(now == ActionState::kDone, "activity failed on a platform without traces"))
      return;
    const double took = a.finish_time() - a.start_time();
    if (a.kind() == sg::core::ActionKind::kExec)
      checks.check(respects_bound(took, a.total() / p.host(a.host()).speed_flops),
                   "execution beat its solo lower bound");
    else if (a.kind() == sg::core::ActionKind::kComm && a.host() != a.peer_host())
      checks.check(respects_bound(took, solo_lower_bound(p, a.host(), a.peer_host(), a.total())),
                   "transfer beat its solo lower bound");
    if (mode.traced && rep.events % 256 == 0) {
      const auto mem = engine.sharing_system().memory_stats();
      if (static_cast<double>(mem.live_variables) > best_live_vars) {
        best_live_vars = static_cast<double>(mem.live_variables);
        bytes_per_flow = static_cast<double>(mem.total_bytes()) / best_live_vars;
      }
    }
  });

  int next_id = 0;
  for (int z = 0; z < kZones; ++z) {
    const int base_id = next_id;
    for (const auto& wave : plan.waves[static_cast<size_t>(z)])
      next_id += static_cast<int>(wave.size());
    MSG_process_create("master", [&, z, base_id] {
      enter();
      const m_host_t self = MSG_host_self();
      int id = base_id;
      for (const auto& wave : plan.waves[static_cast<size_t>(z)]) {
        wave_left[static_cast<size_t>(z)] = static_cast<int>(wave.size());
        for (const TaskSpec& t : wave) {
          m_task_t task = MSG_task_create("task", t.flops, t.bytes, id_ptr(id++));
          const m_host_t dest{first[static_cast<size_t>(t.zone)] + t.member};
          MSG_process_create("courier", [&, task, dest] {
            enter();
            MSG_task_put(task, dest, kTaskChannel);
            leave();
          }, self);
        }
        for (size_t i = 0; i < wave.size(); ++i)
          MSG_process_create("collector", [&, z, self] {
            enter();
            m_task_t result = nullptr;
            MSG_task_get(&result, kResultChannel);
            ++collected[static_cast<size_t>(ptr_id(result->data))];
            MSG_task_destroy(result);
            if (--wave_left[static_cast<size_t>(z)] == 0)
              MSG_task_put(MSG_task_create("wave-done", 0, 0), self, kWaveDoneChannel);
            leave();
          }, self);
        m_task_t done = nullptr;
        MSG_task_get(&done, kWaveDoneChannel);
        MSG_task_destroy(done);
      }
      leave();
    }, m_host_t{master[static_cast<size_t>(z)]});
  }
  for (int z = 0; z < kZones; ++z)
    for (int m = 0; m < kWorkers; ++m) {
      const int n = plan.expected[static_cast<size_t>(z)][static_cast<size_t>(m)];
      if (n == 0)
        continue;
      MSG_process_create("worker", [&, n] {
        enter();
        for (int k = 0; k < n; ++k) {
          m_task_t task = nullptr;
          MSG_task_get(&task, kTaskChannel);
          ++executed[static_cast<size_t>(ptr_id(task->data))];
          MSG_task_execute(task);
          MSG_task_put(MSG_task_create("result", 0, kResultBytes, task->data), task->source,
                       kResultChannel);
          MSG_task_destroy(task);
        }
        leave();
      }, m_host_t{first[static_cast<size_t>(z)] + m});
    }
  rep.setup_s = seconds_since(t_setup);

  // -- timed phase: the whole simulation -----------------------------------------
  const auto t_run = Clock::now();
  t_slice = t_run;
  rep.clock = MSG_main();
  rep.timed_s = seconds_since(t_run);

  checks.check(!kernel.deadlocked(), "simulation deadlocked");
  checks.check(kernel.alive_actor_count() == 0 && live == 0, "processes left alive");
  for (int id = 0; id < plan.total_tasks; ++id) {
    checks.check(executed[static_cast<size_t>(id)] == 1, "task not executed exactly once");
    checks.check(collected[static_cast<size_t>(id)] == 1, "result not collected exactly once");
  }
  digest.add(rep.clock);
  rep.digest = digest.value();

  const sg::core::Engine::PhaseStats ph = engine.phase_stats();
  if (mode.threads > 1) {
    double busy = 0;
    for (std::uint64_t b : ph.lane_busy_ns)
      busy += static_cast<double>(b);
    rep.layer.push_back({"engine.lane_busy_share",
                         ph.parallel_ns > 0
                             ? busy / (static_cast<double>(ph.parallel_ns) * engine.thread_count())
                             : 0.0,
                         "ratio"});
  }
  if (!mode.traced) {
    MSG_clean();
    return rep;
  }

  // Route cost on this workload's own master -> worker pairs.
  std::vector<std::pair<int, int>> pairs;
  for (int z = 0; z < kZones; ++z)
    for (const auto& wave : plan.waves[static_cast<size_t>(z)])
      for (const TaskSpec& t : wave)
        pairs.emplace_back(master[static_cast<size_t>(z)], first[static_cast<size_t>(t.zone)] + t.member);
  const auto t_route = Clock::now();
  for (const auto& [src, dst] : pairs)
    p.route(src, dst);
  const double route_ns = ns_between(t_route, Clock::now()) / static_cast<double>(pairs.size());

  const auto solve = engine.sharing_system().solve_stats();
  const double resolved_routes = static_cast<double>(p.resolved_route_count());
  const double sssp_trees = static_cast<double>(p.cached_sssp_tree_count());
  const double routing_bytes = static_cast<double>(p.routing_memory().total());
  const double group_solves = static_cast<double>(engine.sharing_system().group_solve_count());
  const sg::kernel::Kernel::Stats ks = kernel.stats();
  const double slabs = static_cast<double>(kernel.context_factory().pool_stats().slabs);
  const double run_ns = rep.timed_s * 1e9;
  const double engine_ns = static_cast<double>(ph.total_ns);
  const double kernel_ns = std::max(0.0, run_ns - engine_ns);
  MSG_clean();

  // The kernel owns the run loop here, so the engine's start path is timed
  // by replaying the first wave's starts on a fresh engine of the same
  // platform.
  double start_ns = 0, bytes_per_action = 0;
  {
    sg::core::Engine replay(sg::platform::parse_platform(plan.text));
    std::vector<sg::core::ActionPtr> keep;
    const double heap0 = heap_bytes();
    const double solver0 = static_cast<double>(replay.sharing_system().memory_stats().total_bytes());
    const auto t0 = Clock::now();
    for (int z = 0; z < kZones; ++z)
      for (const TaskSpec& t : plan.waves[static_cast<size_t>(z)][0]) {
        const int dest = first[static_cast<size_t>(t.zone)] + t.member;
        keep.push_back(replay.comm_start(master[static_cast<size_t>(z)], dest, t.bytes));
        keep.push_back(replay.exec_start(dest, t.flops));
      }
    start_ns = ns_between(t0, Clock::now()) / static_cast<double>(keep.size());
    const double solver1 = static_cast<double>(replay.sharing_system().memory_stats().total_bytes());
    bytes_per_action = (heap_bytes() - heap0 - (solver1 - solver0) -
                        static_cast<double>(keep.capacity() * sizeof(sg::core::ActionPtr))) /
                       static_cast<double>(keep.size());
  }

  const auto share = [&](std::uint64_t part) {
    return ph.total_ns > 0 ? static_cast<double>(part) / static_cast<double>(ph.total_ns) : 0.0;
  };
  // Single run_until() calls happen inside the kernel and cannot be timed
  // from outside: both percentiles carry the profiler's mean round time.
  const double round_us = ph.rounds > 0 ? engine_ns / 1e3 / static_cast<double>(ph.rounds) : 0.0;
  rep.layer = {
      {"platform.parse_s", parse_s, "s"},
      {"platform.route_ns", route_ns, "ns"},
      {"platform.resolved_routes", resolved_routes, "count"},
      {"platform.sssp_trees", sssp_trees, "count"},
      {"platform.routing_bytes", routing_bytes, "B"},
      {"maxmin.solves", static_cast<double>(solve.solves), "count"},
      {"maxmin.full_solves", static_cast<double>(solve.full_solves), "count"},
      {"maxmin.vars_per_solve",
       solve.solves > 0 ? static_cast<double>(solve.vars_visited) / static_cast<double>(solve.solves) : 0.0,
       "count"},
      {"maxmin.group_solves", group_solves, "count"},
      {"maxmin.bytes_per_flow", bytes_per_flow, "B"},
      {"engine.run_until_us_p50", round_us, "us"},
      {"engine.run_until_us_p99", round_us, "us"},
      {"engine.run_until_samples", static_cast<double>(ph.rounds), "count"},
      {"engine.start_ns", start_ns, "ns"},
      {"engine.events_per_round",
       ph.rounds > 0 ? static_cast<double>(ph.events) / static_cast<double>(ph.rounds) : 0.0, "count"},
      {"engine.solve_share", share(ph.solve_ns), "ratio"},
      {"engine.pick_share", share(ph.pick_ns), "ratio"},
      {"engine.advance_share", share(ph.advance_ns), "ratio"},
      {"engine.epilogue_share", share(ph.epilogue_ns), "ratio"},
      {"engine.bytes_per_action", bytes_per_action, "B"},
      {"kernel.run_s", rep.timed_s, "s"},
      {"kernel.self_share", run_ns > 0 ? kernel_ns / run_ns : 0.0, "ratio"},
      {"kernel.switch_ns",
       ks.context_switches > 0 ? kernel_ns / static_cast<double>(ks.context_switches) : 0.0, "ns"},
      {"kernel.context_switches", static_cast<double>(ks.context_switches), "count"},
      {"kernel.wakeups", static_cast<double>(ks.wakeups), "count"},
      {"kernel.bytes_per_actor", sampled_live > 0 ? (rss_at_peak - rss_before) / sampled_live : 0.0, "B"},
      {"kernel.stack_slabs", slabs, "count"},
  };
  return rep;
}

}  // namespace

Outcome run_master_worker(const Options& opt) {
  const Plan plan(opt.seed);
  RepMode nthread;
  nthread.threads = 4;
  nthread.parallel_actors = true;
  nthread.profile = true;
  return drive(opt, [&](const RepMode& mode, Checks& checks) { return run_rep(plan, mode, checks); },
               nthread);
}

}  // namespace perfbench
