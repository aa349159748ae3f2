/// Two-datacenter master/worker at 32k hosts — the scale hierarchical zone
/// routing exists for. Two 16384-host cluster zones sit behind a fat-pipe
/// WAN link; a master in dc0 keeps a window of tasks in flight across
/// workers drawn from BOTH zones (dispatch comm -> exec -> result comm).
/// Every route is composed in O(1) from interned zone segments: after
/// hundreds of thousands of communications over tens of thousands of
/// distinct pairs, the platform still holds ZERO per-pair routing state.
///
/// The workload drives the SURF engine directly (simulated processes are OS
/// threads in this kernel, so 32k actors would be a thread-count exercise,
/// not a routing one; the engine event loop is where the scale lives).
///
///   zone_datacenter [hosts_per_zone] [n_tasks] [window]
#include <cstdio>
#include <cstdlib>
#include <chrono>

#include "core/engine.hpp"
#include "platform/platform.hpp"
#include "xbt/random.hpp"

namespace {

struct Task {
  int stage = 0;  ///< 0: dispatch comm, 1: exec, 2: result comm
  int worker = -1;
};

}  // namespace

int main(int argc, char** argv) {
  const int per_zone = argc > 1 ? std::atoi(argv[1]) : 16384;
  const int n_tasks = argc > 2 ? std::atoi(argv[2]) : 10000;
  const int window = argc > 3 ? std::atoi(argv[3]) : 128;

  using namespace sg::platform;
  Platform p;
  for (int z = 0; z < 2; ++z) {
    ClusterZoneSpec zone;
    zone.name = "dc" + std::to_string(z);
    zone.count = per_zone;
    zone.host_speed = 1e9;
    zone.link_bandwidth = 1.25e8;
    zone.link_latency = 5e-5;
    zone.backbone_bandwidth = 1.25e10;
    zone.backbone_latency = 5e-4;
    zone.backbone_fatpipe = true;
    p.add_cluster_zone(zone);
  }
  const LinkId wan = p.add_link("wan", 1.25e9, 1e-2, SharingPolicy::kFatpipe);
  p.add_edge(p.zone_gateway(0), p.zone_gateway(1), wan);
  p.seal();

  const int n_hosts = static_cast<int>(p.host_count());
  std::printf("platform: %d hosts in 2 cluster zones behind a fat-pipe WAN\n", n_hosts);
  {
    const auto cross = p.route(0, per_zone);
    std::printf("cross-zone route dc00 -> dc10: %zu links, %.1f ms latency\n", cross.size(),
                cross.latency() * 1e3);
  }

  sg::core::Engine engine(std::move(p));
  const Platform& plat = engine.platform();
  sg::xbt::Rng rng(4242);
  const int master = 0;

  auto pick_worker = [&] { return 1 + static_cast<int>(rng.uniform_int(0, n_hosts - 2)); };
  auto dispatch = [&](Task* t) {
    t->stage = 0;
    t->worker = pick_worker();
    engine.comm_start(master, t->worker, 2.5e5)->user_data = t;
  };

  const auto t0 = std::chrono::steady_clock::now();
  int launched = 0, done = 0;
  long long events = 0;
  std::vector<long long> zone_tasks(plat.zone_count(), 0);
  for (; launched < window && launched < n_tasks; ++launched)
    dispatch(new Task);

  while (done < n_tasks) {
    const auto fired = engine.run_until();
    for (const auto& ev : fired) {
      ++events;
      Task* t = static_cast<Task*>(ev.action->user_data);
      if (t == nullptr)
        continue;
      switch (t->stage) {
        case 0:  // task arrived at the worker: crunch
          t->stage = 1;
          ++zone_tasks[static_cast<size_t>(plat.zone_of_host(t->worker))];
          engine.exec_start(t->worker, rng.uniform(5e7, 5e8))->user_data = t;
          break;
        case 1:  // done crunching: send the result home
          t->stage = 2;
          engine.comm_start(t->worker, master, 1.6e4)->user_data = t;
          break;
        case 2:  // result landed at the master
          ++done;
          if (launched < n_tasks) {
            ++launched;
            dispatch(t);  // keep the window full
          } else {
            delete t;
          }
          break;
      }
    }
  }
  const double wall = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  const auto mem = plat.routing_memory();
  std::printf("\n%d tasks over %d hosts in %.2f simulated s (%.2f wall s, %.0f events/s)\n", done,
              n_hosts, engine.now(), wall, static_cast<double>(events) / wall);
  std::printf("routing state: %.0f KB total (%.0f B/host), %zu interned segments,\n",
              mem.total() / 1024.0, static_cast<double>(mem.total()) / n_hosts,
              plat.interned_segment_count());
  std::printf("%zu per-pair cache entries, %zu SSSP trees — O(hosts), not O(pairs)\n",
              plat.resolved_route_count(), plat.cached_sssp_tree_count());

  // Per-zone view: the workers each zone contributed, and the solver's
  // footprint for the whole platform.
  std::printf("\n%10s %8s %12s\n", "zone", "hosts", "tasks");
  for (size_t z = 0; z < plat.zone_count(); ++z)
    std::printf("%10s %8d %12lld\n", plat.zone_name(static_cast<int>(z)).c_str(),
                plat.zone_host_count(static_cast<int>(z)), zone_tasks[z]);
  std::printf("solver: %.0f KB for %zu constraints\n",
              engine.sharing_system().memory_stats().total_bytes() / 1024.0,
              engine.sharing_system().constraint_count());
  return 0;
}
