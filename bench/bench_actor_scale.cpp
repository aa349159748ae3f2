/// Actor-runtime scale bench: the "millions of simulated processes" axis.
///
/// For each scale (10k, 100k, 1M actors) it spawns rendezvous pairs across a
/// multi-zone cluster — the same shape as examples/actor_swarm.cpp — and
/// measures what the fiber runtime costs per actor:
///
///  * spawn_per_sec    — actor creation rate (slot arena + lazy contexts)
///  * wakeups_per_sec  — blocked->ready transitions retired per wall second
///    (the scheduler's useful-work rate; mailbox matching, the ready queue
///    and comm pooling all sit on this path)
///  * bytes_per_actor  — peak RSS growth divided by actor count (stacks are
///    lazily committed and slab-pooled, so this is far below stack-size)
///
/// With --json=PATH the results are written in the BENCH_engine.json shape
/// as a BENCH_actors.json artifact for CI trend tracking: wall times and
/// bytes are tracked lower-is-better, the *_per_sec extras higher-is-better.
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "core/engine.hpp"
#include "kernel/context.hpp"
#include "kernel/kernel.hpp"
#include "platform/platform.hpp"
#include "xbt/str.hpp"

namespace {

bench::JsonWriter g_json;

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch()).count();
}

size_t read_rss(bool peak) {
  size_t bytes = 0;
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    const char* want = peak ? "VmHWM: %zu kB" : "VmRSS: %zu kB";
    while (std::fgets(line, sizeof line, f)) {
      size_t kb = 0;
      if (std::sscanf(line, want, &kb) == 1) {
        bytes = kb * 1024;
        break;
      }
    }
    std::fclose(f);
  }
  return bytes;
}

/// Multi-zone cluster big enough to spread the swarm; the zone count grows
/// with the swarm so routes compose across more gateways at larger sizes.
sg::platform::Platform make_swarm_platform(long n_actors) {
  const int zones = n_actors >= 500000 ? 16 : 4;
  sg::platform::Platform p;
  for (int z = 0; z < zones; ++z) {
    sg::platform::ClusterZoneSpec zone;
    zone.name = "zone" + std::to_string(z);
    zone.host_prefix = "z" + std::to_string(z) + "-";
    zone.count = 64;
    p.add_cluster_zone(zone);
  }
  p.seal();
  return p;
}

void bench_scale(long n_actors) {
  using sg::kernel::Kernel;
  using sg::kernel::MailboxId;

  const long n_pairs = n_actors / 2;
  sg::platform::Platform p = make_swarm_platform(n_actors);
  const int host_count = static_cast<int>(p.host_count());

  const size_t rss_before = read_rss(/*peak=*/false);
  Kernel k(std::move(p));

  const double t_spawn = now_s();
  for (long i = 0; i < n_pairs; ++i) {
    const int host = static_cast<int>(i % host_count);
    const MailboxId mbox = k.mailbox_by_name("pair:" + std::to_string(i));
    k.spawn("rx", host, [&k, mbox] { k.recv(mbox); });
    k.spawn("tx", host, [&k, mbox] { k.send(mbox, nullptr, 1e3); });
  }
  const double spawn_wall = now_s() - t_spawn;

  const double t_run = now_s();
  k.run();
  const double run_wall = now_s() - t_run;

  const size_t rss_peak = read_rss(/*peak=*/true);
  const double bytes_per_actor =
      rss_peak > rss_before
          ? static_cast<double>(rss_peak - rss_before) / static_cast<double>(n_actors)
          : 0.0;
  const auto& st = k.stats();
  const auto pool = k.context_factory().pool_stats();

  const std::string name = sg::xbt::format("actor_scale/%ldk", n_actors / 1000);
  g_json.record(name, spawn_wall + run_wall,
                {{"spawn_per_sec", static_cast<double>(n_actors) / spawn_wall},
                 {"wakeups_per_sec", static_cast<double>(st.wakeups) / run_wall}});
  g_json.record_bytes(name + "/bytes_per_actor", bytes_per_actor);

  std::printf(
      "%8ld actors [%zu KiB stacks]: spawn %.2fs (%.0f/s), run %.2fs (%" PRIu64
      " wakeups, %.0f/s), %.0f B/actor, %zu stacks in %zu slabs\n",
      n_actors, pool.stack_bytes >> 10, spawn_wall,
      static_cast<double>(n_actors) / spawn_wall, run_wall, st.wakeups,
      static_cast<double>(st.wakeups) / run_wall, bytes_per_actor, pool.stacks_allocated,
      pool.slabs);
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0)
      json_path = argv[i] + 7;
    else if (std::strcmp(argv[i], "--quick") == 0)
      quick = true;
  }

  // Swarm tuning (same as examples/actor_swarm.cpp): tiny lazily-committed
  // stacks, no guard pages so 1M stacks fit the default VMA budget.
  sg::kernel::declare_context_config();
  sg::config::set(sg::kernel::kCfgContextStackSize, 64L << 10);
  sg::config::set(sg::kernel::kCfgContextGuardPages, 0);

  std::vector<long> scales{10000, 100000, 1000000};
  if (quick)
    scales = {10000, 100000};
  for (long n : scales)
    bench_scale(n);

  if (!json_path.empty())
    g_json.write(json_path);
  return 0;
}
