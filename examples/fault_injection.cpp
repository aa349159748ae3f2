/// Trace-driven fault injection ("simulation of dynamic resource failures"
/// in the paper): hosts and links of a two-zone platform go down and come
/// back following availability/state traces while a workload of
/// computations, transfers, and timers keeps running. The engine delivers
/// each failure only to the actions actually on the dead resource
/// (O(affected), via the solver's element arena and the per-host sleep
/// index), and the example restarts work as resources heal — a miniature
/// dependability study.
///
/// The platform is two cluster zones behind a fat-pipe WAN: a ring of
/// transfers crosses the WAN twice per lap, and the final report breaks
/// outages and completed work down per zone.
#include <cstdio>
#include <vector>

#include "core/engine.hpp"
#include "platform/platform.hpp"
#include "trace/trace.hpp"
#include "xbt/str.hpp"

using namespace sg::core;
using namespace sg::platform;

namespace {

constexpr int kHosts = 16;

/// Two 8-host cluster zones behind a fat-pipe WAN; every 4th host flaps
/// (2s up / 0.5s down), two member links flap on their own schedule, and
/// one host's speed follows a square wave. Traces are attached to the
/// zone-built resources through the mutable spec accessors.
Platform make_flaky_zones() {
  Platform p;
  for (int z = 0; z < 2; ++z) {
    ClusterZoneSpec zone;
    zone.name = sg::xbt::format("dc%d", z);
    zone.host_prefix = zone.name + "-";
    zone.count = kHosts / 2;
    zone.host_speed = 1e9;
    zone.link_bandwidth = 1.25e8;
    zone.link_latency = 1e-4;
    zone.backbone_bandwidth = 1.25e9;
    zone.backbone_latency = 1e-4;
    p.add_cluster_zone(zone);
  }
  const LinkId wan = p.add_link("wan", 1.25e9, 1e-3, SharingPolicy::kFatpipe);
  p.add_edge(p.zone_gateway(0), p.zone_gateway(1), wan);

  for (int i = 0; i < kHosts; ++i) {
    HostSpec& host = p.host_mutable(i);
    if (i % 4 == 0) {
      // 2.5s up / 0.5s down, phase-shifted per host; wrap points that would
      // spill past the period (a trace is one period long).
      const double period = 3.0;
      const double phase = 0.3 * (i / 4);
      const double down_t = 2.0 + phase;
      const double up_t = 2.5 + phase;
      std::vector<sg::trace::TracePoint> pts;
      if (up_t < period)
        pts = {{0.0, 1.0}, {down_t, 0.0}, {up_t, 1.0}};
      else
        pts = {{0.0, 0.0}, {up_t - period, 1.0}, {down_t, 0.0}};
      host.state = sg::trace::Trace(host.name + "-state", pts, period);
    }
    if (i == 1)
      host.availability = sg::trace::square_wave(host.name + "-avail", 1.0, 1.0, 0.4, 1.0);
    if (i == 3 || i == 7) {
      LinkSpec& link = p.link_mutable(*p.link_by_name(host.name + "-link"));
      link.state = sg::trace::Trace(link.name + "-state", {{0.0, 1.0}, {1.5, 0.0}, {2.0, 1.0}}, 2.5);
    }
  }
  p.seal();
  return p;
}

}  // namespace

int main() {
  Engine engine(make_flaky_zones());
  const Platform& plat = engine.platform();

  // Zone of each resource: a host's own, its private links' too; every other
  // link (backbones, WAN) counts as shared.
  const size_t shared = plat.zone_count();
  std::vector<size_t> link_zone(plat.link_count(), shared);
  for (int h = 0; h < kHosts; ++h)
    for (LinkId l : plat.host_private_links(h))
      link_zone[static_cast<size_t>(l)] = static_cast<size_t>(plat.zone_of_host(h));

  int done = 0, failed_exec = 0, failed_comm = 0, failed_sleep = 0, cross_zone_done = 0;
  std::vector<int> zone_done(plat.zone_count(), 0);
  std::vector<int> zone_outages(plat.zone_count() + 1, 0);  // [zones..., shared links]
  int host_outages = 0, link_outages = 0;
  engine.set_resource_observer([&](bool is_host, int index, bool now_on) {
    if (!now_on) {
      ++(is_host ? host_outages : link_outages);
      ++zone_outages[is_host ? static_cast<size_t>(plat.zone_of_host(index))
                             : link_zone[static_cast<size_t>(index)]];
    }
    std::printf("t=%7.3f  %s %d %s\n", engine.now(), is_host ? "host" : "link", index,
                now_on ? "is back" : "FAILED");
  });

  // The workload: a computation per host, a ring of transfers (crossing the
  // WAN twice per lap), and a watchdog timer on each flapping host. Failed
  // work is resubmitted as soon as the resource allows; transfers re-route
  // the moment comm_start is retried.
  auto submit_exec = [&](int host) {
    if (engine.host_is_on(host))
      engine.exec_start(host, 5e8, 1.0, sg::xbt::format("job-h%d", host));
  };
  auto submit_comm = [&](int src) { engine.comm_start(src, (src + 1) % kHosts, 2e7); };
  auto submit_sleep = [&](int host) {
    if (engine.host_is_on(host))
      engine.sleep_start(host, 0.25, "watchdog");
  };
  for (int h = 0; h < kHosts; ++h) {
    submit_exec(h);
    submit_comm(h);
    if (h % 4 == 0)
      submit_sleep(h);
  }

  while (engine.now() < 10.0) {
    const double before = engine.now();
    const auto events = engine.run_until(10.0);
    if (events.empty() && engine.now() == before)
      break;  // nothing left to happen before the horizon
    for (const auto& ev : events) {
      const Action& a = *ev.action;
      if (ev.failed) {
        switch (a.kind()) {
          case ActionKind::kExec:
            ++failed_exec;
            submit_exec(a.host());
            break;
          case ActionKind::kPtask:
            ++failed_exec;
            break;
          case ActionKind::kComm:
            ++failed_comm;
            // Retry later: the next completion on the source host resubmits.
            break;
          case ActionKind::kSleep:
            ++failed_sleep;
            submit_sleep(a.host());
            break;
        }
        continue;
      }
      ++done;
      ++zone_done[static_cast<size_t>(plat.zone_of_host(a.host()))];
      switch (a.kind()) {
        case ActionKind::kExec:
          submit_exec(a.host());
          submit_comm(a.host());  // also retries transfers killed by link loss
          break;
        case ActionKind::kComm:
          cross_zone_done += plat.zone_of_host(a.host()) != plat.zone_of_host(a.peer_host());
          submit_comm(a.host());
          break;
        case ActionKind::kSleep:
          submit_sleep(a.host());
          break;
        case ActionKind::kPtask:
          break;
      }
    }
  }

  std::printf("\nafter %.2f simulated seconds:\n", engine.now());
  std::printf("  %6d activities completed\n", done);
  std::printf("  %6d executions failed (resubmitted)\n", failed_exec);
  std::printf("  %6d transfers failed (re-routed on retry)\n", failed_comm);
  std::printf("  %6d watchdog timers killed with their host\n", failed_sleep);
  std::printf("  %6d host outages, %d link outages delivered O(affected)\n", host_outages,
              link_outages);

  // Per-zone breakdown: completed work by the zone of the host it ran on,
  // outages by the zone of the resource that went down.
  std::printf("\nper zone:\n");
  std::printf("%10s %8s %12s %10s\n", "zone", "hosts", "completed", "outages");
  for (size_t z = 0; z < plat.zone_count(); ++z)
    std::printf("%10s %8d %12d %10d\n", plat.zone_name(static_cast<int>(z)).c_str(),
                plat.zone_host_count(static_cast<int>(z)), zone_done[z], zone_outages[z]);
  std::printf("%10s %8s %12s %10d  (%d transfers completed across the WAN)\n", "shared", "-", "-",
              zone_outages[shared], cross_zone_done);

  const bool plausible = done > 0 && host_outages > 0 && link_outages > 0 &&
                         (failed_exec + failed_comm + failed_sleep) > 0 &&
                         zone_done[0] > 0 && zone_done[1] > 0 && cross_zone_done > 0;
  if (!plausible) {
    std::fprintf(stderr, "fault injection scenario did not exercise failures!\n");
    return 1;
  }
  std::printf("\nthe paper's dependability story: trace-driven failures, scalable delivery.\n");
  return 0;
}
