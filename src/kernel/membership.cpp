#include "kernel/membership.hpp"

#include <algorithm>
#include <limits>

#include "xbt/exception.hpp"
#include "xbt/log.hpp"

SG_LOG_NEW_CATEGORY(membership, "dynamic membership driver and retry helpers");

namespace sg::kernel {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

namespace {

/// Shared retry loop: run `attempt` with a growing timeout, sleeping the
/// failed attempt's timeout before the next try. Absorbs the transient comm
/// failures (timeout, network failure, host down/departed); anything else —
/// cancellation, invalid arguments — propagates.
template <typename Attempt>
bool retry_loop(Kernel& k, const RetryPolicy& policy, const char* what, Attempt&& attempt) {
  double timeout = std::min(policy.timeout, policy.max_timeout);
  for (int n = 1; n <= std::max(1, policy.max_attempts); ++n) {
    try {
      attempt(timeout);
      return true;
    } catch (const xbt::TimeoutException& e) {
      SG_VERB(membership, "%s attempt %d/%d timed out: %s", what, n, policy.max_attempts, e.what());
    } catch (const xbt::NetworkFailureException& e) {
      SG_VERB(membership, "%s attempt %d/%d hit a network failure: %s", what, n,
              policy.max_attempts, e.what());
    } catch (const xbt::HostFailureException& e) {
      SG_VERB(membership, "%s attempt %d/%d hit a host failure: %s", what, n, policy.max_attempts,
              e.what());
    }
    if (n < policy.max_attempts) {
      k.sleep_for(timeout);  // back off before probing the peer again
      timeout = std::min(timeout * policy.backoff, policy.max_timeout);
    }
  }
  return false;
}

}  // namespace

bool retry_send(Kernel& k, MailboxId mailbox, void* payload, double bytes,
                const RetryPolicy& policy) {
  return retry_loop(k, policy, "send",
                    [&](double timeout) { k.send(mailbox, payload, bytes, timeout); });
}

void* retry_recv(Kernel& k, MailboxId mailbox, const RetryPolicy& policy, ActorId* source) {
  void* payload = nullptr;
  const bool ok = retry_loop(k, policy, "recv", [&](double timeout) {
    payload = k.recv(mailbox, timeout, source);
  });
  return ok ? payload : nullptr;
}

ActorId start_membership_driver(Kernel& k, int driver_host, std::vector<HostChurn> churn) {
  churn.erase(std::remove_if(churn.begin(), churn.end(),
                             [](const HostChurn& c) { return c.availability.empty(); }),
              churn.end());
  std::sort(churn.begin(), churn.end(),
            [](const HostChurn& a, const HostChurn& b) { return a.host < b.host; });
  return k.spawn("membership-driver", driver_host,
                 [&k, churn = std::move(churn)] {
                   double t = k.now();
                   std::vector<std::optional<sg::trace::TracePoint>> edges(churn.size());
                   while (true) {
                     // Next edge across every trace; nullopt everywhere = done.
                     double next = kInf;
                     for (size_t i = 0; i < churn.size(); ++i) {
                       edges[i] = churn[i].availability.next_event_after(t);
                       if (edges[i])
                         next = std::min(next, edges[i]->time);
                     }
                     if (next == kInf)
                       return;
                     if (next > t)
                       k.sleep_for(next - t);
                     t = next;
                     // Apply every edge landing exactly at `next`, ascending
                     // host order. Compare membership against the platform —
                     // a host may have been churned externally in between.
                     for (size_t i = 0; i < churn.size(); ++i) {
                       if (!edges[i] || edges[i]->time != next)
                         continue;
                       const int h = churn[i].host;
                       const bool member = k.engine().host_present(h);
                       if (edges[i]->value <= 0.5 && member) {
                         SG_VERB(membership, "t=%g: host %s departs", t,
                                 k.engine().platform().host(h).name.c_str());
                         k.leave_host(h);
                       } else if (edges[i]->value > 0.5 && !member) {
                         SG_VERB(membership, "t=%g: host %s returns", t,
                                 k.engine().platform().host(h).name.c_str());
                         k.rejoin_host(h);
                       }
                     }
                   }
                 },
                 /*daemon=*/true);
}

ActorId start_membership_driver(Kernel& k, int driver_host) {
  std::vector<HostChurn> churn;
  const auto& pf = k.engine().platform();
  for (size_t h = 0; h < pf.host_count(); ++h)
    if (!pf.host(static_cast<int>(h)).churn.empty())
      churn.push_back({static_cast<int>(h), pf.host(static_cast<int>(h)).churn});
  return start_membership_driver(k, driver_host, std::move(churn));
}

ActorId register_rejoin_daemon(Kernel& k, const std::string& name, int host,
                               std::function<void()> body) {
  return k.spawn(name, host, std::move(body), /*daemon=*/true, /*auto_restart=*/true);
}

}  // namespace sg::kernel
