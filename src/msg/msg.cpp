#include "msg/msg.hpp"

#include <memory>

#include "xbt/exception.hpp"
#include "xbt/log.hpp"
#include "xbt/str.hpp"

SG_LOG_NEW_CATEGORY(msg, "MSG prototyping interface");

namespace sg::msg {
namespace {

struct MsgGlobals {
  std::unique_ptr<kernel::Kernel> kernel;
  int channels = 16;
  /// Interned mailbox of (host, channel), host-major, filled lazily. MSG's
  /// per-message hot path never builds a mailbox-name string.
  std::vector<kernel::MailboxId> channel_mbox;
};

MsgGlobals& globals() {
  static MsgGlobals g;
  return g;
}

kernel::Kernel& the_kernel() {
  auto& g = globals();
  if (!g.kernel)
    throw xbt::InvalidArgument("MSG_init() must be called first");
  return *g.kernel;
}

kernel::MailboxId channel_mailbox(int host, int channel) {
  auto& g = globals();
  if (channel < 0 || channel >= g.channels)
    throw xbt::InvalidArgument(xbt::format("channel %d out of range [0, %d)", channel, g.channels));
  const size_t slot =
      static_cast<size_t>(host) * static_cast<size_t>(g.channels) + static_cast<size_t>(channel);
  if (slot >= g.channel_mbox.size())  // first use, or hosts joined since
    g.channel_mbox.resize(the_kernel().engine().platform().host_count() *
                              static_cast<size_t>(g.channels),
                          kernel::kNoMailbox);
  auto& mbox = g.channel_mbox[slot];
  if (mbox == kernel::kNoMailbox)
    mbox = the_kernel().mailbox_by_name(xbt::format("msg:%d:%d", host, channel));
  return mbox;
}

/// An m_host_t is a bare index: every call that takes one checks it here,
/// at the MSG boundary, before it indexes any table.
int host_index(m_host_t host, const char* call) {
  const int count = static_cast<int>(the_kernel().engine().platform().host_count());
  if (host.index < 0 || host.index >= count)
    throw xbt::InvalidArgument(
        xbt::format("%s: host handle %d out of range (%d hosts)", call, host.index, count));
  return host.index;
}

int self_host_index() {
  kernel::Actor* a = kernel::Kernel::self();
  if (a == nullptr)
    throw xbt::InvalidArgument("this MSG call must be made from a process");
  return a->host();
}

}  // namespace

void MSG_init(platform::Platform platform, int channels) {
  auto& g = globals();
  g.kernel = std::make_unique<kernel::Kernel>(std::move(platform));
  g.channels = channels;
  g.channel_mbox.clear();  // ids belong to the previous kernel
}

void MSG_clean() {
  auto& g = globals();
  g.kernel.reset();
  g.channel_mbox.clear();
}

double MSG_main() { return the_kernel().run(); }

double MSG_get_clock() { return the_kernel().now(); }

kernel::Kernel& MSG_kernel() { return the_kernel(); }

// -- hosts ---------------------------------------------------------------------

m_host_t MSG_get_host_by_name(const std::string& name) {
  auto idx = the_kernel().engine().platform().host_by_name(name);
  if (!idx)
    throw xbt::InvalidArgument("no such host: " + name);
  return m_host_t{*idx};
}

int MSG_get_host_number() { return static_cast<int>(the_kernel().engine().platform().host_count()); }

m_host_t MSG_host_by_index(int index) {
  if (index < 0 || index >= MSG_get_host_number())
    throw xbt::InvalidArgument("host index out of range");
  return m_host_t{index};
}

const std::string& MSG_host_get_name(m_host_t host) {
  return the_kernel().engine().platform().host(host_index(host, "MSG_host_get_name")).name;
}

double MSG_host_get_speed(m_host_t host) {
  return the_kernel().engine().host_speed(host_index(host, "MSG_host_get_speed"));
}

bool MSG_host_is_on(m_host_t host) {
  return the_kernel().engine().host_is_on(host_index(host, "MSG_host_is_on"));
}

m_host_t MSG_host_self() { return m_host_t{self_host_index()}; }

// -- processes -------------------------------------------------------------------

kernel::ActorId MSG_process_create(const std::string& name, ProcessFn fn, m_host_t host, bool daemon,
                                   bool auto_restart) {
  return the_kernel().spawn(name, host.index, std::move(fn), daemon, auto_restart);
}

kernel::ActorId MSG_process_self() {
  kernel::Actor* a = kernel::Kernel::self();
  if (a == nullptr)
    throw xbt::InvalidArgument("MSG_process_self() outside of a process");
  return a->id();
}

const std::string& MSG_process_get_name(kernel::ActorId pid) {
  kernel::Actor* a = the_kernel().actor(pid);
  if (a == nullptr)
    throw xbt::InvalidArgument("no such process");
  return a->name();
}

void MSG_process_suspend(kernel::ActorId pid) { the_kernel().suspend(pid); }
void MSG_process_resume(kernel::ActorId pid) { the_kernel().resume(pid); }
void MSG_process_kill(kernel::ActorId pid) { the_kernel().kill(pid); }
bool MSG_process_is_alive(kernel::ActorId pid) { return the_kernel().is_alive(pid); }
void MSG_process_sleep(double duration) { the_kernel().sleep_for(duration); }
void MSG_process_exit() { the_kernel().exit_self(); }

// -- tasks -----------------------------------------------------------------------

m_task_t MSG_task_create(const std::string& name, double flops, double bytes, void* data) {
  auto* task = new Task();
  task->name = name;
  task->compute_flops = flops;
  task->comm_bytes = bytes;
  task->data = data;
  return task;
}

void MSG_task_destroy(m_task_t task) { delete task; }

void MSG_task_execute(m_task_t task) {
  if (task == nullptr)
    throw xbt::InvalidArgument("MSG_task_execute: null task");
  if (task->compute_flops > 0)
    the_kernel().execute(task->compute_flops, task->priority);
}

namespace {
void task_put_impl(m_task_t task, m_host_t dest, int channel, double timeout, double rate) {
  if (task == nullptr)
    throw xbt::InvalidArgument("MSG_task_put: null task");
  const int dest_host = host_index(dest, "MSG_task_put");
  task->source = MSG_host_self();
  task->sender = MSG_process_self();
  the_kernel().send(channel_mailbox(dest_host, channel), task, task->comm_bytes, timeout, rate);
}
}  // namespace

void MSG_task_put(m_task_t task, m_host_t dest, int channel) {
  task_put_impl(task, dest, channel, -1.0, -1.0);
}

void MSG_task_put_with_timeout(m_task_t task, m_host_t dest, int channel, double timeout) {
  task_put_impl(task, dest, channel, timeout, -1.0);
}

void MSG_task_put_bounded(m_task_t task, m_host_t dest, int channel, double max_rate) {
  task_put_impl(task, dest, channel, -1.0, max_rate);
}

void MSG_task_get(m_task_t* task, int channel) { MSG_task_get_with_timeout(task, channel, -1.0); }

void MSG_task_get_with_timeout(m_task_t* task, int channel, double timeout) {
  if (task == nullptr)
    throw xbt::InvalidArgument("MSG_task_get: null out-parameter");
  void* payload = the_kernel().recv(channel_mailbox(self_host_index(), channel), timeout);
  *task = static_cast<m_task_t>(payload);
}

bool MSG_task_listen(int channel) {
  return the_kernel().comm_waiting(channel_mailbox(self_host_index(), channel));
}

void MSG_parallel_task_execute(const std::string& name, const std::vector<m_host_t>& hosts,
                               const std::vector<double>& flops,
                               const std::vector<std::vector<double>>& bytes) {
  (void)name;
  std::vector<int> host_indices;
  host_indices.reserve(hosts.size());
  for (const m_host_t& h : hosts)
    host_indices.push_back(host_index(h, "MSG_parallel_task_execute"));
  the_kernel().execute_parallel(host_indices, flops, bytes);
}

}  // namespace sg::msg
