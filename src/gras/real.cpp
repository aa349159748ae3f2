/// Real-world-mode GRAS: the same per-process API carried by real TCP
/// sockets. Each process is an OS thread with its own message queue; every
/// socket (outgoing connection or accepted peer) has a reader thread that
/// decodes incoming frames into the owning process's queue.
///
/// Frame format (all big-endian):
///   u32 magic 'GRAS' | u16 type-name length | name bytes | u32 payload | payload
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <thread>
#include <vector>

#include "gras/runtime.hpp"
#include "xbt/exception.hpp"
#include "xbt/log.hpp"

SG_LOG_NEW_CATEGORY(gras_rl, "GRAS real-world transport");

namespace sg::gras {

using Clock = std::chrono::steady_clock;

namespace {

constexpr std::uint32_t kMagic = 0x47524153;  // "GRAS"

void write_all(int fd, const void* data, size_t n) {
  const char* p = static_cast<const char*>(data);
  while (n > 0) {
    const ssize_t w = ::write(fd, p, n);
    if (w <= 0)
      throw xbt::NetworkFailureException("socket write failed");
    p += w;
    n -= static_cast<size_t>(w);
  }
}

/// Returns false on orderly EOF at a frame boundary.
bool read_all(int fd, void* data, size_t n, bool eof_ok) {
  char* p = static_cast<char*>(data);
  size_t got = 0;
  while (got < n) {
    const ssize_t r = ::read(fd, p + got, n - got);
    if (r == 0) {
      if (eof_ok && got == 0)
        return false;
      throw xbt::NetworkFailureException("socket closed mid-frame");
    }
    if (r < 0)
      throw xbt::NetworkFailureException("socket read failed");
    got += static_cast<size_t>(r);
  }
  return true;
}

struct Frame {
  std::string type;
  std::vector<std::uint8_t> wire;
};

void send_frame(int fd, const std::string& type, const std::vector<std::uint8_t>& wire) {
  std::vector<std::uint8_t> header;
  header.reserve(10 + type.size());
  auto put32 = [&](std::uint32_t v) {
    header.push_back(static_cast<std::uint8_t>(v >> 24));
    header.push_back(static_cast<std::uint8_t>(v >> 16));
    header.push_back(static_cast<std::uint8_t>(v >> 8));
    header.push_back(static_cast<std::uint8_t>(v));
  };
  put32(kMagic);
  header.push_back(static_cast<std::uint8_t>(type.size() >> 8));
  header.push_back(static_cast<std::uint8_t>(type.size()));
  header.insert(header.end(), type.begin(), type.end());
  put32(static_cast<std::uint32_t>(wire.size()));
  write_all(fd, header.data(), header.size());
  if (!wire.empty())
    write_all(fd, wire.data(), wire.size());
}

bool recv_frame(int fd, Frame& out) {
  std::uint8_t hdr[6];
  if (!read_all(fd, hdr, 6, /*eof_ok=*/true))
    return false;
  const std::uint32_t magic = (std::uint32_t(hdr[0]) << 24) | (std::uint32_t(hdr[1]) << 16) |
                              (std::uint32_t(hdr[2]) << 8) | hdr[3];
  if (magic != kMagic)
    throw xbt::NetworkFailureException("bad frame magic");
  const size_t name_len = (size_t(hdr[4]) << 8) | hdr[5];
  out.type.resize(name_len);
  read_all(fd, out.type.data(), name_len, false);
  std::uint8_t len4[4];
  read_all(fd, len4, 4, false);
  const std::uint32_t payload_len =
      (std::uint32_t(len4[0]) << 24) | (std::uint32_t(len4[1]) << 16) | (std::uint32_t(len4[2]) << 8) | len4[3];
  out.wire.resize(payload_len);
  if (payload_len > 0)
    read_all(fd, out.wire.data(), payload_len, false);
  return true;
}

class RealRuntime;

/// A connected TCP endpoint (outgoing or accepted).
class RealSocket final : public Socket, public std::enable_shared_from_this<RealSocket> {
public:
  RealSocket(int fd, std::string label) : fd_(fd), label_(std::move(label)) {}
  ~RealSocket() override { close_fd(); }

  std::string peer() const override { return label_; }

  void send(const std::string& type, const std::vector<std::uint8_t>& wire) {
    std::lock_guard<std::mutex> lock(write_mutex_);
    send_frame(fd_, type, wire);
  }

  int fd() const { return fd_; }

  /// Wake a reader blocked on the socket without releasing the fd under it.
  void shutdown() {
    const int fd = fd_.load();
    if (fd >= 0)
      ::shutdown(fd, SHUT_RDWR);
  }

  void close_fd() {
    int expected = fd_.exchange(-1);
    if (expected >= 0) {
      ::shutdown(expected, SHUT_RDWR);
      ::close(expected);
    }
  }

private:
  std::atomic<int> fd_;
  std::string label_;
  std::mutex write_mutex_;
};

}  // namespace

// ---------------------------------------------------------------------------

struct RealWorld::RealState {
  std::mutex mutex;
  std::condition_variable cv;
  /// Virtual DNS + port space: (host name, app port) -> real TCP port.
  std::map<std::pair<std::string, int>, int> port_table;
  std::vector<std::thread> process_threads;
  Clock::time_point start = Clock::now();
  std::atomic<bool> shutting_down{false};
};

namespace {

class RealRuntime final : public detail::Runtime {
public:
  RealRuntime(std::string name, std::string host, RealWorld::RealState* world)
      : Runtime(std::move(name)), host_(std::move(host)), world_(world) {}

  ~RealRuntime() override { teardown(); }

  void socket_server(int port) override {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
      throw xbt::NetworkFailureException("cannot create server socket");
    int on = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &on, sizeof(on));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;  // ephemeral: the OS picks a free port
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 || ::listen(fd, 16) != 0) {
      ::close(fd);
      throw xbt::NetworkFailureException("cannot bind/listen");
    }
    socklen_t len = sizeof(addr);
    ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
    const int real_port = ntohs(addr.sin_port);
    {
      std::lock_guard<std::mutex> lock(world_->mutex);
      world_->port_table[{host_, port}] = real_port;
    }
    world_->cv.notify_all();
    listen_fds_.push_back(fd);
    acceptors_.emplace_back([this, fd] { accept_loop(fd); });
    SG_DEBUG(gras_rl, "'%s' listening: virtual %s:%d -> 127.0.0.1:%d", name_.c_str(), host_.c_str(),
             0, real_port);
  }

  SocketPtr socket_client(const std::string& host, int port) override {
    int real_port = -1;
    {
      std::unique_lock<std::mutex> lock(world_->mutex);
      const bool found = world_->cv.wait_for(lock, std::chrono::seconds(10), [&] {
        return world_->port_table.count({host, port}) != 0;
      });
      if (!found)
        throw xbt::NetworkFailureException("socket_client: no server at " + host + ":" +
                                           std::to_string(port));
      real_port = world_->port_table[{host, port}];
    }
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
      throw xbt::NetworkFailureException("cannot create client socket");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(real_port));
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd);
      throw xbt::NetworkFailureException("connect refused: " + host + ":" + std::to_string(port));
    }
    auto sock = std::make_shared<RealSocket>(fd, host + ":" + std::to_string(port));
    attach_reader(sock);
    return sock;
  }

  void msg_send(const SocketPtr& socket, const std::string& type,
                const datadesc::Value& payload) override {
    auto* sock = dynamic_cast<RealSocket*>(socket.get());
    if (sock == nullptr)
      throw xbt::InvalidArgument("msg_send: not a real-world socket");
    const auto wire =
        datadesc::ndr_codec().encode(*msgtype_payload(type), payload, datadesc::native_arch());
    sock->send(type, wire);
  }

  Message msg_wait(double timeout, const std::string& want) override {
    std::unique_lock<std::mutex> lock(queue_mutex_);
    const auto deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                             std::chrono::duration<double>(timeout < 0 ? 3600.0 : timeout));
    while (true) {
      for (auto it = queue_.begin(); it != queue_.end(); ++it) {
        if (want.empty() || it->type == want) {
          Message m = std::move(*it);
          queue_.erase(it);
          return m;
        }
      }
      if (queue_cv_.wait_until(lock, deadline) == std::cv_status::timeout) {
        // One final scan in case of a lost race.
        for (auto it = queue_.begin(); it != queue_.end(); ++it)
          if (want.empty() || it->type == want) {
            Message m = std::move(*it);
            queue_.erase(it);
            return m;
          }
        throw xbt::TimeoutException("msg_wait: timeout");
      }
    }
  }

  double time() override {
    return std::chrono::duration<double>(Clock::now() - world_->start).count();
  }

  void sleep(double seconds) override {
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  }

  void inject_compute(double) override {
    // Real mode: the measured time has genuinely passed already.
  }

  /// shutdown() wakes every thread blocked in accept() or read(); the fds
  /// are closed only once those threads are joined, so a close can never
  /// race with a read on the same fd (or on a recycled fd number).
  void teardown() {
    if (torn_down_)
      return;
    torn_down_ = true;
    for (int fd : listen_fds_)
      ::shutdown(fd, SHUT_RDWR);
    shutdown_sockets();
    for (auto& t : acceptors_)
      if (t.joinable())
        t.join();
    shutdown_sockets();  // sockets accepted while the first pass ran
    for (auto& t : readers_)
      if (t.joinable())
        t.join();
    for (int fd : listen_fds_)
      ::close(fd);
    listen_fds_.clear();
    std::lock_guard<std::mutex> lock(sockets_mutex_);
    for (auto& s : sockets_)
      s->close_fd();
  }

private:
  void shutdown_sockets() {
    std::lock_guard<std::mutex> lock(sockets_mutex_);
    for (auto& s : sockets_)
      s->shutdown();
  }

  void accept_loop(int listen_fd) {
    while (true) {
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0)
        return;  // listening socket shut down: process is done
      auto sock = std::make_shared<RealSocket>(fd, "peer@" + name_);
      attach_reader(sock);
    }
  }

  void attach_reader(const std::shared_ptr<RealSocket>& sock) {
    std::lock_guard<std::mutex> lock(sockets_mutex_);
    sockets_.push_back(sock);
    readers_.emplace_back([this, sock] { reader_loop(sock); });
  }

  void reader_loop(std::shared_ptr<RealSocket> sock) {
    try {
      Frame frame;
      while (sock->fd() >= 0 && recv_frame(sock->fd(), frame)) {
        Message m;
        m.type = frame.type;
        if (!msgtype_known(frame.type)) {
          SG_WARN(gras_rl, "'%s': frame of unknown type '%s' dropped", name_.c_str(),
                  frame.type.c_str());
          continue;
        }
        m.payload = datadesc::ndr_codec().decode(*msgtype_payload(frame.type), frame.wire,
                                                 datadesc::native_arch());
        m.source = sock;
        {
          std::lock_guard<std::mutex> lock(queue_mutex_);
          queue_.push_back(std::move(m));
        }
        queue_cv_.notify_all();
      }
    } catch (const std::exception& e) {
      if (!world_->shutting_down)
        SG_DEBUG(gras_rl, "'%s': reader ended: %s", name_.c_str(), e.what());
    }
  }

  std::string host_;
  RealWorld::RealState* world_;

  std::vector<int> listen_fds_;
  std::vector<std::thread> acceptors_;
  std::vector<std::thread> readers_;
  std::mutex sockets_mutex_;
  std::vector<std::shared_ptr<RealSocket>> sockets_;

  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<Message> queue_;
  bool torn_down_ = false;
};

}  // namespace

RealWorld::RealWorld() : state_(std::make_shared<RealState>()) {}

RealWorld::~RealWorld() {
  state_->shutting_down = true;
  for (auto& t : state_->process_threads)
    if (t.joinable())
      t.join();
}

void RealWorld::spawn(const std::string& name, const std::string& host, std::function<void()> body) {
  auto state = state_;
  state_->process_threads.emplace_back([name, host, state, body = std::move(body)] {
    RealRuntime runtime(name, host, state.get());
    {
      detail::CurrentScope scope(&runtime);
      try {
        body();
      } catch (const std::exception& e) {
        SG_ERROR(gras_rl, "GRAS process '%s' died: %s", name.c_str(), e.what());
      }
    }
    runtime.teardown();
  });
}

double RealWorld::join_all() {
  for (auto& t : state_->process_threads)
    if (t.joinable())
      t.join();
  return std::chrono::duration<double>(Clock::now() - state_->start).count();
}

int RealWorld::base_port() const { return 0; }  // ephemeral ports: no fixed base

}  // namespace sg::gras
