/// \file pkt.hpp
/// Packet-level network simulation — our in-tree stand-in for NS2 / GTNetS,
/// against which the paper validates SURF's MaxMin fluid model ("For
/// short-lived flows, one can use more accurate, but more expensive,
/// packet-level simulation").
///
/// The model: store-and-forward links with drop-tail queues (one queue per
/// link, shared by both directions, mirroring the fluid model's single
/// shared resource per link), and TCP-Reno flows: slow start, congestion
/// avoidance, triple-duplicate-ACK fast retransmit, and RTO with exponential
/// backoff. Two parameter presets ("ns2", "gtnets") play the role of the two
/// packet simulators compared in the paper.
#pragma once

#include <cstdint>
#include <limits>
#include <queue>
#include <string>
#include <vector>

#include "platform/platform.hpp"
#include "xbt/random.hpp"

namespace sg::pkt {

struct TcpParams {
  double mss = 1460.0;          ///< TCP payload bytes per segment
  double header_bytes = 40.0;   ///< TCP/IP header per packet (and ACK size)
  int init_cwnd_segments = 2;
  double init_ssthresh_segments = 64.0;
  double rcv_window_bytes = 65536.0;  ///< flow-control cap on in-flight data
  int dupack_threshold = 3;
  double min_rto = 0.2;
  bool delayed_ack = false;     ///< ACK every 2nd in-order segment
  int queue_limit_packets = 100;
  /// Small random per-hop processing delay (uniform in [0, jitter]); breaks
  /// the phase-effect lockout of synchronized flows, as real stacks do.
  double jitter = 2e-6;
  std::uint64_t seed = 1;       ///< jitter PRNG seed (simulation stays deterministic)

  /// NS2-flavoured defaults (initial window 1, no delayed ACKs, short queues).
  static TcpParams ns2();
  /// GTNetS-flavoured defaults (initial window 2, delayed ACKs, longer queues).
  static TcpParams gtnets();
};

struct FlowSpec {
  int src_host = 0;
  int dst_host = 0;
  double bytes = 0;
  double start_time = 0;
};

struct FlowResult {
  bool finished = false;
  double finish_time = std::numeric_limits<double>::quiet_NaN();
  double bytes = 0;
  /// Average goodput bytes/s over [start, finish].
  double throughput = 0;
  long packets_sent = 0;
  long retransmits = 0;
  long timeouts = 0;
};

/// One packet-level simulation over a platform's topology. Uses the same
/// routes as the fluid model, so a validation run compares *models*, not
/// topologies.
class PacketNet {
public:
  PacketNet(const platform::Platform& platform, TcpParams params);

  /// Register a TCP flow; returns its id.
  int add_flow(const FlowSpec& spec);

  /// Run until all flows finish (or `until`, if finite, is reached).
  /// Returns the final simulation time.
  double run(double until = std::numeric_limits<double>::infinity());

  double now() const { return now_; }
  /// Throws xbt::InvalidArgument on an unknown flow id.
  const FlowResult& result(int flow) const;
  size_t flow_count() const { return flows_.size(); }

  long total_packets_forwarded() const { return packets_forwarded_; }
  long total_drops() const { return drops_; }
  /// Number of events processed (the "cost" of packet-level accuracy).
  long events_processed() const { return events_processed_; }

private:
  struct Packet {
    int flow = -1;
    std::int64_t seq = 0;      ///< first payload byte (data) / cumulative ack (ack)
    int payload = 0;           ///< payload bytes (0 for pure ACK)
    bool is_ack = false;
    int hop = 0;               ///< index into the flow's link path
    double sent_time = 0;      ///< original transmission time (RTT sampling)
  };

  enum class EventKind { kFlowStart, kLinkDone, kArrival, kTimeout };
  struct Event {
    double time;
    std::uint64_t order;  ///< FIFO tie-break
    EventKind kind;
    int index;            ///< flow (start/timeout) or link (link-done)
    std::uint64_t gen;    ///< timeout generation
    Packet packet;        ///< for arrivals
    bool operator>(const Event& o) const {
      return time != o.time ? time > o.time : order > o.order;
    }
  };

  struct LinkState {
    double bandwidth;  ///< bytes/s
    double delay;
    std::deque<Packet> queue;
    bool busy = false;
  };

  struct FlowState {
    FlowSpec spec;
    std::vector<platform::LinkId> path;     ///< forward route
    std::vector<platform::LinkId> rpath;    ///< reverse route (ACKs)
    // sender
    double cwnd = 0;
    double ssthresh = 0;
    std::int64_t next_seq = 0;
    std::int64_t highest_acked = 0;
    int dupacks = 0;
    double srtt = -1;
    double rto = 0.2;
    double rto_backoff = 1.0;
    double last_progress = 0;  ///< time of last forward ACK progress
    std::uint64_t timeout_gen = 0;
    bool timer_armed = false;
    bool done = false;
    // receiver
    std::int64_t rcv_next = 0;
    std::vector<std::pair<std::int64_t, std::int64_t>> ooo;  ///< out-of-order ranges
    int unacked_in_order = 0;  ///< delayed-ACK counter
  };

  void schedule(double time, EventKind kind, int index, std::uint64_t gen = 0);
  void schedule_arrival(double time, const Packet& pkt);
  void enqueue_on_link(platform::LinkId link, const Packet& pkt);
  void start_transmission(platform::LinkId link);
  void handle_link_done(int link);
  void handle_arrival(Packet& pkt);
  void sender_try_send(FlowState& f, int flow_id);
  void sender_on_ack(FlowState& f, int flow_id, std::int64_t ackno, double sent_time);
  void receiver_on_data(FlowState& f, int flow_id, const Packet& pkt);
  void send_ack(FlowState& f, int flow_id, double echo_time);
  void handle_timeout(FlowState& f, int flow_id);
  void arm_timer(FlowState& f, int flow_id);
  void emit_data_packet(FlowState& f, int flow_id, std::int64_t seq);
  void finish_flow(FlowState& f, int flow_id);
  double packet_size(const Packet& pkt) const;

  TcpParams params_;
  xbt::Rng jitter_rng_;
  const platform::Platform* platform_ = nullptr;
  std::vector<LinkState> links_;
  std::vector<FlowState> flows_;
  std::vector<FlowResult> results_;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> events_;
  double now_ = 0;
  std::uint64_t order_counter_ = 0;
  size_t flows_done_ = 0;
  long packets_forwarded_ = 0;
  long drops_ = 0;
  long events_processed_ = 0;
};

}  // namespace sg::pkt
