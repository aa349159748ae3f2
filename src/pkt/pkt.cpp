#include "pkt/pkt.hpp"

#include <algorithm>
#include <cmath>

#include "xbt/exception.hpp"
#include "xbt/log.hpp"

SG_LOG_NEW_CATEGORY(pkt, "packet-level network simulator");

namespace sg::pkt {

TcpParams TcpParams::ns2() {
  TcpParams p;
  p.init_cwnd_segments = 1;
  p.delayed_ack = false;
  // Buffers provisioned at bandwidth-delay scale, as in the era's validation
  // studies (tiny queues would exercise our simplified Reno's weakest spot —
  // go-back-N timeout recovery — rather than steady-state sharing).
  p.queue_limit_packets = 100;
  return p;
}

TcpParams TcpParams::gtnets() {
  TcpParams p;
  p.init_cwnd_segments = 2;
  p.delayed_ack = true;
  p.queue_limit_packets = 100;
  return p;
}

PacketNet::PacketNet(const platform::Platform& platform, TcpParams params)
    : params_(params), jitter_rng_(params.seed) {
  if (!platform.sealed())
    throw xbt::InvalidArgument("PacketNet: platform must be sealed");
  links_.resize(platform.link_count());
  for (size_t l = 0; l < platform.link_count(); ++l) {
    const auto& spec = platform.link(static_cast<platform::LinkId>(l));
    links_[l].bandwidth = spec.bandwidth_Bps;
    links_[l].delay = spec.latency_s;
  }
  // Routes are copied per flow at add_flow() time (we only need the platform
  // during construction of flows; store a pointer via lambda-free design).
  platform_ = &platform;
}

const FlowResult& PacketNet::result(int flow) const {
  if (flow < 0 || static_cast<size_t>(flow) >= results_.size())
    throw xbt::InvalidArgument("result: flow id " + std::to_string(flow) + " out of range (" +
                               std::to_string(results_.size()) + " flows)");
  return results_[static_cast<size_t>(flow)];
}

int PacketNet::add_flow(const FlowSpec& spec) {
  FlowState f;
  f.spec = spec;
  // Materialize the per-flow paths: packet forwarding indexes hops randomly,
  // and the RouteView is invalidated by the reverse-route resolution below.
  f.path = platform_->route(spec.src_host, spec.dst_host).links();
  if (f.path.empty())
    throw xbt::InvalidArgument("PacketNet: loopback flows are not simulated at packet level");
  f.rpath = platform_->route(spec.dst_host, spec.src_host).links();
  f.cwnd = params_.init_cwnd_segments * params_.mss;
  f.ssthresh = params_.init_ssthresh_segments * params_.mss;
  f.rto = params_.min_rto;
  flows_.push_back(std::move(f));
  results_.emplace_back();
  const int id = static_cast<int>(flows_.size() - 1);
  schedule(spec.start_time, EventKind::kFlowStart, id);
  return id;
}

void PacketNet::schedule(double time, EventKind kind, int index, std::uint64_t gen) {
  events_.push(Event{time, order_counter_++, kind, index, gen, Packet{}});
}

void PacketNet::schedule_arrival(double time, const Packet& pkt) {
  events_.push(Event{time, order_counter_++, EventKind::kArrival, -1, 0, pkt});
}

double PacketNet::packet_size(const Packet& pkt) const {
  return pkt.is_ack ? params_.header_bytes : pkt.payload + params_.header_bytes;
}

void PacketNet::enqueue_on_link(platform::LinkId link, const Packet& pkt) {
  LinkState& l = links_[static_cast<size_t>(link)];
  if (static_cast<int>(l.queue.size()) >= params_.queue_limit_packets) {
    ++drops_;
    return;  // drop-tail
  }
  l.queue.push_back(pkt);
  if (!l.busy)
    start_transmission(link);
}

void PacketNet::start_transmission(platform::LinkId link) {
  LinkState& l = links_[static_cast<size_t>(link)];
  if (l.queue.empty()) {
    l.busy = false;
    return;
  }
  l.busy = true;
  const double tx = packet_size(l.queue.front()) / l.bandwidth;
  schedule(now_ + tx, EventKind::kLinkDone, link);
}

void PacketNet::handle_link_done(int link) {
  LinkState& l = links_[static_cast<size_t>(link)];
  Packet pkt = l.queue.front();
  l.queue.pop_front();
  ++packets_forwarded_;
  // Propagation: the packet reaches the far end after the link delay.
  ++pkt.hop;
  const double jitter = params_.jitter > 0 ? jitter_rng_.uniform(0.0, params_.jitter) : 0.0;
  schedule_arrival(now_ + l.delay + jitter, pkt);
  start_transmission(link);
}

void PacketNet::handle_arrival(Packet& pkt) {
  FlowState& f = flows_[static_cast<size_t>(pkt.flow)];
  const auto& path = pkt.is_ack ? f.rpath : f.path;
  if (static_cast<size_t>(pkt.hop) < path.size()) {
    enqueue_on_link(path[static_cast<size_t>(pkt.hop)], pkt);
    return;
  }
  // Reached the endpoint.
  if (pkt.is_ack)
    sender_on_ack(f, pkt.flow, pkt.seq, pkt.sent_time);
  else
    receiver_on_data(f, pkt.flow, pkt);
}

void PacketNet::emit_data_packet(FlowState& f, int flow_id, std::int64_t seq) {
  Packet pkt;
  pkt.flow = flow_id;
  pkt.seq = seq;
  pkt.payload = static_cast<int>(
      std::min<std::int64_t>(static_cast<std::int64_t>(params_.mss),
                             static_cast<std::int64_t>(f.spec.bytes) - seq));
  pkt.is_ack = false;
  pkt.hop = 0;
  pkt.sent_time = now_;
  ++results_[static_cast<size_t>(flow_id)].packets_sent;
  enqueue_on_link(f.path[0], pkt);
}

void PacketNet::sender_try_send(FlowState& f, int flow_id) {
  const std::int64_t total = static_cast<std::int64_t>(f.spec.bytes);
  const double window = std::min(f.cwnd, params_.rcv_window_bytes);
  while (f.next_seq < total &&
         static_cast<double>(f.next_seq - f.highest_acked) < window) {
    emit_data_packet(f, flow_id, f.next_seq);
    f.next_seq += std::min<std::int64_t>(static_cast<std::int64_t>(params_.mss), total - f.next_seq);
  }
  if (!f.timer_armed && f.next_seq > f.highest_acked)
    arm_timer(f, flow_id);
}

void PacketNet::arm_timer(FlowState& f, int flow_id) {
  // Lazy restartable timer: one outstanding event; on fire, if ACK progress
  // happened since arming, the deadline just slides forward.
  if (f.timer_armed)
    return;
  f.timer_armed = true;
  ++f.timeout_gen;
  f.last_progress = now_;
  schedule(now_ + f.rto * f.rto_backoff, EventKind::kTimeout, flow_id, f.timeout_gen);
}

void PacketNet::sender_on_ack(FlowState& f, int flow_id, std::int64_t ackno, double sent_time) {
  if (f.done)
    return;
  if (ackno > f.highest_acked) {
    f.highest_acked = ackno;
    f.dupacks = 0;
    f.rto_backoff = 1.0;
    f.last_progress = now_;
    // RTT estimation (timestamp-style sample).
    const double sample = now_ - sent_time;
    f.srtt = (f.srtt < 0) ? sample : 0.875 * f.srtt + 0.125 * sample;
    f.rto = std::max(params_.min_rto, 2.0 * f.srtt);
    // Window growth.
    if (f.cwnd < f.ssthresh)
      f.cwnd += params_.mss;  // slow start
    else
      f.cwnd += params_.mss * params_.mss / f.cwnd;  // congestion avoidance
    if (f.highest_acked >= static_cast<std::int64_t>(f.spec.bytes)) {
      finish_flow(f, flow_id);
      return;
    }
    arm_timer(f, flow_id);
    sender_try_send(f, flow_id);
  } else {
    ++f.dupacks;
    if (f.dupacks == params_.dupack_threshold) {
      // Fast retransmit + Reno window halving.
      ++results_[static_cast<size_t>(flow_id)].retransmits;
      const double flight = static_cast<double>(f.next_seq - f.highest_acked);
      f.ssthresh = std::max(flight / 2.0, 2.0 * params_.mss);
      f.cwnd = f.ssthresh + 3 * params_.mss;
      emit_data_packet(f, flow_id, f.highest_acked);
      arm_timer(f, flow_id);
    } else if (f.dupacks > params_.dupack_threshold) {
      f.cwnd += params_.mss;  // window inflation during recovery
      sender_try_send(f, flow_id);
    }
  }
}

void PacketNet::receiver_on_data(FlowState& f, int flow_id, const Packet& pkt) {
  const std::int64_t end = pkt.seq + pkt.payload;
  bool in_order = false;
  if (pkt.seq <= f.rcv_next && end > f.rcv_next) {
    f.rcv_next = end;
    in_order = true;
    // Drain any out-of-order ranges now contiguous.
    bool merged = true;
    while (merged) {
      merged = false;
      for (auto it = f.ooo.begin(); it != f.ooo.end(); ++it) {
        if (it->first <= f.rcv_next && it->second > f.rcv_next) {
          f.rcv_next = it->second;
          f.ooo.erase(it);
          merged = true;
          break;
        }
        if (it->second <= f.rcv_next) {
          f.ooo.erase(it);
          merged = true;
          break;
        }
      }
    }
  } else if (pkt.seq > f.rcv_next) {
    f.ooo.emplace_back(pkt.seq, end);
  }
  // ACK policy: immediate ACK on out-of-order (dup ack); delayed ACK
  // coalesces every second in-order segment.
  if (!in_order) {
    send_ack(f, flow_id, pkt.sent_time);
    return;
  }
  if (params_.delayed_ack) {
    if (++f.unacked_in_order >= 2 || f.rcv_next >= static_cast<std::int64_t>(f.spec.bytes)) {
      f.unacked_in_order = 0;
      send_ack(f, flow_id, pkt.sent_time);
    }
  } else {
    send_ack(f, flow_id, pkt.sent_time);
  }
}

void PacketNet::send_ack(FlowState& f, int flow_id, double echo_time) {
  Packet ack;
  ack.flow = flow_id;
  ack.seq = f.rcv_next;
  ack.payload = 0;
  ack.is_ack = true;
  ack.hop = 0;
  // Timestamp echo: carry the triggering data packet's send time so the
  // sender can sample a full RTT.
  ack.sent_time = echo_time;
  enqueue_on_link(f.rpath[0], ack);
}

void PacketNet::handle_timeout(FlowState& f, int flow_id) {
  if (f.done)
    return;
  f.timer_armed = false;
  if (f.highest_acked >= f.next_seq)
    return;  // everything acked meanwhile
  // Progress since arming: slide the deadline instead of firing.
  const double deadline = f.last_progress + f.rto * f.rto_backoff;
  if (now_ + 1e-12 < deadline) {
    f.timer_armed = true;
    ++f.timeout_gen;
    schedule(deadline, EventKind::kTimeout, flow_id, f.timeout_gen);
    return;
  }
  ++results_[static_cast<size_t>(flow_id)].timeouts;
  const double flight = static_cast<double>(f.next_seq - f.highest_acked);
  f.ssthresh = std::max(flight / 2.0, 2.0 * params_.mss);
  f.cwnd = params_.mss;
  f.next_seq = f.highest_acked;  // go-back-N
  f.dupacks = 0;
  f.rto_backoff = std::min(f.rto_backoff * 2.0, 64.0);
  sender_try_send(f, flow_id);
}

void PacketNet::finish_flow(FlowState& f, int flow_id) {
  f.done = true;
  FlowResult& r = results_[static_cast<size_t>(flow_id)];
  r.finished = true;
  r.finish_time = now_;
  r.bytes = f.spec.bytes;
  const double duration = now_ - f.spec.start_time;
  r.throughput = duration > 0 ? f.spec.bytes / duration : 0;
  ++flows_done_;
}

double PacketNet::run(double until) {
  while (!events_.empty() && flows_done_ < flows_.size()) {
    Event ev = events_.top();
    if (ev.time > until) {
      now_ = until;
      return now_;
    }
    events_.pop();
    now_ = std::max(now_, ev.time);
    ++events_processed_;
    switch (ev.kind) {
      case EventKind::kFlowStart: {
        FlowState& f = flows_[static_cast<size_t>(ev.index)];
        if (f.spec.bytes <= 0) {
          finish_flow(f, ev.index);
          break;
        }
        sender_try_send(f, ev.index);
        break;
      }
      case EventKind::kLinkDone:
        handle_link_done(ev.index);
        break;
      case EventKind::kArrival:
        handle_arrival(ev.packet);
        break;
      case EventKind::kTimeout: {
        FlowState& f = flows_[static_cast<size_t>(ev.index)];
        if (ev.gen == f.timeout_gen)
          handle_timeout(f, ev.index);
        break;
      }
    }
  }
  return now_;
}

}  // namespace sg::pkt
