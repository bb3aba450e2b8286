#include "mp/runtime.hpp"

#include <algorithm>
#include <span>
#include <string>
#include <utility>

#include "mp/checksum.hpp"
#include "mp/communicator.hpp"
#include "trace/probe.hpp"

namespace pdc::mp {

namespace {

constexpr std::int64_t kAckBytes = 64;       // sequence + CRC + framing
constexpr int kMaxAttempts = 64;             // then TransportFailure
constexpr int kMaxBackoffShift = 8;          // RTO doubling cap: base * 2^8
constexpr std::uint32_t kCorruptMask = 0xDEADBEEFu;  // wire CRC perturbation

[[nodiscard]] std::uint32_t payload_crc(const Payload& p) noexcept {
  if (!p) return crc32({});
  return crc32(std::span<const std::byte>(p->data(), p->size()));
}

}  // namespace

/// One reliable-transport message. Shared between the sender side (attempt
/// counter, retransmission deadline) and the receiver side (payload,
/// delivery continuation) -- the simulation is single-threaded, so this is
/// bookkeeping, not shared-memory cheating: every field change happens at a
/// definite simulated time on the side that owns it.
struct Runtime::Flight {
  int src{0};
  int dst{0};
  std::int64_t bytes{0};
  std::uint64_t seq{0};
  std::uint32_t crc{0};                 // CRC32 of `data`, computed at send
  Payload data;
  sim::PooledFunction<void(sim::TimePoint)> delivered;
  std::optional<net::ChunkProtocol> chunked;
  std::uint64_t trace_id{0};            // message correlation id (0: untraced)
  int attempt{0};
  bool completed{false};                // an ack reached the sender
  sim::TimePoint deadline{};            // current attempt's retransmission deadline
  sim::Duration rto_base{};
};

Runtime::Runtime(host::Cluster& cluster, ToolKind kind)
    : Runtime(cluster, kind, tool_profile(kind, cluster.platform())) {}

Runtime::Runtime(host::Cluster& cluster, ToolKind kind, ToolProfile profile)
    : Runtime(cluster, kind, std::move(profile), NodeRange{0, cluster.size()}) {}

Runtime::Runtime(host::Cluster& cluster, ToolKind kind, ToolProfile profile, NodeRange range)
    : cluster_(cluster),
      kind_(kind),
      profile_(profile),
      range_(range),
      reliable_wire_(cluster.network().reliable()) {
  if (range_.base < 0 || range_.count <= 0 || range_.base + range_.count > cluster.size()) {
    throw std::invalid_argument("Runtime: node range outside the cluster");
  }
  // Per-rank state is all create-on-first-touch; construction only sizes
  // the slot tables (one allocation each) so a 4096-rank cluster costs a
  // few vectors of null pointers until traffic actually flows.
  const auto n = static_cast<std::size_t>(range_.count);
  mailboxes_.resize(n);
  daemons_.resize(n);
  rx_engines_.resize(n);
  tx_engines_.resize(n);
  comms_.resize(n);
  tx_links_.resize(n);
  rx_links_.resize(n);
  transport_.resize(n);
}

Runtime::~Runtime() = default;

Communicator& Runtime::comm(int rank) {
  auto& slot = comms_.at(static_cast<std::size_t>(rank));
  if (!slot) slot = std::make_unique<Communicator>(*this, rank);
  return *slot;
}

TransportStats Runtime::transport_total() const noexcept {
  TransportStats total;
  for (const auto& t : transport_) total += t;
  return total;
}

sim::TimePoint Runtime::kernel_transfer(int src, int dst, std::int64_t bytes, Payload wire_data,
                                        sim::PooledFunction<void(sim::TimePoint)> delivered,
                                        std::optional<net::ChunkProtocol> chunked,
                                        std::uint64_t trace_id) {
  ++messages_sent_;
  payload_bytes_ += static_cast<std::uint64_t>(bytes);
  auto& simulation = sim();
  auto& src_node = node(src);
  const sim::TimePoint t1 = src_node.stack().reserve(src_node.stack_service(bytes));

  if (reliable_wire_) {
    // Fast path: the wire delivers every frame intact exactly once, so no
    // sequencing/checksum/ack machinery runs (and fault-free timings stay
    // bit-identical to the pre-fault kernel).
    simulation.schedule_at(t1, [this, src, dst, bytes, chunked, trace_id,
                                delivered = std::move(delivered)]() mutable {
      const net::NodeId s = node_of(src);
      const net::NodeId d = node_of(dst);
      const sim::TimePoint arrival =
          chunked ? cluster_.network().transfer_chunked(s, d, bytes, *chunked)
                  : cluster_.network().transfer(s, d, bytes);
      PDC_TRACE_BLOCK {
        trace::emit({.t_ns = sim().now().ns,
                     .bytes = bytes,
                     .aux0 = arrival.ns,
                     .aux1 = 1,  // single attempt on a reliable wire
                     .id = trace_id,
                     .kind = trace::Kind::MsgWire,
                     .rank = static_cast<std::int16_t>(s),
                     .peer = static_cast<std::int16_t>(d)});
      }
      sim().schedule_at(arrival, [this, dst, bytes, delivered = std::move(delivered)]() mutable {
        auto& dst_node = node(dst);
        const sim::TimePoint t2 = dst_node.stack().reserve(dst_node.stack_service(bytes));
        sim().schedule_at(t2, [delivered = std::move(delivered), t2] { delivered(t2); });
      });
    });
    return t1;
  }

  auto flight = std::make_shared<Flight>();
  flight->src = src;
  flight->dst = dst;
  flight->bytes = bytes;
  flight->seq = tx_seq(src, dst)++;  // send order == t1 order (FIFO src stack)
  flight->crc = payload_crc(wire_data);
  flight->data = std::move(wire_data);
  flight->delivered = std::move(delivered);
  flight->chunked = chunked;
  flight->trace_id = trace_id;
  const auto& network = cluster_.network();
  const double round_trip_s =
      static_cast<double>(network.wire_bytes(bytes) + network.wire_bytes(kAckBytes)) * 8.0 /
      network.line_rate_bps();
  flight->rto_base = sim::from_seconds(4.0 * round_trip_s) + sim::milliseconds(2);
  reliable_transfer(std::move(flight), t1);
  return t1;
}

void Runtime::reliable_transfer(std::shared_ptr<Flight> flight, sim::TimePoint at) {
  sim().schedule_at(at, [this, flight = std::move(flight)] { transmit_attempt(flight); });
}

sim::Duration Runtime::rto(const Flight& flight) const noexcept {
  const int shift = std::min(flight.attempt - 1, kMaxBackoffShift);
  const sim::Duration backed_off = flight.rto_base * (std::int64_t{1} << shift);
  // Absolute cap, but never below one base RTO -- a timeout shorter than
  // the round trip itself would retransmit unconditionally.
  return std::min(backed_off, std::max(sim::milliseconds(500), flight.rto_base));
}

void Runtime::transmit_attempt(const std::shared_ptr<Flight>& flight) {
  if (flight->completed) return;  // a late ack landed after this was scheduled
  if (flight->attempt >= kMaxAttempts) {
    throw TransportFailure("reliable transport: message " + std::to_string(flight->seq) +
                           " on link " + std::to_string(flight->src) + "->" +
                           std::to_string(flight->dst) + " exceeded " +
                           std::to_string(kMaxAttempts) + " transmission attempts");
  }
  ++flight->attempt;
  auto& network = cluster_.network();
  const net::NodeId src_node = node_of(flight->src);
  const net::NodeId dst_node = node_of(flight->dst);
  const net::Delivery d =
      flight->chunked
          ? network.transmit_chunked(src_node, dst_node, flight->bytes, *flight->chunked)
          : network.transmit(src_node, dst_node, flight->bytes);
  flight->deadline = sim().now() + rto(*flight);
  PDC_TRACE_BLOCK {
    if (!d.dropped) {
      trace::emit({.t_ns = sim().now().ns,
                   .bytes = flight->bytes,
                   .aux0 = d.arrival.ns,
                   .aux1 = flight->attempt,
                   .id = flight->trace_id,
                   .kind = trace::Kind::MsgWire,
                   .rank = static_cast<std::int16_t>(src_node),
                   .peer = static_cast<std::int16_t>(dst_node)});
    }
  }

  // The event queue has no erase, so a timer armed "just in case" would pop
  // as a clock-holding no-op even after an ack cancels it. Instead the
  // kernel -- which already knows this frame's fate from the Delivery --
  // arms a retransmission only on paths where no ack can come back (drop,
  // corruption) or where the ack itself is known lost/late (send_ack). The
  // *timing* is exactly what a real timeout-driven sender would produce;
  // only the pointless no-op events are skipped.
  if (d.dropped) {
    ++transport_[static_cast<std::size_t>(flight->src)].drops_seen;
    PDC_TRACE_BLOCK {
      trace::emit({.t_ns = sim().now().ns,
                   .bytes = flight->bytes,
                   .aux0 = flight->attempt,
                   .id = flight->seq,
                   .kind = trace::Kind::FrameDrop,
                   .rank = static_cast<std::int16_t>(flight->src),
                   .peer = static_cast<std::int16_t>(flight->dst)});
    }
    arm_retransmit(flight, flight->deadline);
    return;
  }
  const std::uint32_t wire_crc = d.corrupted ? (flight->crc ^ kCorruptMask) : flight->crc;
  sim().schedule_at(d.arrival, [this, flight, wire_crc] { on_data_frame(flight, wire_crc); });
  if (d.duplicated) {
    sim().schedule_at(d.dup_arrival,
                      [this, flight, wire_crc] { on_data_frame(flight, wire_crc); });
  }
  if (d.corrupted) {
    // The receiver will reject both copies on CRC and stay silent.
    arm_retransmit(flight, flight->deadline);
  }
}

void Runtime::arm_retransmit(const std::shared_ptr<Flight>& flight, sim::TimePoint at) {
  const sim::TimePoint when = std::max(at, sim().now());
  const int armed_for = flight->attempt;
  sim().schedule_at(when, [this, flight, armed_for] {
    // Superseded if an ack completed the flight, or another event (a second
    // lost ack for the same attempt) already retransmitted it.
    if (flight->completed || flight->attempt != armed_for) return;
    ++transport_[static_cast<std::size_t>(flight->src)].retransmits;
    PDC_TRACE_BLOCK {
      trace::emit({.t_ns = sim().now().ns,
                   .bytes = flight->bytes,
                   .aux0 = armed_for,
                   .id = flight->seq,
                   .kind = trace::Kind::Retransmit,
                   .rank = static_cast<std::int16_t>(flight->src),
                   .peer = static_cast<std::int16_t>(flight->dst)});
    }
    transmit_attempt(flight);
  });
}

void Runtime::on_data_frame(const std::shared_ptr<Flight>& flight, std::uint32_t wire_crc) {
  if (payload_crc(flight->data) != wire_crc) {
    ++transport_[static_cast<std::size_t>(flight->dst)].corrupt_rejected;
    PDC_TRACE_BLOCK {
      trace::emit({.t_ns = sim().now().ns,
                   .bytes = flight->bytes,
                   .id = flight->seq,
                   .kind = trace::Kind::CorruptReject,
                   .rank = static_cast<std::int16_t>(flight->dst),
                   .peer = static_cast<std::int16_t>(flight->src)});
    }
    return;  // no ack; the sender's retransmission timer is already armed
  }
  RxLink& ls = rx_link(flight->src, flight->dst);
  if (flight->seq < ls.rx_next || ls.rx_held.contains(flight->seq)) {
    // Duplicate (wire duplication or a spurious retransmission). Re-ack so
    // a sender that missed the first ack stops resending.
    ++transport_[static_cast<std::size_t>(flight->dst)].dup_discarded;
    PDC_TRACE_BLOCK {
      trace::emit({.t_ns = sim().now().ns,
                   .bytes = flight->bytes,
                   .id = flight->seq,
                   .kind = trace::Kind::DupDiscard,
                   .rank = static_cast<std::int16_t>(flight->dst),
                   .peer = static_cast<std::int16_t>(flight->src)});
    }
    send_ack(flight);
    return;
  }
  ls.rx_held.emplace(flight->seq, flight);
  while (!ls.rx_held.empty() && ls.rx_held.begin()->first == ls.rx_next) {
    auto ready = ls.rx_held.begin()->second;
    ls.rx_held.erase(ls.rx_held.begin());
    ++ls.rx_next;
    release_to_receiver(ready);
  }
  send_ack(flight);
}

void Runtime::release_to_receiver(const std::shared_ptr<Flight>& flight) {
  auto& dst_node = node(flight->dst);
  const sim::TimePoint t2 = dst_node.stack().reserve(dst_node.stack_service(flight->bytes));
  sim().schedule_at(t2, [flight, t2] { flight->delivered(t2); });
}

void Runtime::send_ack(const std::shared_ptr<Flight>& flight) {
  auto& network = cluster_.network();
  // The ack is a real frame on the reverse link: it contends for the wire
  // and is subject to the same fault plan as data.
  const net::Delivery a =
      network.transmit(node_of(flight->dst), node_of(flight->src), kAckBytes);
  if (a.dropped || a.corrupted) {
    // Lost ack (a corrupted ack fails the sender's CRC and is dropped
    // there). Charged to this rank: it transmitted the frame the wire ate.
    ++transport_[static_cast<std::size_t>(flight->dst)].drops_seen;
    PDC_TRACE_BLOCK {
      trace::emit({.t_ns = sim().now().ns,
                   .bytes = kAckBytes,
                   .aux0 = flight->attempt,
                   .id = flight->seq,
                   .kind = trace::Kind::FrameDrop,
                   .rank = static_cast<std::int16_t>(flight->dst),
                   .peer = static_cast<std::int16_t>(flight->src)});
    }
    arm_retransmit(flight, flight->deadline);
    return;
  }
  if (a.arrival > flight->deadline) {
    // The ack will land after the timeout: a real sender retransmits
    // spuriously at the deadline (the receiver dedups the extra copy).
    arm_retransmit(flight, flight->deadline);
  }
  sim().schedule_at(a.arrival, [flight] { flight->completed = true; });
  // Wire duplication of the ack needs no handling: a second ack for a
  // completed flight is a no-op.
}

void Runtime::deliver_at(sim::TimePoint at, int dst, Message msg) {
  sim().schedule_at(at, [this, dst, msg = std::move(msg)] { mailbox(dst).push(msg); });
}

}  // namespace pdc::mp
