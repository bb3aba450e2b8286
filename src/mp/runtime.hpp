// pdceval -- tool runtime: the messaging fabric one tool instance owns on
// one cluster.
//
// The runtime owns per-rank mailboxes and the per-node auxiliary resources
// (pvmd daemons, Express background receive engines) and implements the
// kernel transfer pipeline: sender stack -> wire -> receiver stack, as a
// chain of scheduled events so every resource reservation happens at its
// own moment in simulated time (exact FIFO queueing).
//
// On a reliable wire (every catalogued physical network) the pipeline is
// exactly that three-hop chain. When the cluster's network reports
// `reliable() == false` (the fault-injection decorator with an armed plan)
// the kernel switches to a reliable transport: per-link sequence numbers,
// CRC32 on the payload, receiver-side dedup and in-order release, and
// ack/timeout/retransmission with capped exponential backoff -- all as
// scheduled events on the same queue, so runs stay bit-reproducible.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "host/platform.hpp"
#include "mp/message.hpp"
#include "mp/profile.hpp"
#include "mp/tool.hpp"
#include "sim/mailbox.hpp"
#include "sim/pooled_function.hpp"
#include "sim/resource.hpp"

namespace pdc::mp {

class Communicator;

// TagSourceMatch spells the "no bucket" sentinel out (to stay free of the
// simulation kernel headers); pin it to the mailbox's definition here,
// where both headers meet.
static_assert(TagSourceMatch{kAnySource, kAnyTag}.bucket_key() == sim::kAnyBucket);
static_assert(TagSourceMatch{7, kAnyTag}.bucket_key() == 7);

/// Reliability work performed by one rank's transport (all zero on a
/// reliable wire). `drops_seen` counts frames this rank transmitted that
/// the wire lost (data frames at the sender, acks at the receiver);
/// `corrupt_rejected` and `dup_discarded` count at the receiving rank.
struct TransportStats {
  std::int64_t retransmits{0};
  std::int64_t drops_seen{0};
  std::int64_t corrupt_rejected{0};
  std::int64_t dup_discarded{0};

  TransportStats& operator+=(const TransportStats& o) noexcept {
    retransmits += o.retransmits;
    drops_seen += o.drops_seen;
    corrupt_rejected += o.corrupt_rejected;
    dup_discarded += o.dup_discarded;
    return *this;
  }
  friend bool operator==(const TransportStats&, const TransportStats&) = default;
};

/// A message exhausted its retransmission budget (the link is effectively
/// down for longer than the transport is willing to wait).
class TransportFailure : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A contiguous slice of a cluster's nodes. A Runtime built over a range
/// exposes a dense rank space 0..count-1 whose rank r lives on physical
/// node base + r -- the multi-tenant scheduler places every job on such a
/// slice, so concurrent jobs on one cluster each see an ordinary
/// 0-based communicator while their traffic shares the physical fabric.
struct NodeRange {
  int base{0};
  int count{0};
};

class Runtime {
 public:
  Runtime(host::Cluster& cluster, ToolKind kind);
  /// Run with an explicit cost profile instead of a catalogued tool's --
  /// the hook for evaluating hypothetical or future tools against the 1995
  /// field (the paper's second objective: "defining the requirements of
  /// future systems"). `kind` only labels the runtime.
  Runtime(host::Cluster& cluster, ToolKind kind, ToolProfile profile);
  /// A runtime spanning only `range` of the cluster (a scheduler job's
  /// allocation). Ranks are job-local; the whole-cluster constructors are
  /// the degenerate range {0, cluster.size()}, bit-identical to before the
  /// range existed.
  Runtime(host::Cluster& cluster, ToolKind kind, ToolProfile profile, NodeRange range);
  ~Runtime();
  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  [[nodiscard]] ToolKind kind() const noexcept { return kind_; }
  [[nodiscard]] int size() const noexcept { return range_.count; }
  [[nodiscard]] host::Cluster& cluster() noexcept { return cluster_; }
  [[nodiscard]] sim::Simulation& sim() noexcept { return cluster_.simulation(); }
  [[nodiscard]] const ToolProfile& profile() const noexcept { return profile_; }

  /// Physical node id of a runtime-local rank (identity for whole-cluster
  /// runtimes). Every touch of a Node or of the network goes through this.
  [[nodiscard]] net::NodeId node_of(int rank) const noexcept {
    return static_cast<net::NodeId>(range_.base + rank);
  }
  [[nodiscard]] host::Node& node(int rank) { return cluster_.node(node_of(rank)); }

  [[nodiscard]] Communicator& comm(int rank);

  // Per-rank fabric state is created on first touch: a P=4096 cell whose
  // traffic involves a handful of ranks materialises a handful of
  // mailboxes, and p4/Express runs never pay for pvmd daemons at all.
  // Lazily-created resources start idle, exactly as eager ones would be at
  // first use, so results are bit-identical to the eager layout.
  [[nodiscard]] sim::Mailbox<Message>& mailbox(int rank) {
    auto& slot = mailboxes_.at(static_cast<std::size_t>(rank));
    if (!slot) {
      slot = std::make_unique<sim::Mailbox<Message>>(
          sim(), +[](const Message& m) { return m.src; });
    }
    return *slot;
  }
  [[nodiscard]] sim::SerialResource& daemon(int rank) {
    return lazy_resource(daemons_, rank, "pvmd#");
  }
  [[nodiscard]] sim::SerialResource& rx_engine(int rank) {
    return lazy_resource(rx_engines_, rank, "rxengine#");
  }
  [[nodiscard]] sim::SerialResource& tx_engine(int rank) {
    return lazy_resource(tx_engines_, rank, "txengine#");
  }

  /// Mailboxes actually created (O(active) state pins in tests).
  [[nodiscard]] std::size_t active_mailboxes() const noexcept {
    std::size_t n = 0;
    for (const auto& m : mailboxes_) n += m != nullptr;
    return n;
  }

  /// Matching telemetry summed over every created mailbox (counters sum,
  /// peak depth is the max across ranks).
  [[nodiscard]] sim::MailboxStats mailbox_total() const noexcept {
    sim::MailboxStats total;
    for (const auto& m : mailboxes_) {
      if (m) total += m->stats();
    }
    return total;
  }

  /// Push `bytes` through sender stack -> network -> receiver stack,
  /// starting now. Returns the sender-stack completion time (what a
  /// blocking send waits for); invokes `delivered` (via the scheduler) when
  /// the receiver's kernel has the data. `wire_data` is the payload the
  /// frame carries (checksummed by the reliable transport; may be null for
  /// overhead-only transfers). `chunked` selects the fragment+ack wire
  /// protocol (PVM daemon traffic). The continuation rides in a
  /// pool-backed callable so per-message delivery never hits malloc.
  /// `trace_id` correlates the wire hops with the originating send's trace
  /// records; 0 (the default, and always when tracing is inactive) records
  /// nothing.
  sim::TimePoint kernel_transfer(int src, int dst, std::int64_t bytes, Payload wire_data,
                                 sim::PooledFunction<void(sim::TimePoint)> delivered,
                                 std::optional<net::ChunkProtocol> chunked = std::nullopt,
                                 std::uint64_t trace_id = 0);

  /// Next message correlation id for trace records. Only called while a
  /// capture is active, so untraced runs never touch the counter and stay
  /// byte-identical whether or not tracing is compiled in.
  [[nodiscard]] std::uint64_t next_trace_msg_id() noexcept { return ++trace_msg_seq_; }

  /// Hand a message to rank `dst`'s mailbox at time `at`.
  void deliver_at(sim::TimePoint at, int dst, Message msg);

  /// Total messages moved through the fabric (reporting / tests).
  [[nodiscard]] std::uint64_t messages_sent() const noexcept { return messages_sent_; }
  [[nodiscard]] std::uint64_t payload_bytes_sent() const noexcept { return payload_bytes_; }

  /// false iff the cluster network injects faults (cached at construction;
  /// wrap the network *before* building the Runtime).
  [[nodiscard]] bool reliable_wire() const noexcept { return reliable_wire_; }
  [[nodiscard]] const TransportStats& transport_stats(int rank) const {
    return transport_.at(static_cast<std::size_t>(rank));
  }
  [[nodiscard]] TransportStats transport_total() const noexcept;

 private:
  struct Flight;  // one reliable-transport message in flight (runtime.cpp)

  /// Receiver-side transport state of one directed link: the in-order
  /// release cursor and the reorder buffer.
  struct RxLink {
    std::uint64_t rx_next{0};
    std::map<std::uint64_t, std::shared_ptr<Flight>> rx_held;
  };

  /// Directed-link transport state, created on first use; O(active links),
  /// not O(P^2) (the seed's n*n vector cost ~1 GB at P=4096 before a single
  /// message moved). Split by owning side: the sender's sequence counter
  /// lives with src (bumped in kernel_transfer), the receive cursor +
  /// reorder buffer live with dst (touched in on_data_frame).
  [[nodiscard]] std::uint64_t& tx_seq(int src, int dst) {
    auto& slot = tx_links_.at(static_cast<std::size_t>(src));
    if (!slot) slot = std::make_unique<std::unordered_map<int, std::uint64_t>>();
    return (*slot)[dst];
  }
  [[nodiscard]] RxLink& rx_link(int src, int dst) {
    auto& slot = rx_links_.at(static_cast<std::size_t>(dst));
    if (!slot) slot = std::make_unique<std::unordered_map<int, RxLink>>();
    return (*slot)[src];
  }

  [[nodiscard]] sim::SerialResource& lazy_resource(
      std::vector<std::unique_ptr<sim::SerialResource>>& slots, int rank, const char* prefix) {
    auto& slot = slots.at(static_cast<std::size_t>(rank));
    if (!slot) {
      slot = std::make_unique<sim::SerialResource>(sim(), prefix + std::to_string(rank));
    }
    return *slot;
  }

  void reliable_transfer(std::shared_ptr<Flight> flight, sim::TimePoint at);
  void transmit_attempt(const std::shared_ptr<Flight>& flight);
  void arm_retransmit(const std::shared_ptr<Flight>& flight, sim::TimePoint at);
  void on_data_frame(const std::shared_ptr<Flight>& flight, std::uint32_t wire_crc);
  void send_ack(const std::shared_ptr<Flight>& flight);
  void release_to_receiver(const std::shared_ptr<Flight>& flight);
  [[nodiscard]] sim::Duration rto(const Flight& flight) const noexcept;

  host::Cluster& cluster_;
  ToolKind kind_;
  ToolProfile profile_;
  NodeRange range_;
  bool reliable_wire_;
  std::vector<std::unique_ptr<sim::Mailbox<Message>>> mailboxes_;
  std::vector<std::unique_ptr<sim::SerialResource>> daemons_;
  std::vector<std::unique_ptr<sim::SerialResource>> rx_engines_;
  std::vector<std::unique_ptr<sim::SerialResource>> tx_engines_;
  std::vector<std::unique_ptr<Communicator>> comms_;
  std::vector<std::unique_ptr<std::unordered_map<int, std::uint64_t>>> tx_links_;  // [src] -> dst
  std::vector<std::unique_ptr<std::unordered_map<int, RxLink>>> rx_links_;         // [dst] -> src
  std::vector<TransportStats> transport_;  // per rank
  std::uint64_t messages_sent_{0};
  std::uint64_t payload_bytes_{0};
  std::uint64_t trace_msg_seq_{0};  // capture-only

  friend class Communicator;
};

}  // namespace pdc::mp
