// Simulated switched Ethernet fabric.
//
// Models the paper's testbeds: N hosts connected to one store-and-forward
// switch (a 1-gigabit Cisco Catalyst 2960 or a 10-gigabit Arista 7100T).
// The model captures exactly the effects the Accelerated Ring paper turns on:
//
//  * serialization delay at the sender NIC and again at the switch output
//    port (store-and-forward),
//  * finite per-output-port switch buffers with tail drop — the buffering the
//    accelerated protocol exploits, and the loss mode it must avoid when
//    participants' sending overlaps too much,
//  * propagation + switch fabric latency,
//  * a fixed host tx/rx path latency (NIC + kernel UDP stack) that is *not*
//    CPU time — the CPU cost of syscalls is charged separately by Process,
//  * IP fragmentation of UDP datagrams larger than one MTU (the paper's
//    8850-byte experiments), where losing one fragment loses the datagram,
//  * optional iid random loss and host/partition fault injection for the
//    membership tests.
//
// Multicast is modelled as switch replication to every port except the
// ingress port (senders do not hear their own multicasts; the protocol engine
// self-inserts the messages it sends).
//
// A Topology (topology.hpp) generalises the model to several datacenters:
// each DC has its own switch, DCs are joined by WAN links with per-direction
// bandwidth, their own propagation, buffers, and loss, and hosts may carry
// per-host NIC rates. Traffic between DCs follows shortest paths over the DC
// graph (BFS, deterministic tie-break); a multicast crosses each WAN link of
// the source DC's BFS tree exactly once and is re-fanned out by the receiving
// switch. A single-DC topology is bit-identical to the classic constructor.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "simnet/event_queue.hpp"
#include "simnet/topology.hpp"
#include "util/rng.hpp"

namespace accelring::simnet {

/// Socket indices per host. Token and data travel on distinct sockets so the
/// receiver can drain them with different priorities (paper §III-D).
using SocketId = int;
inline constexpr SocketId kDataSocket = 0;
inline constexpr SocketId kTokenSocket = 1;
inline constexpr int kNumSockets = 2;

/// Destination value meaning "multicast to every other host".
inline constexpr int kMulticast = -1;

/// Wildcard endpoint for directed-link fault rules ("any host").
inline constexpr int kAnyHost = -1;

/// Per-frame and fragmentation constants for Ethernet. The default MTU is
/// the standard 1500 bytes; pass 9000 to model jumbo frames (the paper
/// deliberately avoids jumbo frames for portability but notes they may
/// improve performance further — bench/ablation_jumbo quantifies it).
struct Wire {
  static constexpr size_t kMtu = 1500;           // standard IP MTU
  static constexpr size_t kIpHeader = 20;
  static constexpr size_t kUdpHeader = 8;
  // Ethernet header (14) + FCS (4) + preamble/SFD (8) + inter-frame gap (12).
  static constexpr size_t kEthOverhead = 38;
  static constexpr size_t kMaxFirstFragment = kMtu - kIpHeader - kUdpHeader;
  static constexpr size_t kMaxLaterFragment = kMtu - kIpHeader;

  /// Number of Ethernet frames a UDP datagram of `udp_payload` bytes needs.
  static size_t frames(size_t udp_payload, size_t mtu = kMtu);
  /// Total bytes on the wire (all frames, all headers, preamble and gap).
  static size_t wire_bytes(size_t udp_payload, size_t mtu = kMtu);
};

/// Fabric configuration. Factory functions return models of the paper's two
/// testbeds; the constants are documented in DESIGN.md §1.
struct FabricParams {
  double link_bps = 1e9;            ///< host<->switch line rate, each direction
  Nanos prop_delay = 300;           ///< one-way cable+PHY per link
  Nanos switch_latency = 4000;      ///< forwarding decision after last bit in
  size_t port_buffer_bytes = 256 * 1024;  ///< output-port queue capacity
  Nanos host_tx_latency = 3000;     ///< kernel+NIC tx path (latency, not CPU)
  Nanos host_rx_latency = 12000;    ///< kernel+NIC rx path (interrupts, stack)
  double loss_rate = 0.0;           ///< iid drop probability per receiver
  size_t mtu = Wire::kMtu;          ///< 1500 standard; 9000 for jumbo frames

  /// 1-gigabit testbed (Catalyst 2960-class store-and-forward switch).
  static FabricParams one_gig();
  /// 10-gigabit testbed (Arista 7100T-class switch, lower latency).
  static FabricParams ten_gig();

  [[nodiscard]] Nanos serialization_delay(size_t bytes_on_wire) const {
    return static_cast<Nanos>(static_cast<double>(bytes_on_wire) * 8.0 /
                              link_bps * 1e9);
  }
};

/// Aggregate fabric counters, exposed for tests and benchmark sanity checks.
struct NetworkStats {
  uint64_t datagrams_sent = 0;       ///< send() calls (multicast counts once)
  uint64_t datagrams_delivered = 0;  ///< per-receiver deliveries
  uint64_t drops_buffer = 0;         ///< tail drops at switch output ports
  uint64_t drops_random = 0;         ///< injected random loss
  uint64_t drops_fault = 0;          ///< partition / host-down drops
  uint64_t drops_link = 0;           ///< directed link-loss / link-down drops
  uint64_t drops_wan = 0;            ///< WAN link loss/buffer/down + brownout
  uint64_t duplicates = 0;           ///< injected duplicate deliveries
  uint64_t reordered = 0;            ///< deliveries delayed by reorder fault
  uint64_t wire_bytes = 0;           ///< bytes serialized at sender NICs
  uint64_t wan_datagrams = 0;        ///< datagrams accepted onto a WAN link
  uint64_t wan_bytes = 0;            ///< wire bytes serialized onto WAN links
};

class Network {
 public:
  using Payload = std::shared_ptr<const std::vector<std::byte>>;
  /// Called when a datagram reaches a host's socket (after host_rx_latency).
  using DeliveryFn = std::function<void(SocketId sock, const Payload& data)>;

  /// Classic single-switch fabric: equivalent to a single_dc Topology.
  Network(EventQueue& eq, FabricParams params, int num_hosts,
          uint64_t seed = 1);

  /// Multi-datacenter fabric. The topology must validate (asserted); a
  /// single-DC topology with default host specs behaves bit-identically to
  /// the classic constructor (same rng stream, same event timing).
  Network(EventQueue& eq, FabricParams params, Topology topo,
          uint64_t seed = 1);

  /// Register the delivery callback for `host` (typically Process::enqueue).
  void attach(int host, DeliveryFn fn);

  /// Send a UDP datagram from `src` to `dst` (or kMulticast) on `sock`.
  /// `when` is the time the sending process issues the send (>= the event
  /// queue's current time); processes mid-handler pass their virtual now.
  void send(int src, int dst, SocketId sock, std::vector<std::byte> data,
            Nanos when);

  [[nodiscard]] const NetworkStats& stats() const { return stats_; }
  [[nodiscard]] int num_hosts() const { return num_hosts_; }
  [[nodiscard]] const FabricParams& params() const { return params_; }
  [[nodiscard]] const Topology& topology() const { return topo_; }

  // --- fault injection -----------------------------------------------------

  /// iid loss applied independently per receiver (fragment-aware: a datagram
  /// of k frames survives with probability (1-p)^k).
  void set_loss_rate(double p) { params_.loss_rate = p; }

  /// Additional one-way delivery latency applied to every datagram from now
  /// on (models a routing change, cross-switch failover, or congestion shift
  /// — the condition adaptive failure detection must ride through without
  /// ejecting live members). 0 restores the base fabric latency.
  void set_extra_latency(Nanos extra) { extra_latency_ = extra; }
  /// Shift the extra delivery latency by `delta` (may be negative). Shifts
  /// compose additively — two overlapping congestion episodes add up — and
  /// the result clamps at 0 so a stale negative shift (e.g. one whose onset
  /// was absorbed by a heal-all) can never make the fabric faster than its
  /// base latency.
  void add_extra_latency(Nanos delta) {
    extra_latency_ = std::max<Nanos>(0, extra_latency_ + delta);
  }
  [[nodiscard]] Nanos extra_latency() const { return extra_latency_; }

  /// Assign `host` to partition `id`; traffic crosses only equal ids.
  void set_partition(int host, int id);
  /// Put every host back in partition 0.
  void heal();
  /// A down host neither sends nor receives.
  void set_host_down(int host, bool down);
  [[nodiscard]] bool host_down(int host) const { return down_[host]; }

  // --- gray-failure primitives (partial degradation, not crash) ------------

  /// Directed (asymmetric) loss on the src->dst link; either endpoint may be
  /// kAnyHost. `set_link_loss(kAnyHost, h, p)` models a lossy receive NIC at
  /// `h` (everyone's traffic to h drops, h's own sends are clean) — the
  /// classic half-broken-transceiver gray failure. Fragment-aware like the
  /// global loss rate. p = 0 removes the rule.
  void set_link_loss(int src, int dst, double p);

  /// Directed link cut: src->dst silently drops everything while the reverse
  /// direction still works (unidirectional link failure). Either endpoint may
  /// be kAnyHost. Used by the flapping-link scenario, which toggles it.
  void set_link_down(int src, int dst, bool down);

  /// With probability p, delay a delivery by uniform(1, max_extra] ns —
  /// packets leapfrog each other (multipath / NIC queue churn).
  void set_reorder(double p, Nanos max_extra);

  /// With probability p, deliver a second copy of a datagram shortly after
  /// the first (retransmitting middlebox / flaky switch).
  void set_duplicate(double p);

  // --- correlated-fault primitives (multi-datacenter topologies) -----------

  /// Take every WAN link between `dc_a` and `dc_b` down (both directions) or
  /// bring them back up. Routing is static: traffic for a downed link drops
  /// rather than detouring (the DC-flap scenario toggles this).
  void set_wan_down(int dc_a, int dc_b, bool down);
  [[nodiscard]] bool wan_down(int dc_a, int dc_b) const;

  /// Switch brownout: every port of `dc`'s switch degrades — frames through
  /// it drop with probability `loss` and surviving traffic picks up `extra`
  /// forwarding latency. Applies to intra-DC traffic, traffic delivered into
  /// the DC, and traffic the DC forwards onto WAN links. (0, 0) heals.
  void set_dc_brownout(int dc, double loss, Nanos extra);

  /// Remove every link-loss/link-down rule, disable reorder/duplicate, bring
  /// every WAN link back up, and clear every brownout (the heal-all path at
  /// a campaign horizon).
  void clear_link_faults();

  /// Targeted fault injection: return true to drop this (src, dst, sock,
  /// payload) delivery. Called once per receiver, before buffer/loss checks;
  /// used by tests to lose specific messages at specific hosts.
  using DropFilter = std::function<bool(int src, int dst, SocketId sock,
                                        const std::vector<std::byte>& data)>;
  void set_drop_filter(DropFilter filter) { drop_filter_ = std::move(filter); }

 private:
  /// Directed fault rule; kAnyHost endpoints are wildcards.
  struct LinkRule {
    int src = kAnyHost;
    int dst = kAnyHost;
    double loss = 0.0;
    bool down = false;
  };

  /// One hop over the DC graph: WAN link index, direction (0 = a->b), and
  /// the DC the hop lands in.
  struct WanEdge {
    int link = 0;
    int dir = 0;
    int to_dc = 0;
  };
  /// Per-direction WAN link state (its own serializer and egress queue).
  struct WanDirState {
    Nanos free_at = 0;
    size_t queued_bytes = 0;
  };
  struct WanState {
    WanDirState dir[2];
    bool down = false;
  };
  /// Per-DC switch fault state (brownout).
  struct DcState {
    double brown_loss = 0.0;
    Nanos brown_extra = 0;
  };

  void forward(int src, int dst, SocketId sock, const Payload& data,
               Nanos arrival, size_t bytes_on_wire, size_t frame_count);
  /// Put a datagram onto one direction of a WAN link, departing `from_dc` at
  /// `ready`. Returns the arrival time at the far switch, or -1 if the
  /// datagram was dropped (link down, loss, brownout, or full buffer).
  Nanos wan_transmit(int link, int dir, int from_dc, Nanos ready,
                     size_t bytes_on_wire, size_t frame_count);
  /// Deliver a multicast into every DC below `cur_dc` in the source DC's
  /// BFS tree (each WAN link crossed once, local fan-out at each switch).
  void wan_fanout(int src, int root_dc, int cur_dc, SocketId sock,
                  const Payload& data, Nanos ready, size_t bytes_on_wire,
                  size_t frame_count);
  /// Walk a unicast along the precomputed root->dst path, hop by hop.
  void wan_unicast(int src, int dst, SocketId sock, const Payload& data,
                   size_t hop, Nanos ready, size_t bytes_on_wire,
                   size_t frame_count);
  void build_routing();
  [[nodiscard]] Nanos ser_delay(double bps, size_t bytes_on_wire) const {
    return static_cast<Nanos>(static_cast<double>(bytes_on_wire) * 8.0 / bps *
                              1e9);
  }
  [[nodiscard]] LinkRule* find_rule(int src, int dst);
  /// Strongest rule matching a concrete (src, dst) pair, wildcards included.
  [[nodiscard]] const LinkRule* match_rule(int src, int dst) const;

  EventQueue& eq_;
  FabricParams params_;
  Topology topo_;
  int num_hosts_;
  bool multi_dc_ = false;
  util::Rng rng_;
  std::vector<DeliveryFn> sinks_;
  std::vector<Nanos> nic_free_at_;        // per host: uplink serialization
  std::vector<Nanos> port_free_at_;       // per host: switch downlink port
  std::vector<size_t> port_queued_bytes_; // per host: downlink queue occupancy
  std::vector<double> host_bps_;          // per host: NIC line rate
  std::vector<int> dc_of_;                // per host: datacenter index
  std::vector<std::vector<int>> dc_hosts_;  // per DC: member hosts, in order
  std::vector<WanState> wan_;             // per WAN link
  std::vector<DcState> dcs_;              // per DC: brownout state
  /// routing_[root][dc]: BFS-tree child edges of `dc` in the tree rooted at
  /// `root` (multicast); paths_[root][dc]: edge sequence root -> dc (unicast).
  std::vector<std::vector<std::vector<WanEdge>>> routing_;
  std::vector<std::vector<std::vector<WanEdge>>> paths_;
  std::vector<int> partition_;
  std::vector<bool> down_;
  Nanos extra_latency_ = 0;
  std::vector<LinkRule> link_rules_;
  double reorder_rate_ = 0.0;
  Nanos reorder_jitter_ = 0;
  double duplicate_rate_ = 0.0;
  DropFilter drop_filter_;
  NetworkStats stats_;
};

}  // namespace accelring::simnet
