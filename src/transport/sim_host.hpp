// Simulator adapter: wires a protocol::Engine to a simnet::Process and
// simnet::Network, charging virtual CPU cost for every syscall, protocol
// handling step, and application delivery.
//
// One SimHost per simulated node. Construction order per node:
//
//   Process proc(eq, costs, sockbuf);
//   SimHost host(eq, net, proc, node_index);
//   protocol::Engine engine(pid, cfg, host);
//   host.bind(engine);
//   net.attach(node_index, [&proc](sock, data) { proc.enqueue(sock, data); });
//   proc.set_sink(&host);
//
// Process ids map 1:1 onto simulated host indices (pid p runs on host p).
#pragma once

#include <functional>

#include "protocol/engine.hpp"
#include "simnet/event_queue.hpp"
#include "simnet/network.hpp"
#include "simnet/process.hpp"

namespace accelring::transport {

using protocol::Nanos;

/// Virtual CPU costs of the protocol path, charged by SimHost. The
/// per-implementation-profile costs (client IPC, group routing) are layered
/// on top by the harness via the delivery callback.
struct HostCosts {
  Nanos send_syscall = 1'100;    ///< one sendmsg()
  double send_per_byte = 0.20;   ///< ns/byte copy into the kernel
  Nanos token_process = 900;     ///< token handling work (ordering, rtr, fc)
  Nanos data_process = 450;      ///< per-data-message ordering work
  Nanos delivery = 250;          ///< handing one message to the application
};

class SimHost final : public protocol::Host, public simnet::PacketSink {
 public:
  using DeliverFn = std::function<void(const protocol::Delivery&)>;
  using ConfigFn = std::function<void(const protocol::ConfigurationChange&)>;

  SimHost(simnet::Network& net, simnet::Process& proc, int node,
          HostCosts costs = {});

  /// Attach the engine (two-phase init: the engine's constructor needs the
  /// Host reference).
  void bind(protocol::PacketHandler& handler) { handler_ = &handler; }

  /// Application-side hooks (harness, daemon layer).
  void set_deliver(DeliverFn fn) { deliver_ = std::move(fn); }
  void set_config(ConfigFn fn) { config_ = std::move(fn); }

  [[nodiscard]] simnet::Process& process() { return proc_; }
  [[nodiscard]] int node() const { return node_; }
  [[nodiscard]] const HostCosts& costs() const { return costs_; }

  /// Permanently mute this host (crash modelling): sends, deliveries,
  /// configuration callbacks, and timer (re)arms become no-ops, and every
  /// pending protocol timer is cancelled. The host object stays alive so
  /// events already queued against it resolve harmlessly, which lets the
  /// harness replace a crashed node with a fresh engine at the same index.
  void set_dead(bool dead);
  [[nodiscard]] bool dead() const { return dead_; }

  // --- protocol::Host --------------------------------------------------------
  void multicast(protocol::SocketId sock,
                 std::span<const std::byte> data) override;
  void unicast(protocol::ProcessId to, protocol::SocketId sock,
               std::span<const std::byte> data, Nanos delay) override;
  void deliver(const protocol::Delivery& delivery) override;
  void on_configuration(const protocol::ConfigurationChange& change) override;
  void set_timer(protocol::TimerKind kind, Nanos delay) override;
  void cancel_timer(protocol::TimerKind kind) override;
  Nanos now() override { return proc_.now(); }
  /// Virtual CPU consumed so far; the gray-failure health stamp reads the
  /// per-rotation delta. Scales with Process::set_cpu_multiplier, which is
  /// exactly what makes an injected straggler measurable.
  Nanos cpu_time() override { return proc_.busy_time(); }

  // --- simnet::PacketSink ----------------------------------------------------
  void on_packet(simnet::SocketId sock,
                 std::span<const std::byte> data) override;
  [[nodiscard]] simnet::SocketId preferred_socket() const override;
  void on_timer(int kind) override;

 private:
  [[nodiscard]] Nanos send_cost(size_t bytes) const {
    return costs_.send_syscall +
           static_cast<Nanos>(static_cast<double>(bytes) *
                              costs_.send_per_byte);
  }

  simnet::Network& net_;
  simnet::Process& proc_;
  int node_;
  HostCosts costs_;
  bool dead_ = false;
  protocol::PacketHandler* handler_ = nullptr;
  DeliverFn deliver_;
  ConfigFn config_;
};

}  // namespace accelring::transport
