#include "transport/sim_host.hpp"

#include <cassert>

namespace accelring::transport {

SimHost::SimHost(simnet::Network& net, simnet::Process& proc, int node,
                 HostCosts costs)
    : net_(net), proc_(proc), node_(node), costs_(costs) {}

void SimHost::set_dead(bool dead) {
  dead_ = dead;
  if (!dead_) return;
  // A dead engine must not keep ticking: cancel every protocol timer so
  // retransmit/membership loops stop rearming themselves.
  for (int kind = protocol::kTimerTokenRetransmit;
       kind <= protocol::kTimerTokenHold; ++kind) {
    proc_.cancel_timer(kind);
  }
}

void SimHost::multicast(protocol::SocketId sock,
                        std::span<const std::byte> data) {
  if (dead_) return;
  proc_.charge(send_cost(data.size()));
  net_.send(node_, simnet::kMulticast, sock, util::to_vector(data),
            proc_.now());
}

void SimHost::unicast(protocol::ProcessId to, protocol::SocketId sock,
                      std::span<const std::byte> data, Nanos /*delay*/) {
  if (dead_) return;
  proc_.charge(send_cost(data.size()));
  net_.send(node_, static_cast<int>(to), sock, util::to_vector(data),
            proc_.now());
}

void SimHost::deliver(const protocol::Delivery& delivery) {
  if (dead_) return;
  proc_.charge(costs_.delivery);
  if (deliver_) deliver_(delivery);
}

void SimHost::on_configuration(const protocol::ConfigurationChange& change) {
  if (dead_) return;
  if (config_) config_(change);
}

void SimHost::set_timer(protocol::TimerKind kind, Nanos delay) {
  if (dead_) return;
  proc_.set_timer(kind, delay);
}

void SimHost::cancel_timer(protocol::TimerKind kind) {
  proc_.cancel_timer(kind);
}

void SimHost::on_packet(simnet::SocketId sock,
                        std::span<const std::byte> data) {
  if (dead_) return;  // leftover inbox items of a crashed node
  assert(handler_ != nullptr);
  const auto type = protocol::peek_type(data);
  if (type == protocol::PacketType::kToken ||
      type == protocol::PacketType::kCommitToken) {
    proc_.charge(costs_.token_process);
  } else {
    proc_.charge(costs_.data_process);
  }
  handler_->on_packet(sock, data);
}

simnet::SocketId SimHost::preferred_socket() const {
  if (handler_ == nullptr) return simnet::kDataSocket;
  return handler_->preferred_socket() == protocol::kSockToken
             ? simnet::kTokenSocket
             : simnet::kDataSocket;
}

void SimHost::on_timer(int kind) {
  if (dead_) return;  // a timer that fired while the cancel was in flight
  assert(handler_ != nullptr);
  handler_->on_timer(static_cast<protocol::TimerKind>(kind));
}

}  // namespace accelring::transport
