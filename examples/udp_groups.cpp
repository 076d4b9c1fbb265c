// The full stack over real sockets: three daemons (engine + group layer)
// on loopback UDP, with clients joining a room and chatting — the closest
// thing in this repo to running three Spread daemons on one machine.
//
//   $ ./udp_groups
#include <cstdio>
#include <memory>

#include "daemon/client.hpp"
#include "loopback_ring.hpp"
#include "membership/membership.hpp"
#include "transport/udp_transport.hpp"
#include "util/bytes.hpp"

using namespace accelring;

int main() {
  const int kDaemons = 3;
  transport::EventLoop loop;
  struct Node {
    std::unique_ptr<transport::UdpTransport> transport;
    std::unique_ptr<protocol::Engine> engine;
    std::unique_ptr<daemon::Daemon> daemon;
  };
  std::vector<Node> nodes(kDaemons);

  protocol::RingConfig ring;
  ring.ring_id = membership::make_ring_id(1, 0);
  for (int i = 0; i < kDaemons; ++i) {
    ring.members.push_back(static_cast<protocol::ProcessId>(i));
  }
  auto transports = examples::bind_loopback_ring(kDaemons, 26000, 5000, loop);
  for (int i = 0; i < kDaemons; ++i) {
    auto& node = nodes[i];
    node.transport = std::move(transports[i]);
    node.engine = std::make_unique<protocol::Engine>(
        static_cast<protocol::ProcessId>(i), protocol::ProtocolConfig{},
        *node.transport);
    node.transport->bind(*node.engine);
    node.daemon = std::make_unique<daemon::Daemon>(
        static_cast<protocol::ProcessId>(i), *node.engine);
    node.transport->set_deliver(
        [d = node.daemon.get()](const protocol::Delivery& delivery) {
          d->on_delivery(delivery);
        });
    node.transport->set_config(
        [d = node.daemon.get()](const protocol::ConfigurationChange& c) {
          d->on_configuration(c);
        });
  }
  for (int i = kDaemons - 1; i >= 0; --i) {
    nodes[i].engine->start_with_ring(ring);
  }

  auto printer = [](const char* who) {
    return [who](const std::string& group, const std::string& sender,
                 protocol::Service, std::span<const std::byte> payload) {
      std::printf("  [%s] #%s <%s> %.*s\n", who, group.c_str(),
                  sender.c_str(), static_cast<int>(payload.size()),
                  reinterpret_cast<const char*>(payload.data()));
    };
  };
  daemon::Client alice(*nodes[0].daemon, "alice", printer("alice@d0"));
  daemon::Client bob(*nodes[1].daemon, "bob", printer("bob@d1"));
  daemon::Client carol(*nodes[2].daemon, "carol", printer("carol@d2"));

  alice.join("udp-room");
  bob.join("udp-room");
  carol.join("udp-room");
  loop.run_for(util::msec(200));

  std::printf("--- three daemons over real UDP sockets ---\n");
  alice.send("udp-room", protocol::Service::kAgreed,
             util::to_vector(util::as_bytes("hello over real sockets")));
  bob.send("udp-room", protocol::Service::kSafe,
           util::to_vector(util::as_bytes("safe-delivered reply")));
  loop.run_for(util::msec(400));

  std::printf("done; engine arus: %lld %lld %lld\n",
              static_cast<long long>(nodes[0].engine->local_aru()),
              static_cast<long long>(nodes[1].engine->local_aru()),
              static_cast<long long>(nodes[2].engine->local_aru()));
  return 0;
}
