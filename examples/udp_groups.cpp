// The full stack over real sockets: three daemons (engine + group layer)
// on loopback UDP, with clients joining a room and chatting — the closest
// thing in this repo to running three Spread daemons on one machine.
//
//   $ ./udp_groups
#include <cstdio>
#include <memory>

#include "daemon/client.hpp"
#include "transport/loopback_ring.hpp"
#include "util/bytes.hpp"

using namespace accelring;

int main() {
  const int kDaemons = 3;
  transport::EventLoop loop;
  transport::LoopbackRing ring(loop, kDaemons, protocol::ProtocolConfig{});
  std::vector<std::unique_ptr<daemon::Daemon>> daemons;
  for (int i = 0; i < kDaemons; ++i) {
    daemon::Daemon& d = *daemons.emplace_back(std::make_unique<daemon::Daemon>(
        static_cast<protocol::ProcessId>(i), ring.engine(i)));
    ring.set_deliver(i, [&d](const protocol::Delivery& delivery) {
      d.on_delivery(delivery);
    });
    ring.set_config(i, [&d](const protocol::ConfigurationChange& c) {
      d.on_configuration(c);
    });
  }
  ring.start();

  auto printer = [](const char* who) {
    return [who](const std::string& group, const std::string& sender,
                 protocol::Service, std::span<const std::byte> payload) {
      std::printf("  [%s] #%s <%s> %.*s\n", who, group.c_str(),
                  sender.c_str(), static_cast<int>(payload.size()),
                  reinterpret_cast<const char*>(payload.data()));
    };
  };
  daemon::Client alice(*daemons[0], "alice", printer("alice@d0"));
  daemon::Client bob(*daemons[1], "bob", printer("bob@d1"));
  daemon::Client carol(*daemons[2], "carol", printer("carol@d2"));

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
              static_cast<long long>(ring.engine(0).local_aru()),
              static_cast<long long>(ring.engine(1).local_aru()),
              static_cast<long long>(ring.engine(2).local_aru()));
  return 0;
}
