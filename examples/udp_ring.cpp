// The engine over real UDP sockets.
//
// Runs a 3-process ring on loopback (data by IP multicast, the token by
// unicast, data and token on separate ports — the paper's §III-D
// implementation choices), pushes a burst of messages through it, and
// reports real-time throughput, delivery consistency, and each node's data
// datagrams next to the send calls that carried them (a token visit's
// bursts leave as one segmented send each). The identical protocol::Engine
// code runs here and under the simulator — the engine is sans-io.
//
//   $ ./udp_ring [seconds]
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "loopback_ring.hpp"
#include "membership/membership.hpp"
#include "transport/udp_transport.hpp"
#include "util/bytes.hpp"

using namespace accelring;

int main(int argc, char** argv) {
  const int kNodes = 3;
  const int seconds = argc > 1 ? std::atoi(argv[1]) : 2;
  transport::EventLoop loop;
  struct Node {
    std::unique_ptr<transport::UdpTransport> transport;
    std::unique_ptr<protocol::Engine> engine;
    uint64_t delivered = 0;
    uint64_t payload_bytes = 0;
  };
  std::vector<Node> nodes(kNodes);

  protocol::RingConfig ring;
  ring.ring_id = membership::make_ring_id(1, 0);
  for (int i = 0; i < kNodes; ++i) {
    ring.members.push_back(static_cast<protocol::ProcessId>(i));
  }

  auto transports = examples::bind_loopback_ring(kNodes, 24000, 10000, loop);

  protocol::ProtocolConfig config;
  config.timeouts.token_retransmit = util::msec(20);
  for (int i = 0; i < kNodes; ++i) {
    nodes[i].transport = std::move(transports[i]);
    nodes[i].engine = std::make_unique<protocol::Engine>(
        static_cast<protocol::ProcessId>(i), config, *nodes[i].transport);
    nodes[i].transport->bind(*nodes[i].engine);
    nodes[i].transport->set_deliver(
        [&nodes, i](const protocol::Delivery& d) {
          ++nodes[i].delivered;
          nodes[i].payload_bytes += d.payload.size();
        });
  }
  for (int i = kNodes - 1; i >= 0; --i) {
    nodes[i].engine->start_with_ring(ring);
  }

  // Keep every node's send queue topped up with 1350-byte messages.
  const std::vector<std::byte> payload(1350, std::byte{0x42});
  loop.set_timer(50, util::msec(1), [] {});  // noop; primes timer machinery
  const auto started = loop.now();
  uint64_t submitted = 0;
  // Refill loop: a timer that re-arms itself every 2 ms.
  std::function<void()> refill = [&] {
    for (auto& node : nodes) {
      for (int k = 0; k < 40 && node.engine->pending() < 200; ++k) {
        if (node.engine->submit(protocol::Service::kAgreed, payload)) {
          ++submitted;
        }
      }
    }
    loop.set_timer(51, util::msec(2), refill);
  };
  refill();

  loop.run_for(util::sec(seconds));

  std::printf("real UDP ring, %d processes on loopback, %d s, data by %s:\n",
              kNodes, seconds, nodes[0].transport->data_path().c_str());
  const double elapsed = util::to_sec(loop.now() - started);
  bool consistent = true;
  for (int i = 0; i < kNodes; ++i) {
    const double mbps =
        static_cast<double>(nodes[i].payload_bytes) * 8 / elapsed / 1e6;
    const transport::UdpTransport& t = *nodes[i].transport;
    std::printf(
        "  p%d delivered %llu messages (%.0f Mbps clean payload), aru=%lld, "
        "data datagrams=%llu in send calls=%llu\n",
        i, static_cast<unsigned long long>(nodes[i].delivered), mbps,
        static_cast<long long>(nodes[i].engine->local_aru()),
        static_cast<unsigned long long>(t.data_datagrams_sent()),
        static_cast<unsigned long long>(t.data_send_calls()));
    consistent = consistent && nodes[i].delivered == nodes[0].delivered;
  }
  std::printf("submitted=%llu; all nodes delivered the same count: %s\n",
              static_cast<unsigned long long>(submitted),
              consistent ? "yes" : "within-flight tolerance");
  return 0;
}
