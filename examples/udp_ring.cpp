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
#include <vector>

#include "transport/loopback_ring.hpp"
#include "util/bytes.hpp"

using namespace accelring;

int main(int argc, char** argv) {
  const int kNodes = 3;
  const int seconds = argc > 1 ? std::atoi(argv[1]) : 2;
  transport::EventLoop loop;
  protocol::ProtocolConfig config;
  config.timeouts.token_retransmit = util::msec(20);
  transport::LoopbackRing ring(loop, kNodes, config);
  std::vector<uint64_t> delivered(kNodes);
  std::vector<uint64_t> payload_bytes(kNodes);
  for (int i = 0; i < kNodes; ++i) {
    ring.set_deliver(i, [&, i](const protocol::Delivery& d) {
      ++delivered[i];
      payload_bytes[i] += d.payload.size();
    });
  }
  ring.start();

  // Keep every node's send queue topped up with 1350-byte messages.
  const std::vector<std::byte> payload(1350, std::byte{0x42});
  const auto started = loop.now();
  uint64_t submitted = 0;
  // Refill loop: a timer that re-arms itself every 2 ms.
  std::function<void()> refill = [&] {
    for (int i = 0; i < kNodes; ++i) {
      protocol::Engine& engine = ring.engine(i);
      for (int k = 0; k < 40 && engine.pending() < 200; ++k) {
        if (engine.submit(protocol::Service::kAgreed, payload)) {
          ++submitted;
        }
      }
    }
    loop.set_timer(51, util::msec(2), refill);
  };
  refill();

  loop.run_for(util::sec(seconds));

  std::printf("real UDP ring, %d processes on loopback, %d s, data by %s:\n",
              kNodes, seconds, ring.transport(0).data_path().c_str());
  const double elapsed = util::to_sec(loop.now() - started);
  bool consistent = true;
  for (int i = 0; i < kNodes; ++i) {
    const double mbps =
        static_cast<double>(payload_bytes[i]) * 8 / elapsed / 1e6;
    const transport::UdpTransport& t = ring.transport(i);
    std::printf(
        "  p%d delivered %llu messages (%.0f Mbps clean payload), aru=%lld, "
        "data datagrams=%llu in send calls=%llu\n",
        i, static_cast<unsigned long long>(delivered[i]), mbps,
        static_cast<long long>(ring.engine(i).local_aru()),
        static_cast<unsigned long long>(t.data_datagrams_sent()),
        static_cast<unsigned long long>(t.data_send_calls()));
    consistent = consistent && delivered[i] == delivered[0];
  }
  std::printf("submitted=%llu; all nodes delivered the same count: %s\n",
              static_cast<unsigned long long>(submitted),
              consistent ? "yes" : "within-flight tolerance");
  return 0;
}
