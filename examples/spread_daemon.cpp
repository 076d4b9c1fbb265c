// A real, runnable daemon: the full stack (UDP transport + engine + group
// layer + AF_UNIX IPC server) configured from a spread.conf-style file.
//
//   $ cat > /tmp/ring.conf <<EOF
//   daemon 0 127.0.0.1 4803 4804
//   daemon 1 127.0.0.1 4805 4806
//   protocol accelerated
//   option accelerated_window 15
//   EOF
//   $ ./spread_daemon /tmp/ring.conf 0 /tmp/ring0.sock &
//   $ ./spread_daemon /tmp/ring.conf 1 /tmp/ring1.sock &
//
// At startup each daemon prints its data path: "multicast <group>:<port>"
// when every daemon in the config shares one address, else "unicast
// fan-out" (see transport/udp_transport.hpp).
//
// Clients connect to the unix socket with daemon::RemoteClient (or any
// program speaking the ipc.hpp framing). With no --duration the daemon runs
// until killed; the demo default exits after a few seconds so the examples
// suite stays self-contained.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <string>

#include "daemon/config_file.hpp"
#include "daemon/ipc_server.hpp"
#include "membership/membership.hpp"
#include "storage/epoch_store.hpp"
#include "storage/file_disk.hpp"
#include "transport/udp_transport.hpp"

using namespace accelring;

int main(int argc, char** argv) {
  if (argc < 4) {
    std::fprintf(stderr,
                 "usage: %s <config> <pid> <ipc_socket_path> "
                 "[duration_seconds]\n",
                 argv[0]);
    return 2;
  }
  daemon::ConfigError error;
  const auto config = daemon::load_config_file(argv[1], error);
  if (!config) {
    std::fprintf(stderr, "%s:%d: %s\n", argv[1], error.line,
                 error.message.c_str());
    return 2;
  }
  const auto pid =
      static_cast<protocol::ProcessId>(std::strtoul(argv[2], nullptr, 10));
  if (!config->peers.contains(pid)) {
    std::fprintf(stderr, "pid %u not in config\n", unsigned{pid});
    return 2;
  }
  const int duration = argc > 4 ? std::atoi(argv[4]) : 3;

  transport::EventLoop loop;
  transport::UdpTransport transport(pid, config->peers, loop);
  protocol::Engine engine(pid, config->proto, transport);
  // Durable epoch counter next to the IPC socket: a cold-restarted daemon
  // must never mint a ring id it used in a previous incarnation.
  const std::string epoch_path = std::string(argv[3]) + ".epoch";
  const size_t slash = epoch_path.rfind('/');
  storage::FileDisk epoch_dir(
      slash == std::string::npos
          ? "."
          : epoch_path.substr(0, std::max<size_t>(slash, 1)));
  storage::EpochStore epochs(epoch_dir, epoch_path.substr(slash + 1));
  engine.set_epoch_store(&epochs);
  transport.bind(engine);
  daemon::Daemon daemon(pid, engine);
  transport.set_deliver([&daemon](const protocol::Delivery& d) {
    daemon.on_delivery(d);
  });
  transport.set_config([&daemon](const protocol::ConfigurationChange& c) {
    daemon.on_configuration(c);
  });
  daemon::IpcServer ipc(daemon, loop, argv[3]);

  // Static ring from the config file (all daemons must be started; dynamic
  // discovery is a one-line change: engine.start_discovery()).
  protocol::RingConfig ring;
  ring.ring_id = membership::make_ring_id(1, 0);
  for (const auto& [member_pid, addr] : config->peers) {
    ring.members.push_back(member_pid);
  }
  engine.start_with_ring(ring);

  std::printf("daemon %u up: %zu-member ring, %s protocol, ipc at %s\n",
              unsigned{pid}, config->peers.size(),
              config->proto.variant == protocol::Variant::kAccelerated
                  ? "accelerated"
                  : "original",
              argv[3]);
  std::printf("daemon %u data path: %s\n", unsigned{pid},
              transport.data_path().c_str());
  std::fflush(stdout);
  loop.run_for(util::sec(duration));

  const auto& stats = engine.stats();
  std::printf(
      "daemon %u exiting: rounds=%llu initiated=%llu delivered=%llu "
      "retransmitted=%llu\n",
      unsigned{pid}, static_cast<unsigned long long>(stats.tokens_handled),
      static_cast<unsigned long long>(stats.initiated),
      static_cast<unsigned long long>(stats.delivered_agreed +
                                      stats.delivered_safe),
      static_cast<unsigned long long>(stats.retransmitted));
  return 0;
}
