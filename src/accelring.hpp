// Umbrella header for the accelring library.
//
// Pull in the pieces you need individually for faster builds; this header
// exists for quick experiments and the examples.
//
//   protocol::Engine        — the ordering protocol (Original/Accelerated)
//   protocol::Host          — environment interface the engine runs against
//   membership::Membership  — gather/commit/recover (owned by the engine)
//   transport::UdpTransport — real sockets;  transport::SimHost — simulator
//   transport::LoopbackRing — N engines on real sockets over loopback
//   daemon::Daemon/Client   — client-daemon architecture + groups
//   rsm::Replica            — replicated state machines on top
//   harness::SimCluster     — simulated clusters for tests and benchmarks
#pragma once

#include "daemon/client.hpp"
#include "daemon/config_file.hpp"
#include "daemon/daemon.hpp"
#include "daemon/ipc_server.hpp"
#include "groups/group_layer.hpp"
#include "harness/sweep.hpp"
#include "membership/membership.hpp"
#include "protocol/engine.hpp"
#include "rsm/replica.hpp"
#include "transport/loopback_ring.hpp"
#include "transport/sim_host.hpp"
#include "transport/udp_transport.hpp"
#include "util/trace.hpp"
