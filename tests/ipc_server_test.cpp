// Tests for the out-of-process client path: AF_UNIX IPC server +
// RemoteClient over a real two-daemon UDP ring, plus the config parser.
#include "daemon/ipc_server.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <fstream>

#include "daemon/config_file.hpp"
#include "transport/loopback_ring.hpp"
#include "util/bytes.hpp"

namespace accelring::daemon {
namespace {

std::string unique_path(const char* tag) {
  return "/tmp/accelring-" + std::to_string(::getpid()) + "-" + tag + ".sock";
}

/// Two daemons over loopback UDP, each with an IPC server, one event loop.
struct TwoDaemonStack {
  transport::EventLoop loop;
  transport::LoopbackRing ring{loop, 2, protocol::ProtocolConfig{}};
  std::vector<std::unique_ptr<Daemon>> daemons;
  std::vector<std::unique_ptr<IpcServer>> ipc;

  TwoDaemonStack() {
    for (int i = 0; i < 2; ++i) {
      Daemon& d = *daemons.emplace_back(std::make_unique<Daemon>(
          static_cast<protocol::ProcessId>(i), ring.engine(i)));
      ring.set_deliver(i, [&d](const protocol::Delivery& delivery) {
        d.on_delivery(delivery);
      });
      ring.set_config(i, [&d](const protocol::ConfigurationChange& c) {
        d.on_configuration(c);
      });
      ipc.push_back(std::make_unique<IpcServer>(
          d, loop, unique_path(i == 0 ? "d0" : "d1")));
    }
    ring.start();
  }
};

TEST(IpcServerTest, RemoteClientsChatAcrossDaemons) {
  TwoDaemonStack stack;
  RemoteClient alice(stack.ipc[0]->socket_path(), "alice");
  RemoteClient bob(stack.ipc[1]->socket_path(), "bob");
  stack.loop.run_for(util::msec(100));
  ASSERT_TRUE(alice.complete_handshake());
  ASSERT_TRUE(bob.complete_handshake());
  EXPECT_EQ(stack.ipc[0]->connection_count(), 1u);

  ASSERT_TRUE(alice.join("room"));
  ASSERT_TRUE(bob.join("room"));
  stack.loop.run_for(util::msec(200));

  ASSERT_TRUE(
      alice.send({"room"}, Service::kAgreed,
                 util::to_vector(util::as_bytes("hello from outside"))));
  stack.loop.run_for(util::msec(300));

  // Both clients (including the sender) receive the ordered message, and
  // both saw membership views for the room.
  bool bob_got_message = false;
  for (const auto& ev : bob.poll_events()) {
    if (ev.op == EventOp::kMessage) {
      bob_got_message = true;
      EXPECT_EQ(ev.group, "room");
      EXPECT_EQ(ev.sender, "alice");
      EXPECT_EQ(std::string(reinterpret_cast<const char*>(ev.payload.data()),
                            ev.payload.size()),
                "hello from outside");
    }
  }
  bool alice_got_message = false;
  bool alice_saw_view = false;
  for (const auto& ev : alice.poll_events()) {
    alice_got_message = alice_got_message || ev.op == EventOp::kMessage;
    if (ev.op == EventOp::kView && ev.members.size() == 2) {
      alice_saw_view = true;
    }
  }
  EXPECT_TRUE(bob_got_message);
  EXPECT_TRUE(alice_got_message);
  EXPECT_TRUE(alice_saw_view);
}

TEST(IpcServerTest, DisconnectCleansUpSession) {
  TwoDaemonStack stack;
  {
    RemoteClient transient(stack.ipc[0]->socket_path(), "t");
    stack.loop.run_for(util::msec(100));
    ASSERT_TRUE(transient.complete_handshake());
    EXPECT_EQ(stack.daemons[0]->session_count(), 1u);
  }  // destructor sends kDisconnect and closes the socket
  stack.loop.run_for(util::msec(200));
  EXPECT_EQ(stack.daemons[0]->session_count(), 0u);
  EXPECT_EQ(stack.ipc[0]->connection_count(), 0u);
}

TEST(IpcServerTest, RequestsBeforeHandshakeRejectedClientSide) {
  TwoDaemonStack stack;
  RemoteClient c(stack.ipc[0]->socket_path(), "early");
  // Handshake response not yet consumed: the client refuses to send.
  EXPECT_FALSE(c.join("room"));
  stack.loop.run_for(util::msec(100));
  ASSERT_TRUE(c.complete_handshake());
  EXPECT_TRUE(c.join("room"));
}

// ---------------------------------------------------------------------------
// Config parser
// ---------------------------------------------------------------------------

TEST(ConfigFile, ParsesFullDeployment) {
  ConfigError error;
  const auto config = parse_config_text(R"(
# test deployment
daemon 0 127.0.0.1 4803 4804
daemon 1 10.0.0.2 4803 4804   # trailing comment
protocol accelerated
option personal_window 25
option accelerated_window 18
option token_loss_timeout_ms 250
option packing 1
)",
                                        error);
  ASSERT_TRUE(config.has_value()) << error.message;
  ASSERT_EQ(config->peers.size(), 2u);
  EXPECT_EQ(config->peers.at(1).ip, "10.0.0.2");
  EXPECT_EQ(config->peers.at(0).token_port, 4804);
  EXPECT_EQ(config->proto.variant, protocol::Variant::kAccelerated);
  EXPECT_EQ(config->proto.personal_window, 25u);
  EXPECT_EQ(config->proto.accelerated_window, 18u);
  EXPECT_EQ(config->proto.timeouts.token_loss, util::msec(250));
  EXPECT_TRUE(config->proto.enable_packing);
}

TEST(ConfigFile, OriginalProtocolSelectable) {
  ConfigError error;
  const auto config = parse_config_text(
      "daemon 0 127.0.0.1 1 2\nprotocol original\n", error);
  ASSERT_TRUE(config.has_value());
  EXPECT_EQ(config->proto.variant, protocol::Variant::kOriginal);
}

TEST(ConfigFile, ErrorsCarryLineNumbers) {
  ConfigError error;
  EXPECT_FALSE(parse_config_text("daemon 0 127.0.0.1 1 2\nbogus line\n",
                                 error)
                   .has_value());
  EXPECT_EQ(error.line, 2);

  EXPECT_FALSE(parse_config_text("daemon 0 127.0.0.1 1\n", error).has_value());
  EXPECT_EQ(error.line, 1);

  EXPECT_FALSE(
      parse_config_text("daemon 0 127.0.0.1 1 2\noption nope 5\n", error)
          .has_value());
  EXPECT_EQ(error.line, 2);

  EXPECT_FALSE(parse_config_text("# just a comment\n", error).has_value());
}

TEST(ConfigFile, RejectsDuplicatesAndBadNumbers) {
  ConfigError error;
  EXPECT_FALSE(parse_config_text(
                   "daemon 0 127.0.0.1 1 2\ndaemon 0 127.0.0.1 3 4\n", error)
                   .has_value());
  EXPECT_FALSE(
      parse_config_text("daemon x 127.0.0.1 1 2\n", error).has_value());
  EXPECT_FALSE(
      parse_config_text("daemon 0 127.0.0.1 99999 2\n", error).has_value());
}

/// Parse one deployment line plus `option`; expect a rejection on line 2.
void expect_option_rejected(const std::string& option) {
  ConfigError error;
  EXPECT_FALSE(
      parse_config_text("daemon 0 127.0.0.1 1 2\noption " + option + "\n",
                        error)
          .has_value())
      << option;
  EXPECT_EQ(error.line, 2) << option;
  EXPECT_NE(error.message.find("out of range"), std::string::npos)
      << option << ": " << error.message;
}

TEST(ConfigFile, RejectsOptionValuesThatDoNotFit) {
  // 2^32 would wrap a uint32_t window to 0.
  expect_option_rejected("personal_window 4294967296");
  expect_option_rejected("global_window 4294967296");
  expect_option_rejected("accelerated_window 4294967296");
  // 2^63 would turn the signed sequence gap negative.
  expect_option_rejected("max_seq_gap 9223372036854775808");
  // UINT64_MAX would become msec(-1), a negative timeout.
  expect_option_rejected("token_loss_timeout_ms 18446744073709551615");
  // Just above INT64_MAX / 1e6: the ms-to-ns product overflows int64_t.
  expect_option_rejected("token_retransmit_timeout_ms 9223372036855");
  expect_option_rejected("join_timeout_ms 9223372036855");
  expect_option_rejected("consensus_timeout_ms 9223372036855");
  expect_option_rejected("idle_token_hold_us 9223372036854776");
  expect_option_rejected("packing 2");
  expect_option_rejected("auto_tune 2");
}

TEST(ConfigFile, AcceptsOptionValuesAtTheirLimits) {
  ConfigError error;
  const auto config = parse_config_text(R"(daemon 0 127.0.0.1 1 2
option personal_window 4294967295
option max_seq_gap 9223372036854775807
option consensus_timeout_ms 9223372036854
option idle_token_hold_us 9223372036854775
)",
                                        error);
  ASSERT_TRUE(config.has_value()) << error.message;
  EXPECT_EQ(config->proto.personal_window, 4294967295u);
  EXPECT_EQ(config->proto.max_seq_gap, INT64_MAX);
  EXPECT_EQ(config->proto.timeouts.consensus, util::msec(9223372036854));
  EXPECT_EQ(config->proto.timeouts.idle_token_hold,
            util::usec(9223372036854775));
}

TEST(ConfigFile, LoadFromDisk) {
  const std::string path =
      "/tmp/accelring-conf-" + std::to_string(::getpid()) + ".conf";
  {
    std::ofstream out(path);
    out << "daemon 0 127.0.0.1 4000 4001\n";
  }
  ConfigError error;
  const auto config = load_config_file(path, error);
  ASSERT_TRUE(config.has_value());
  EXPECT_EQ(config->peers.size(), 1u);
  ::unlink(path.c_str());

  EXPECT_FALSE(load_config_file("/nonexistent/x.conf", error).has_value());
}

}  // namespace
}  // namespace accelring::daemon
