// Deployment configuration files (spread.conf-style).
//
// A daemon deployment is described by a small text file listing the ring
// members and protocol options:
//
//     # comments and blank lines are ignored
//     daemon 0 127.0.0.1 4803 4804      # pid ip data_port token_port
//     daemon 1 127.0.0.1 4805 4806
//     protocol accelerated               # or: original
//     option personal_window 20
//     option accelerated_window 15
//     option token_loss_timeout_ms 100
//
// parse_config_text() works on a string (unit-testable); load_config_file()
// reads from disk. Errors carry line numbers. An option value must fit its
// field: a window no larger than the field's type, a timeout whose
// nanoseconds fit util::Nanos, a switch of 0 or 1.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <string_view>

#include "protocol/types.hpp"
#include "transport/udp_transport.hpp"

namespace accelring::daemon {

struct DeploymentConfig {
  std::map<protocol::ProcessId, transport::PeerAddress> peers;
  protocol::ProtocolConfig proto;
};

struct ConfigError {
  int line = 0;
  std::string message;
};

/// Parse configuration text; on failure returns nullopt and fills `error`.
[[nodiscard]] std::optional<DeploymentConfig> parse_config_text(
    std::string_view text, ConfigError& error);

/// Read and parse a configuration file.
[[nodiscard]] std::optional<DeploymentConfig> load_config_file(
    const std::string& path, ConfigError& error);

}  // namespace accelring::daemon
