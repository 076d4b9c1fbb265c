#include "daemon/config_file.hpp"

#include <charconv>
#include <fstream>
#include <limits>
#include <sstream>
#include <vector>

namespace accelring::daemon {

namespace {

std::vector<std::string> tokenize(std::string_view line) {
  std::vector<std::string> tokens;
  std::string current;
  for (char c : line) {
    if (c == '#') break;  // comment until end of line
    if (c == ' ' || c == '\t' || c == '\r') {
      if (!current.empty()) {
        tokens.push_back(std::move(current));
        current.clear();
      }
    } else {
      current.push_back(c);
    }
  }
  if (!current.empty()) tokens.push_back(std::move(current));
  return tokens;
}

template <typename T>
bool parse_number(const std::string& s, T& out) {
  const auto [ptr, ec] =
      std::from_chars(s.data(), s.data() + s.size(), out);
  return ec == std::errc{} && ptr == s.data() + s.size();
}

/// Store `value` in `field` if it fits the field's type.
template <typename T>
bool store(uint64_t value, T& field) {
  if (value > static_cast<uint64_t>(std::numeric_limits<T>::max())) {
    return false;
  }
  field = static_cast<T>(value);
  return true;
}

/// Store a 0/1 switch.
bool store(uint64_t value, bool& field) {
  if (value > 1) return false;
  field = value == 1;
  return true;
}

/// Store `value` units of `unit` ns if the product fits util::Nanos.
bool store_duration(uint64_t value, util::Nanos unit, util::Nanos& field) {
  if (value > static_cast<uint64_t>(std::numeric_limits<util::Nanos>::max() /
                                    unit)) {
    return false;
  }
  field = static_cast<util::Nanos>(value) * unit;
  return true;
}

/// Apply one `option` line; returns an error message, empty on success.
std::string apply_option(const std::string& key, uint64_t value,
                         protocol::ProtocolConfig& proto) {
  protocol::Timeouts& t = proto.timeouts;
  bool fits = false;
  if (key == "personal_window") {
    fits = store(value, proto.personal_window);
  } else if (key == "global_window") {
    fits = store(value, proto.global_window);
  } else if (key == "accelerated_window") {
    fits = store(value, proto.accelerated_window);
  } else if (key == "max_seq_gap") {
    fits = store(value, proto.max_seq_gap);
  } else if (key == "max_pending") {
    fits = store(value, proto.max_pending);
  } else if (key == "token_retransmit_timeout_ms") {
    fits = store_duration(value, util::kMillisecond, t.token_retransmit);
  } else if (key == "token_loss_timeout_ms") {
    fits = store_duration(value, util::kMillisecond, t.token_loss);
  } else if (key == "join_timeout_ms") {
    fits = store_duration(value, util::kMillisecond, t.join);
  } else if (key == "consensus_timeout_ms") {
    fits = store_duration(value, util::kMillisecond, t.consensus);
  } else if (key == "idle_token_hold_us") {
    fits = store_duration(value, util::kMicrosecond, t.idle_token_hold);
  } else if (key == "packing") {
    fits = store(value, proto.enable_packing);
  } else if (key == "packing_budget") {
    fits = store(value, proto.packing_budget);
  } else if (key == "auto_tune") {
    fits = store(value, proto.auto_tune);
  } else if (key == "adaptive_timeouts") {
    fits = store(value, proto.adaptive_timeouts);
  } else {
    return "unknown option: " + key;
  }
  if (!fits) return "option " + key + " out of range: " + std::to_string(value);
  return {};
}

}  // namespace

std::optional<DeploymentConfig> parse_config_text(std::string_view text,
                                                  ConfigError& error) {
  DeploymentConfig config;
  int line_number = 0;
  std::istringstream stream{std::string(text)};
  std::string line;
  while (std::getline(stream, line)) {
    ++line_number;
    const auto tokens = tokenize(line);
    if (tokens.empty()) continue;
    const std::string& directive = tokens[0];

    if (directive == "daemon") {
      if (tokens.size() != 5) {
        error = {line_number, "daemon needs: pid ip data_port token_port"};
        return std::nullopt;
      }
      uint32_t pid = 0;
      uint32_t data_port = 0;
      uint32_t token_port = 0;
      if (!parse_number(tokens[1], pid) || pid > 0xFFFE) {
        error = {line_number, "bad daemon pid: " + tokens[1]};
        return std::nullopt;
      }
      if (!parse_number(tokens[3], data_port) || data_port > 65535 ||
          !parse_number(tokens[4], token_port) || token_port > 65535) {
        error = {line_number, "bad port"};
        return std::nullopt;
      }
      const auto id = static_cast<protocol::ProcessId>(pid);
      if (config.peers.contains(id)) {
        error = {line_number, "duplicate daemon pid: " + tokens[1]};
        return std::nullopt;
      }
      config.peers[id] = transport::PeerAddress{
          tokens[2], static_cast<uint16_t>(data_port),
          static_cast<uint16_t>(token_port)};
    } else if (directive == "protocol") {
      if (tokens.size() != 2 ||
          (tokens[1] != "accelerated" && tokens[1] != "original")) {
        error = {line_number, "protocol must be 'accelerated' or 'original'"};
        return std::nullopt;
      }
      config.proto.variant = tokens[1] == "original"
                                 ? protocol::Variant::kOriginal
                                 : protocol::Variant::kAccelerated;
    } else if (directive == "option") {
      uint64_t value = 0;
      if (tokens.size() != 3 || !parse_number(tokens[2], value)) {
        error = {line_number, "option needs: name numeric_value"};
        return std::nullopt;
      }
      std::string problem = apply_option(tokens[1], value, config.proto);
      if (!problem.empty()) {
        error = {line_number, std::move(problem)};
        return std::nullopt;
      }
    } else {
      error = {line_number, "unknown directive: " + directive};
      return std::nullopt;
    }
  }
  if (config.peers.empty()) {
    error = {line_number, "no daemons defined"};
    return std::nullopt;
  }
  return config;
}

std::optional<DeploymentConfig> load_config_file(const std::string& path,
                                                 ConfigError& error) {
  std::ifstream file(path);
  if (!file) {
    error = {0, "cannot open " + path};
    return std::nullopt;
  }
  std::stringstream buffer;
  buffer << file.rdbuf();
  return parse_config_text(buffer.str(), error);
}

}  // namespace accelring::daemon
