#include "daemon/daemon.hpp"

#include <algorithm>

namespace accelring::daemon {

namespace {

/// Engine occupancy, as fractions of its max_pending: stop draining session
/// queues into the engine at kHighWater, and send RESUME once occupancy
/// falls back to kLowWater.
constexpr double kHighWater = 0.75;
constexpr double kLowWater = 0.50;

}  // namespace

DaemonMetrics DaemonMetrics::bind(obs::MetricsRegistry& registry) {
  DaemonMetrics m;
  m.queue_depth = &registry.gauge("daemon", "queue_depth");
  m.enqueue_depth = &registry.histogram("daemon", "enqueue_depth");
  return m;
}

Daemon::Daemon(protocol::ProcessId pid, protocol::Engine& engine,
               DaemonConfig config)
    : pid_(pid), engine_(engine), config_(config), layer_(pid, engine) {
  layer_.set_on_message([this](uint32_t client, const std::string& group,
                               const std::string& sender, Service service,
                               std::span<const std::byte> payload) {
    const auto it = sessions_.find(client);
    if (it == sessions_.end() || !it->second.session.on_message) return;
    it->second.session.on_message(group, sender, service, payload);
  });
  layer_.set_on_view([this](uint32_t client, const groups::GroupView& view) {
    const auto it = sessions_.find(client);
    if (it == sessions_.end() || !it->second.session.on_view) return;
    it->second.session.on_view(view);
  });
}

void Daemon::on_delivery(const protocol::Delivery& delivery) {
  layer_.on_delivery(delivery);
  // Every delivery implies ring progress, which implies engine send-queue
  // drain: the natural moment to move queued client sends forward.
  pump();
}

void Daemon::on_configuration(const protocol::ConfigurationChange& change) {
  layer_.on_configuration(change);
  for (auto& [id, state] : sessions_) {
    if (state.session.on_membership) state.session.on_membership(change);
  }
  pump();
}

ClientId Daemon::connect(Session session) {
  const ClientId id = next_client_++;
  SessionState state;
  state.session = std::move(session);
  sessions_.emplace(id, std::move(state));
  return id;
}

void Daemon::disconnect(ClientId client) {
  const auto it = sessions_.find(client);
  if (it == sessions_.end()) return;
  if (metrics_.queue_depth != nullptr) {
    metrics_.queue_depth->add(-static_cast<int64_t>(it->second.queue.size()));
  }
  layer_.disconnect(client, it->second.session.name);
  sessions_.erase(it);
}

bool Daemon::join(ClientId client, const std::string& group) {
  const auto it = sessions_.find(client);
  if (it == sessions_.end()) return false;
  return layer_.join(client, it->second.session.name, group);
}

bool Daemon::leave(ClientId client, const std::string& group) {
  const auto it = sessions_.find(client);
  if (it == sessions_.end()) return false;
  return layer_.leave(client, it->second.session.name, group);
}

bool Daemon::overloaded() const {
  const auto limit = static_cast<double>(engine_.config().max_pending);
  return static_cast<double>(engine_.pending()) >= kHighWater * limit;
}

bool Daemon::send(ClientId client, const std::vector<std::string>& groups,
                  Service service, std::vector<std::byte> payload) {
  const auto it = sessions_.find(client);
  if (it == sessions_.end()) return false;
  SessionState& state = it->second;

  // Fast path: nothing queued for this session (ordering would invert
  // otherwise) and the engine has room. The submit can still fail on the
  // engine's own limit, so attempt with a copy and fall through to the
  // queue on refusal.
  if (state.queue.empty() && !overloaded()) {
    if (layer_.send(client, state.session.name, groups, service,
                    std::vector<std::byte>(payload))) {
      return true;
    }
  }

  if (state.queue.size() >= config_.session_queue_limit) {
    ++stats_.shed;
    set_slowed(state, true);
    return false;
  }
  state.queue.push_back(PendingSend{groups, service, std::move(payload)});
  ++stats_.queued_sends;
  stats_.queue_peak = std::max(stats_.queue_peak, state.queue.size());
  if (metrics_.queue_depth != nullptr) metrics_.queue_depth->add(1);
  if (metrics_.enqueue_depth != nullptr) {
    metrics_.enqueue_depth->record(static_cast<int64_t>(state.queue.size()));
  }
  if (state.queue.size() > config_.session_queue_limit / 2) {
    set_slowed(state, true);
  }
  return true;
}

void Daemon::pump() {
  bool progress = true;
  while (progress && !overloaded()) {
    progress = false;
    for (auto& [id, state] : sessions_) {
      if (state.queue.empty()) continue;
      PendingSend& next = state.queue.front();
      if (!layer_.send(id, state.session.name, next.groups, next.service,
                       std::vector<std::byte>(next.payload))) {
        // The engine refused below our high-water estimate (flow control
        // tightened mid-round); try again on the next delivery.
        progress = false;
        break;
      }
      state.queue.pop_front();
      if (metrics_.queue_depth != nullptr) metrics_.queue_depth->add(-1);
      progress = true;
      if (overloaded()) break;
    }
  }
  // RESUME only once the engine is comfortably below the pause line, so a
  // session is not flapped between slow and resumed every round.
  const auto limit = static_cast<double>(engine_.config().max_pending);
  if (static_cast<double>(engine_.pending()) > kLowWater * limit) {
    return;
  }
  for (auto& [id, state] : sessions_) {
    if (state.slowed && state.queue.empty()) set_slowed(state, false);
  }
}

void Daemon::set_slowed(SessionState& state, bool slowed) {
  if (state.slowed == slowed) return;
  state.slowed = slowed;
  if (slowed) {
    ++stats_.slowdowns;
  } else {
    ++stats_.resumes;
  }
  if (state.session.on_flow) state.session.on_flow(slowed);
}

std::optional<DaemonEvent> Daemon::handle_request(
    std::span<const std::byte> frame) {
  const auto req = decode_request(frame);
  if (!req) return std::nullopt;
  switch (req->op) {
    case RequestOp::kConnect: {
      Session session;
      session.name = req->name;
      const ClientId id = connect(std::move(session));
      DaemonEvent ev;
      ev.op = EventOp::kConnected;
      ev.client = id;
      return ev;
    }
    case RequestOp::kJoin:
      if (!req->groups.empty()) join(req->client, req->groups[0]);
      return std::nullopt;
    case RequestOp::kLeave:
      if (!req->groups.empty()) leave(req->client, req->groups[0]);
      return std::nullopt;
    case RequestOp::kSend:
      send(req->client, req->groups, req->service, req->payload);
      return std::nullopt;
    case RequestOp::kDisconnect:
      disconnect(req->client);
      return std::nullopt;
  }
  return std::nullopt;
}

}  // namespace accelring::daemon
