// The daemon: Spread's client-daemon architecture (paper §I, §III-D).
//
// One daemon per machine embeds the ordering engine and serves local client
// sessions. Clients join groups, send to groups (open-group semantics), and
// receive ordered messages and membership views. The daemon wires the
// engine's delivery/configuration callbacks into the group layer and fans
// results out to sessions.
//
// Overload protection: client sends are absorbed into bounded per-session
// ingress queues whenever the engine's own send queue is near its flow
// control limit, drained in round-robin as the ring makes progress. A
// session whose queue fills past the high-water mark receives an explicit
// SLOWDOWN notification (EventOp::kSlowdown on the wire) and sheds further
// sends until it drains — bounded memory under any client behaviour, with
// the slowest clients penalized first instead of the whole daemon.
//
// The daemon is transport-agnostic: it hangs off whatever Host the engine
// was built with (simulator or real UDP), so the same class backs the
// simulated benchmarks, the in-process examples, and a real deployment.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>

#include "daemon/ipc.hpp"
#include "groups/group_layer.hpp"
#include "obs/metrics.hpp"
#include "protocol/engine.hpp"

namespace accelring::daemon {

using ClientId = uint32_t;

/// One connected client session and its callbacks.
struct Session {
  std::string name;
  /// (group, sender name, service, payload)
  std::function<void(const std::string&, const std::string&, Service,
                     std::span<const std::byte>)>
      on_message;
  std::function<void(const groups::GroupView&)> on_view;
  /// Backpressure notification: true = slow down (the daemon is queuing or
  /// shedding this session's sends), false = resume.
  std::function<void(bool slowed)> on_flow;
  /// Ring membership changed (regular or transitional configuration).
  std::function<void(const protocol::ConfigurationChange&)> on_membership;
};

/// Backpressure tuning.
struct DaemonConfig {
  /// Max queued sends per session before shedding (and SLOWDOWN).
  size_t session_queue_limit = 256;
};

struct DaemonStats {
  uint64_t slowdowns = 0;     ///< SLOWDOWN notifications sent
  uint64_t resumes = 0;       ///< RESUME notifications sent
  uint64_t shed = 0;          ///< sends dropped: session queue full
  uint64_t queued_sends = 0;  ///< sends that took the queue path
  size_t queue_peak = 0;      ///< high-water mark of any session queue
};

/// Observation points for the overload-protection path (all optional; see
/// obs/metrics.hpp for the zero-perturbation contract). queue_depth tracks
/// total queued sends across sessions with a peak watermark; enqueue_depth
/// is the distribution of the enqueueing session's queue depth at each
/// queued send (how deep backpressure typically runs before draining).
struct DaemonMetrics {
  obs::Gauge* queue_depth = nullptr;
  obs::Histogram* enqueue_depth = nullptr;

  [[nodiscard]] static DaemonMetrics bind(obs::MetricsRegistry& registry);
};

class Daemon {
 public:
  /// The engine must outlive the daemon. Route the engine's Host deliver
  /// and config callbacks to on_delivery() and on_configuration() so
  /// deliveries reach us (examples/spread_daemon.cpp does this).
  Daemon(protocol::ProcessId pid, protocol::Engine& engine,
         DaemonConfig config = {});

  // --- host-side wiring ------------------------------------------------------
  /// Feed an engine delivery (install as the Host's deliver callback).
  void on_delivery(const protocol::Delivery& delivery);
  /// Feed a configuration change.
  void on_configuration(const protocol::ConfigurationChange& change);

  // --- client session management ---------------------------------------------
  ClientId connect(Session session);
  void disconnect(ClientId client);

  bool join(ClientId client, const std::string& group);
  bool leave(ClientId client, const std::string& group);
  /// Multi-group multicast: ordered across groups (paper §I). Returns false
  /// only when the send was *shed* (session queue full); a queued send
  /// returns true and goes out as the ring drains.
  bool send(ClientId client, const std::vector<std::string>& groups,
            Service service, std::vector<std::byte> payload);

  /// Handle a serialized IPC request frame; returns the serialized events
  /// generated synchronously (for socket-based clients / tests). Ordered
  /// messages flow back later through sessions' callbacks.
  std::optional<DaemonEvent> handle_request(std::span<const std::byte> frame);

  [[nodiscard]] const groups::GroupLayer& group_layer() const {
    return layer_;
  }
  [[nodiscard]] protocol::ProcessId pid() const { return pid_; }
  [[nodiscard]] size_t session_count() const { return sessions_.size(); }
  [[nodiscard]] const DaemonStats& stats() const { return stats_; }
  /// Attach observation points (see DaemonMetrics).
  void set_metrics(const DaemonMetrics& metrics) { metrics_ = metrics; }
  /// Queued (not yet submitted) sends for one session; 0 if unknown client.
  [[nodiscard]] size_t queued(ClientId client) const {
    const auto it = sessions_.find(client);
    return it == sessions_.end() ? 0 : it->second.queue.size();
  }

 private:
  struct PendingSend {
    std::vector<std::string> groups;
    Service service = Service::kAgreed;
    std::vector<std::byte> payload;
  };
  struct SessionState {
    Session session;
    std::deque<PendingSend> queue;
    bool slowed = false;
  };

  /// Engine send-queue occupancy at or above the drain-pause line?
  [[nodiscard]] bool overloaded() const;
  /// Round-robin drain of session queues into the engine, then RESUME
  /// notifications for drained sessions once occupancy is low again.
  void pump();
  void set_slowed(SessionState& state, bool slowed);

  protocol::ProcessId pid_;
  protocol::Engine& engine_;
  DaemonConfig config_;
  groups::GroupLayer layer_;
  std::map<ClientId, SessionState> sessions_;
  ClientId next_client_ = 1;
  DaemonStats stats_;
  DaemonMetrics metrics_;
};

}  // namespace accelring::daemon
