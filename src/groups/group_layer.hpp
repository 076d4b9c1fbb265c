// The Spread-style group communication layer.
//
// Sits between the ordering engine and client sessions. All group events
// (join, leave, application messages) travel as payloads of ordered engine
// messages, so every daemon applies them in the same total order and all
// daemons' group views agree — the classic trick of bootstrapping group
// membership consistency from totally ordered multicast.
//
// Provides the features the paper credits for Spread's production success
// (§I): descriptive group and sender names, open-group semantics (a sender
// need not be a member), many groups over one daemon set, and multi-group
// multicast with ordering guarantees across groups (one ordered message
// listing several destination groups is delivered at every daemon in the
// same position relative to all other messages, whatever groups they target).
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "groups/group_set.hpp"
#include "multiring/shard_map.hpp"
#include "protocol/engine.hpp"

namespace accelring::groups {

using protocol::Service;

/// Group-layer events carried inside ordered engine payloads.
enum class GroupOp : uint8_t {
  kAppMessage = 1,
  kJoin = 2,
  kLeave = 3,
};

struct GroupMsg {
  GroupOp op = GroupOp::kAppMessage;
  Member origin;                     ///< sending client (join/leave subject)
  std::vector<std::string> groups;   ///< destination groups (1+ for sends)
  std::vector<std::byte> payload;    ///< application data (kAppMessage only)
};

[[nodiscard]] std::vector<std::byte> encode(const GroupMsg& msg);
[[nodiscard]] std::optional<GroupMsg> decode_group(
    std::span<const std::byte> packet);

/// Per-daemon group logic. The daemon forwards engine deliveries and
/// configuration changes in; the layer calls back with what each local
/// client should see.
///
/// The layer can sit on a single ordered ring (the classic assembly) or on K
/// sharded rings merged deterministically (src/multiring): in multi-ring
/// mode the layer routes every group's events to the group's shard ring,
/// so a group stays internally ordered on one ring, while cross-group
/// positions are fixed — identically at every daemon — by the merge.
/// on_delivery must then be fed from the merged stream.
class GroupLayer {
 public:
  /// (local client id, view) — group membership notification.
  using ViewFn = std::function<void(uint32_t client, const GroupView& view)>;
  /// (local client id, group, sender name, service, payload).
  using MessageFn = std::function<void(
      uint32_t client, const std::string& group, const std::string& sender,
      Service service, std::span<const std::byte> payload)>;
  /// Submits one ordered message to a specific ring's stream.
  using SubmitFn = std::function<bool(Service, std::vector<std::byte>)>;

  /// Single-ring assembly: everything is ordered by one engine.
  GroupLayer(protocol::ProcessId self, protocol::Engine& engine)
      : self_(self), map_(1) {
    submits_.push_back([&engine](Service service,
                                 std::vector<std::byte> payload) {
      return engine.submit(service, std::move(payload));
    });
  }

  /// Multi-ring assembly: `ring_submits[i]` feeds ring i, and a group's
  /// events go to the ring the static shard map assigns its name (the same
  /// map every daemon builds from the ring count alone). Multi-group sends
  /// are keyed by the lowest destination group (deterministic whatever
  /// order the caller lists the groups); leave-all disconnects reach every
  /// ring.
  GroupLayer(protocol::ProcessId self, std::vector<SubmitFn> ring_submits)
      : self_(self),
        submits_(std::move(ring_submits)),
        map_(static_cast<int>(submits_.size())) {}

  void set_on_view(ViewFn fn) { on_view_ = std::move(fn); }
  void set_on_message(MessageFn fn) { on_message_ = std::move(fn); }

  // --- client-initiated operations (called by the daemon) -------------------
  bool join(uint32_t client, const std::string& name,
            const std::string& group);
  bool leave(uint32_t client, const std::string& name,
             const std::string& group);
  /// Open-group multi-group send (sender need not belong to any group).
  bool send(uint32_t client, const std::string& name,
            const std::vector<std::string>& groups, Service service,
            std::vector<std::byte> payload);
  /// Client disconnect: leave everything (driven locally by each daemon from
  /// the ordered stream via a leave-all message).
  bool disconnect(uint32_t client, const std::string& name);

  // --- engine-side events ----------------------------------------------------
  /// An ordered message was delivered by the engine.
  void on_delivery(const protocol::Delivery& delivery);
  /// A regular configuration was installed (drop members of dead daemons).
  void on_configuration(const protocol::ConfigurationChange& change);

  /// Local registry so the layer knows which local clients are in a group
  /// (receivers are resolved locally; remote clients are their own daemons'
  /// concern).
  [[nodiscard]] const GroupSet& groups() const { return set_; }

 private:
  void emit_views(const std::vector<GroupView>& views);
  void emit_view(const GroupView& view);
  /// Route by group name to its shard ring.
  bool submit_for_group(std::string_view group, Service service,
                        std::vector<std::byte> payload);

  protocol::ProcessId self_;
  std::vector<SubmitFn> submits_;  ///< one per ring
  multiring::ShardMap map_;        ///< group name -> index into submits_
  GroupSet set_;
  ViewFn on_view_;
  MessageFn on_message_;
};

}  // namespace accelring::groups
