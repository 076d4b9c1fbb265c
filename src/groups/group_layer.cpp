#include "groups/group_layer.hpp"

#include <algorithm>
#include <set>

#include "util/bytes.hpp"

namespace accelring::groups {

namespace {

void write_member(util::Writer& w, const Member& m) {
  w.u16(m.daemon);
  w.u32(m.client);
  w.str(m.name);
}

Member read_member(util::Reader& r) {
  Member m;
  m.daemon = r.u16();
  m.client = r.u32();
  m.name = r.str();
  return m;
}

}  // namespace

std::vector<std::byte> encode(const GroupMsg& msg) {
  util::Writer w(64 + msg.payload.size());
  w.u8(static_cast<uint8_t>(msg.op));
  write_member(w, msg.origin);
  w.u8(static_cast<uint8_t>(msg.groups.size()));
  for (const auto& g : msg.groups) w.str(g);
  w.bytes(msg.payload);
  return std::move(w).take();
}

std::optional<GroupMsg> decode_group(std::span<const std::byte> packet) {
  util::Reader r(packet);
  GroupMsg msg;
  const uint8_t op = r.u8();
  if (op < 1 || op > 3) return std::nullopt;
  msg.op = static_cast<GroupOp>(op);
  msg.origin = read_member(r);
  const uint8_t n = r.u8();
  for (uint8_t i = 0; i < n && r.ok(); ++i) msg.groups.push_back(r.str());
  msg.payload = util::to_vector(r.bytes());
  if (!r.done()) return std::nullopt;
  return msg;
}

bool GroupLayer::submit_for_group(std::string_view group, Service service,
                                  std::vector<std::byte> payload) {
  if (keyed_submit_) return keyed_submit_(group, service, std::move(payload));
  return submits_[0](service, std::move(payload));
}

bool GroupLayer::join(uint32_t client, const std::string& name,
                      const std::string& group) {
  GroupMsg msg;
  msg.op = GroupOp::kJoin;
  msg.origin = Member{self_, client, name};
  msg.groups = {group};
  return submit_for_group(group, Service::kAgreed, encode(msg));
}

bool GroupLayer::leave(uint32_t client, const std::string& name,
                       const std::string& group) {
  GroupMsg msg;
  msg.op = GroupOp::kLeave;
  msg.origin = Member{self_, client, name};
  msg.groups = {group};
  return submit_for_group(group, Service::kAgreed, encode(msg));
}

bool GroupLayer::send(uint32_t client, const std::string& name,
                      const std::vector<std::string>& target_groups,
                      Service service, std::vector<std::byte> payload) {
  if (target_groups.empty() || target_groups.size() > 255) return false;
  GroupMsg msg;
  msg.op = GroupOp::kAppMessage;
  msg.origin = Member{self_, client, name};
  msg.groups = target_groups;
  msg.payload = std::move(payload);
  // Multi-group sends route by the lowest destination name so every sender
  // picks the same ring for the same group set; the deterministic merge
  // fixes the message's position relative to the other rings' traffic.
  const std::string& anchor =
      *std::min_element(target_groups.begin(), target_groups.end());
  return submit_for_group(anchor, service, encode(msg));
}

bool GroupLayer::disconnect(uint32_t client, const std::string& name) {
  GroupMsg msg;
  msg.op = GroupOp::kLeave;
  msg.origin = Member{self_, client, name};
  // Empty group list means "leave everything". The client may hold
  // memberships sharded across every ring, so fan the leave-all out to all
  // of them (GroupSet::drop_client is idempotent).
  bool ok = true;
  for (const SubmitFn& submit : submits_) {
    ok = submit(Service::kAgreed, encode(msg)) && ok;
  }
  return ok;
}

void GroupLayer::on_delivery(const protocol::Delivery& delivery) {
  const auto msg = decode_group(delivery.payload);
  if (!msg) return;
  switch (msg->op) {
    case GroupOp::kJoin: {
      if (msg->groups.size() != 1) return;
      if (auto view = set_.join(msg->groups[0], msg->origin)) {
        emit_view(*view);
      }
      break;
    }
    case GroupOp::kLeave: {
      if (msg->groups.empty()) {
        emit_views(set_.drop_client(msg->origin.daemon, msg->origin.client));
      } else if (auto view = set_.leave(msg->groups[0], msg->origin)) {
        emit_view(*view);
      }
      break;
    }
    case GroupOp::kAppMessage: {
      // Resolve local recipients: each local client receives one copy even
      // if it belongs to several destination groups (multi-group multicast).
      std::set<uint32_t> seen;
      for (const std::string& group : msg->groups) {
        for (const Member& m : set_.members_of(group)) {
          if (m.daemon != self_) continue;
          if (!seen.insert(m.client).second) continue;
          if (on_message_) {
            on_message_(m.client, group, msg->origin.name, delivery.service,
                        msg->payload);
          }
        }
      }
      break;
    }
  }
}

void GroupLayer::on_configuration(const protocol::ConfigurationChange& change) {
  if (change.transitional) return;
  std::set<protocol::ProcessId> alive(change.config.members.begin(),
                                      change.config.members.end());
  emit_views(set_.retain_daemons(alive));
}

void GroupLayer::emit_views(const std::vector<GroupView>& views) {
  for (const GroupView& v : views) emit_view(v);
}

void GroupLayer::emit_view(const GroupView& view) {
  if (!on_view_) return;
  for (const Member& m : view.members) {
    if (m.daemon == self_) on_view_(m.client, view);
  }
}

}  // namespace accelring::groups
