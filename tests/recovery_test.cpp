// Recovery edge cases: holes (messages no survivor holds), token loss
// without crashes, and cascaded failures during recovery itself.
#include <gtest/gtest.h>

#include "harness/cluster.hpp"
#include "harness/workload.hpp"
#include "protocol/wire.hpp"

namespace accelring::harness {
namespace {

using protocol::PacketType;
using protocol::Service;

protocol::ProtocolConfig fast_config() {
  protocol::ProtocolConfig cfg;
  cfg.timeouts.token_loss = util::msec(30);
  cfg.timeouts.join = util::msec(5);
  cfg.timeouts.consensus = util::msec(60);
  return cfg;
}

struct StreamLog {
  struct Event {
    bool config = false;
    bool transitional = false;
    uint32_t sender = 0;
    uint32_t index = 0;
  };
  std::vector<std::vector<Event>> per_node;

  explicit StreamLog(int n) : per_node(n) {}
  void attach(SimCluster& cluster) {
    cluster.set_on_deliver(
        [this](int node, const protocol::Delivery& d, protocol::Nanos) {
          PayloadStamp stamp;
          if (!parse_payload(d.payload, stamp)) return;
          per_node[node].push_back(Event{false, false, stamp.sender,
                                         stamp.index});
        });
    cluster.set_on_config(
        [this](int node, const protocol::ConfigurationChange& c) {
          per_node[node].push_back(Event{true, c.transitional, 0, 0});
        });
  }
  [[nodiscard]] std::vector<std::pair<uint32_t, uint32_t>> messages(
      int node) const {
    std::vector<std::pair<uint32_t, uint32_t>> out;
    for (const Event& e : per_node[node]) {
      if (!e.config) out.emplace_back(e.sender, e.index);
    }
    return out;
  }
};

TEST(RecoveryTest, HoleSkippedAfterTransitionalConfig) {
  const int kNodes = 4;
  SimCluster cluster(kNodes, simnet::FabricParams::one_gig(), fast_config(),
                     ImplProfile::kLibrary, 61);
  StreamLog log(kNodes);
  log.attach(cluster);
  cluster.start_static();

  // From t=20ms, every data packet node 3 multicasts is lost — including
  // its retransmission answers — so its message becomes a hole once it
  // crashes.
  bool filter_active = false;
  cluster.net().set_drop_filter(
      [&filter_active](int src, int, int, const std::vector<std::byte>& d) {
        return filter_active && src == 3 &&
               protocol::peek_type(d) == PacketType::kData;
      });
  cluster.eq().schedule(util::msec(20), [&] { filter_active = true; });

  // Background traffic from the survivors so sequence numbers keep growing
  // past the doomed message.
  for (int i = 0; i < 40; ++i) {
    cluster.eq().schedule(util::msec(2) + i * util::msec(1), [&cluster, i] {
      PayloadStamp stamp{cluster.eq().now(), static_cast<uint32_t>(i % 3),
                         static_cast<uint32_t>(i)};
      cluster.submit(i % 3, Service::kAgreed, make_payload(64, stamp));
    });
  }
  // The doomed message (sender 3, index 999): sequenced but never received.
  cluster.eq().schedule(util::msec(25), [&cluster] {
    PayloadStamp stamp{cluster.eq().now(), 3, 999};
    cluster.submit(3, Service::kAgreed, make_payload(64, stamp));
  });
  cluster.eq().schedule(util::msec(32),
                        [&] { cluster.net().set_host_down(3, true); });
  cluster.run_until(util::sec(3));

  // Survivors converge on a 3-member ring and identical streams.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(cluster.engine(i).operational()) << "node " << i;
    EXPECT_EQ(cluster.engine(i).ring().size(), 3u);
    EXPECT_EQ(log.messages(i).size(), 40u) << "node " << i;
    EXPECT_EQ(log.messages(i), log.messages(0)) << "node " << i;
  }
  // The doomed message is a hole: delivered nowhere.
  for (int i = 0; i < 3; ++i) {
    for (const auto& [sender, index] : log.messages(i)) {
      EXPECT_FALSE(sender == 3 && index == 999);
    }
  }
}

TEST(RecoveryTest, TokenLossReformsRingWithoutCrash) {
  const int kNodes = 4;
  SimCluster cluster(kNodes, simnet::FabricParams::one_gig(), fast_config(),
                     ImplProfile::kLibrary, 67);
  StreamLog log(kNodes);
  log.attach(cluster);
  cluster.start_static();

  // Eat every token (regular and commit) for 100 ms, longer than the warm
  // token-loss timeout plus its one back-off: the ring must detect the loss
  // and rebuild — with the same membership.
  bool eat_tokens = false;
  cluster.net().set_drop_filter(
      [&eat_tokens](int, int, int sock, const std::vector<std::byte>&) {
        return eat_tokens && sock == simnet::kTokenSocket;
      });
  cluster.eq().schedule(util::msec(20), [&] { eat_tokens = true; });
  cluster.eq().schedule(util::msec(120), [&] { eat_tokens = false; });

  for (int i = 0; i < 60; ++i) {
    cluster.eq().schedule(util::msec(2) + i * util::msec(2), [&cluster, i] {
      PayloadStamp stamp{cluster.eq().now(), static_cast<uint32_t>(i % 4),
                         static_cast<uint32_t>(i)};
      cluster.submit(i % 4, Service::kAgreed, make_payload(64, stamp));
    });
  }
  cluster.run_until(util::sec(3));

  uint64_t reconfigs = 0;
  for (int i = 0; i < kNodes; ++i) {
    ASSERT_TRUE(cluster.engine(i).operational()) << "node " << i;
    EXPECT_EQ(cluster.engine(i).ring().size(), static_cast<size_t>(kNodes));
    EXPECT_EQ(log.messages(i).size(), 60u) << "node " << i;
    EXPECT_EQ(log.messages(i), log.messages(0));
    reconfigs = std::max(reconfigs, cluster.engine(i).stats().memberships);
  }
  EXPECT_GE(reconfigs, 2u);  // initial + at least one reformation
}

TEST(RecoveryTest, CascadedCrashDuringRecovery) {
  const int kNodes = 5;
  SimCluster cluster(kNodes, simnet::FabricParams::one_gig(), fast_config(),
                     ImplProfile::kLibrary, 71);
  StreamLog log(kNodes);
  log.attach(cluster);
  cluster.start_static();

  for (int i = 0; i < 120; ++i) {
    cluster.eq().schedule(util::msec(2) + i * util::msec(2), [&cluster, i] {
      PayloadStamp stamp{cluster.eq().now(), static_cast<uint32_t>(i % 3),
                         static_cast<uint32_t>(i)};
      cluster.submit(i % 3, Service::kAgreed, make_payload(64, stamp));
    });
  }
  // First crash; the second lands while membership is still settling.
  cluster.eq().schedule(util::msec(50),
                        [&] { cluster.net().set_host_down(4, true); });
  cluster.eq().schedule(util::msec(88),
                        [&] { cluster.net().set_host_down(3, true); });
  cluster.run_until(util::sec(4));

  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(cluster.engine(i).operational()) << "node " << i;
    EXPECT_EQ(cluster.engine(i).ring().size(), 3u) << "node " << i;
    EXPECT_EQ(log.messages(i).size(), 120u) << "node " << i;
    EXPECT_EQ(log.messages(i), log.messages(0)) << "node " << i;
  }
}

TEST(RecoveryTest, SafeMessagesAcrossMembershipChange) {
  // Safe-service traffic spanning a crash: survivors deliver everything
  // consistently, with the transitional config separating what could be
  // confirmed under the old membership from what could not.
  const int kNodes = 4;
  SimCluster cluster(kNodes, simnet::FabricParams::one_gig(), fast_config(),
                     ImplProfile::kLibrary, 73);
  StreamLog log(kNodes);
  log.attach(cluster);
  cluster.start_static();

  for (int i = 0; i < 80; ++i) {
    cluster.eq().schedule(util::msec(2) + i * util::msec(1), [&cluster, i] {
      PayloadStamp stamp{cluster.eq().now(), static_cast<uint32_t>(i % 3),
                         static_cast<uint32_t>(i)};
      cluster.submit(i % 3, Service::kSafe, make_payload(64, stamp));
    });
  }
  cluster.eq().schedule(util::msec(40),
                        [&] { cluster.net().set_host_down(3, true); });
  cluster.run_until(util::sec(3));

  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(log.messages(i).size(), 80u) << "node " << i;
    EXPECT_EQ(log.messages(i), log.messages(0)) << "node " << i;
    // Full event streams (messages + configs interleaved) must also agree.
    ASSERT_EQ(log.per_node[i].size(), log.per_node[0].size());
    for (size_t k = 0; k < log.per_node[0].size(); ++k) {
      EXPECT_EQ(log.per_node[i][k].config, log.per_node[0][k].config);
      EXPECT_EQ(log.per_node[i][k].index, log.per_node[0][k].index);
    }
  }
}

TEST(RecoveryTest, PackedMessagesSplitWhenDeliveredInRecovery) {
  // Two packed Safe messages are in flight when node 2 drops off the ring,
  // so neither can become Safe in the old configuration: the survivors
  // deliver them during recovery, after the transitional configuration.
  // Each must still reach the application as its individual messages, in
  // the same order at both survivors.
  const int kNodes = 3;
  const uint32_t kPerSender = 8;
  protocol::ProtocolConfig cfg = fast_config();
  cfg.enable_packing = true;
  SimCluster cluster(kNodes, simnet::FabricParams::one_gig(), cfg,
                     ImplProfile::kLibrary, 29);

  struct Rec {
    uint32_t sender = 0;
    uint32_t index = 0;
    uint32_t part = 0;
    bool transitional = false;
    bool operator==(const Rec&) const = default;
  };
  std::vector<std::vector<Rec>> delivered(kNodes);
  std::vector<bool> in_transitional(kNodes, false);
  std::vector<int> unparsed(kNodes, 0);
  cluster.set_on_deliver(
      [&](int node, const protocol::Delivery& d, protocol::Nanos) {
        PayloadStamp stamp;
        if (d.payload.size() != 64 || !parse_payload(d.payload, stamp)) {
          ++unparsed[node];
          return;
        }
        delivered[node].push_back(
            Rec{stamp.sender, stamp.index, d.part, in_transitional[node]});
      });
  cluster.set_on_config(
      [&](int node, const protocol::ConfigurationChange& c) {
        in_transitional[node] = c.transitional;
      });

  // From node 0's first packed multicast on, node 2 neither sends nor
  // receives anything: it never confirms the packed messages.
  bool cut = false;
  cluster.net().set_drop_filter(
      [&cut](int src, int dst, protocol::SocketId,
             const std::vector<std::byte>& d) {
        if (!cut && src == 0 && protocol::peek_type(d) == PacketType::kData) {
          const auto msg = protocol::decode_data(d);
          cut = msg && msg->packed;
        }
        return cut && (src == 2 || dst == 2);
      });
  cluster.start_static();
  cluster.eq().schedule(util::msec(2), [&cluster] {
    for (uint32_t sender = 0; sender < 2; ++sender) {
      for (uint32_t i = 0; i < kPerSender; ++i) {
        PayloadStamp stamp{cluster.eq().now(), sender, i};
        cluster.submit(static_cast<int>(sender), Service::kSafe,
                       make_payload(64, stamp));
      }
    }
  });
  cluster.run_until(util::sec(1));

  ASSERT_TRUE(cut);
  for (int node = 0; node < 2; ++node) {
    EXPECT_EQ(unparsed[node], 0) << "node " << node;
    ASSERT_EQ(delivered[node].size(), 2 * kPerSender) << "node " << node;
    EXPECT_EQ(delivered[node], delivered[0]) << "node " << node;
    // Per-sender FIFO, one delivery per submitted message.
    std::vector<uint32_t> next(2, 0);
    for (const Rec& r : delivered[node]) {
      ASSERT_LT(r.sender, 2u);
      EXPECT_EQ(r.index, next[r.sender]++) << "node " << node;
    }
  }
  // The path under test ran: packed parts delivered in the transitional
  // configuration.
  bool packed_in_recovery = false;
  for (const Rec& r : delivered[0]) {
    packed_in_recovery = packed_in_recovery || (r.transitional && r.part > 0);
  }
  EXPECT_TRUE(packed_in_recovery);
}

}  // namespace
}  // namespace accelring::harness
