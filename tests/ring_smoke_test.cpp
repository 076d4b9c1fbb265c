// End-to-end smoke tests: full clusters on the simulated fabric, checking
// delivery completeness and total order for both protocol variants.
#include <gtest/gtest.h>

#include <map>
#include <tuple>

#include "delivery_order.hpp"
#include "harness/cluster.hpp"
#include "harness/workload.hpp"

namespace accelring::harness {
namespace {

using protocol::Service;
using protocol::Variant;

struct DeliveryLog {
  // Per node: (sender, seq, part) in delivery order.
  std::vector<std::vector<std::tuple<uint16_t, protocol::SeqNum, uint32_t>>>
      per_node;

  explicit DeliveryLog(int nodes) : per_node(nodes) {}

  void attach(SimCluster& cluster) {
    cluster.set_on_deliver(
        [this](int node, const protocol::Delivery& d, Nanos) {
          per_node[node].emplace_back(d.sender, d.seq, d.part);
        });
  }
};

using SmokeParam = std::tuple<Variant, Service, ImplProfile>;

class RingSmokeTest : public ::testing::TestWithParam<SmokeParam> {};

std::string smoke_name(const ::testing::TestParamInfo<SmokeParam>& info) {
  const Variant variant = std::get<0>(info.param);
  const Service service = std::get<1>(info.param);
  const ImplProfile profile = std::get<2>(info.param);
  std::string name =
      variant == Variant::kOriginal ? "original" : "accelerated";
  name += service == Service::kAgreed ? "_agreed" : "_safe";
  name += "_";
  name += profile_name(profile);
  return name;
}

TEST_P(RingSmokeTest, AllMessagesDeliveredInIdenticalOrder) {
  const auto [variant, service, profile] = GetParam();
  protocol::ProtocolConfig cfg;
  cfg.variant = variant;
  const int kNodes = 8;
  SimCluster cluster(kNodes, simnet::FabricParams::one_gig(), cfg, profile,
                     /*seed=*/3);
  DeliveryLog log(kNodes);
  log.attach(cluster);
  cluster.start_static();

  // Every node sends 25 messages.
  const int kPerNode = 25;
  for (int round = 0; round < kPerNode; ++round) {
    for (int node = 0; node < kNodes; ++node) {
      cluster.eq().schedule(
          util::usec(100) + round * util::usec(200), [&cluster, node, service,
                                                      round] {
            PayloadStamp stamp{cluster.eq().now(),
                               static_cast<uint32_t>(node),
                               static_cast<uint32_t>(round)};
            cluster.submit(node, service, make_payload(64, stamp));
          });
    }
  }
  cluster.run_until(util::sec(2));

  // Completeness: every node delivered every message exactly once.
  for (int node = 0; node < kNodes; ++node) {
    EXPECT_EQ(log.per_node[node].size(),
              static_cast<size_t>(kNodes * kPerNode))
        << "node " << node;
  }
  // Total order: all delivery sequences are identical.
  for (int node = 1; node < kNodes; ++node) {
    EXPECT_EQ(log.per_node[node], log.per_node[0]) << "node " << node;
  }
  // Gap-free (seq, part) in delivery order.
  std::vector<protocol::SeqPart> order;
  for (const auto& [sender, seq, part] : log.per_node[0]) {
    order.emplace_back(seq, part);
  }
  EXPECT_TRUE(protocol::gap_free(order));
}

INSTANTIATE_TEST_SUITE_P(
    VariantsServicesProfiles, RingSmokeTest,
    ::testing::Combine(::testing::Values(Variant::kOriginal,
                                         Variant::kAccelerated),
                       ::testing::Values(Service::kAgreed, Service::kSafe),
                       ::testing::Values(ImplProfile::kLibrary,
                                         ImplProfile::kDaemon,
                                         ImplProfile::kSpread)),
    smoke_name);

TEST(RingSmoke, TwoNodeRingWorks) {
  protocol::ProtocolConfig cfg;
  SimCluster cluster(2, simnet::FabricParams::one_gig(), cfg,
                     ImplProfile::kLibrary);
  DeliveryLog log(2);
  log.attach(cluster);
  cluster.start_static();
  for (int i = 0; i < 10; ++i) {
    cluster.eq().schedule(util::usec(50 + i * 100), [&cluster, i] {
      PayloadStamp stamp{cluster.eq().now(), 0, static_cast<uint32_t>(i)};
      cluster.submit(i % 2, Service::kAgreed, make_payload(100, stamp));
    });
  }
  cluster.run_until(util::sec(1));
  EXPECT_EQ(log.per_node[0].size(), 10u);
  EXPECT_EQ(log.per_node[0], log.per_node[1]);
}

TEST(RingSmoke, AcceleratedSurvivesRandomLoss) {
  protocol::ProtocolConfig cfg;
  cfg.variant = Variant::kAccelerated;
  SimCluster cluster(8, simnet::FabricParams::one_gig(), cfg,
                     ImplProfile::kLibrary, /*seed=*/11);
  cluster.net().set_loss_rate(0.02);
  DeliveryLog log(8);
  log.attach(cluster);
  cluster.start_static();
  for (int i = 0; i < 200; ++i) {
    cluster.eq().schedule(util::usec(100 + i * 50), [&cluster, i] {
      PayloadStamp stamp{cluster.eq().now(), static_cast<uint32_t>(i % 8),
                         static_cast<uint32_t>(i)};
      cluster.submit(i % 8, Service::kAgreed, make_payload(200, stamp));
    });
  }
  cluster.run_until(util::sec(3));
  for (int node = 0; node < 8; ++node) {
    EXPECT_EQ(log.per_node[node].size(), 200u) << "node " << node;
    EXPECT_EQ(log.per_node[node], log.per_node[0]);
  }
  // Loss actually happened and was repaired via retransmissions.
  uint64_t retrans = 0;
  for (int i = 0; i < 8; ++i) {
    retrans += cluster.engine(i).stats().retransmitted;
  }
  EXPECT_GT(retrans, 0u);
}

TEST(RingSmoke, SelfDeliveryIncluded) {
  protocol::ProtocolConfig cfg;
  SimCluster cluster(4, simnet::FabricParams::one_gig(), cfg,
                     ImplProfile::kLibrary);
  DeliveryLog log(4);
  log.attach(cluster);
  cluster.start_static();
  cluster.eq().schedule(util::usec(100), [&cluster] {
    PayloadStamp stamp{cluster.eq().now(), 2, 0};
    cluster.submit(2, Service::kAgreed, make_payload(64, stamp));
  });
  cluster.run_until(util::sec(1));
  // The sender itself delivers its own message.
  ASSERT_EQ(log.per_node[2].size(), 1u);
  EXPECT_EQ(std::get<0>(log.per_node[2][0]), 2);
}

}  // namespace
}  // namespace accelring::harness
