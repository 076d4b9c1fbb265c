// Tests for the related-work baseline protocols (paper §V): the
// fixed-sequencer (JGroups-style) and the U-Ring-Paxos-style protocol.
// Both must provide total order, completeness, and loss recovery on the
// same simulated substrate as the ring protocols.
#include <gtest/gtest.h>

#include "baselines/baseline_cluster.hpp"
#include "baselines/sequencer.hpp"
#include "baselines/uring_paxos.hpp"
#include "util/bytes.hpp"

namespace accelring::baselines {
namespace {

std::vector<std::byte> payload(const std::string& s) {
  return util::to_vector(util::as_bytes(s));
}

std::string text(std::span<const std::byte> bytes) {
  return {reinterpret_cast<const char*>(bytes.data()), bytes.size()};
}

template <typename Cluster>
std::vector<std::vector<std::pair<uint16_t, std::string>>> drive(
    Cluster& cluster, int nodes, int messages, double loss = 0.0,
    int64_t run_ms = 2000) {
  cluster.net().set_loss_rate(loss);
  std::vector<std::vector<std::pair<uint16_t, std::string>>> log(nodes);
  cluster.set_on_deliver(
      [&log](int node, const protocol::Delivery& d, protocol::Nanos) {
        log[node].emplace_back(d.sender, text(d.payload));
      });
  for (int i = 0; i < messages; ++i) {
    cluster.eq().schedule(
        util::usec(100) + i * util::usec(50), [&cluster, i, nodes] {
          cluster.submit(i % nodes, payload("m" + std::to_string(i)));
        });
  }
  cluster.run_until(util::msec(run_ms));
  return log;
}

// --------------------------------------------------------------------------
// Sequencer
// --------------------------------------------------------------------------

using SeqCluster = BaselineCluster<SequencerProtocol, SequencerConfig>;

TEST(Sequencer, TotalOrderAndCompleteness) {
  SeqCluster cluster(5, simnet::FabricParams::one_gig(), {}, 3);
  const auto log = drive(cluster, 5, 100);
  for (int n = 0; n < 5; ++n) {
    ASSERT_EQ(log[n].size(), 100u) << "node " << n;
    EXPECT_EQ(log[n], log[0]) << "node " << n;
  }
  // Exactly one process assigned sequence numbers.
  EXPECT_EQ(cluster.protocol_at(0).stats().ordered, 100u);
  EXPECT_EQ(cluster.protocol_at(1).stats().ordered, 0u);
}

TEST(Sequencer, NonSequencerSendersForward) {
  SeqCluster cluster(3, simnet::FabricParams::one_gig(), {});
  const auto log = drive(cluster, 3, 30);
  ASSERT_EQ(log[0].size(), 30u);
  EXPECT_GT(cluster.protocol_at(1).stats().forwarded, 0u);
  EXPECT_EQ(cluster.protocol_at(0).stats().forwarded, 0u);  // orders directly
}

TEST(Sequencer, RecoversFromLoss) {
  SeqCluster cluster(4, simnet::FabricParams::one_gig(), {}, 11);
  const auto log = drive(cluster, 4, 200, /*loss=*/0.02, /*run_ms=*/4000);
  uint64_t retransmitted = cluster.protocol_at(0).stats().retransmitted;
  for (int n = 0; n < 4; ++n) {
    ASSERT_EQ(log[n].size(), 200u) << "node " << n;
    EXPECT_EQ(log[n], log[0]);
  }
  EXPECT_GT(retransmitted, 0u);
}

TEST(Sequencer, SenderWindowBackpressure) {
  SequencerConfig cfg;
  cfg.sender_window = 5;
  cfg.max_pending = 100;
  SeqCluster cluster(2, simnet::FabricParams::one_gig(), cfg);
  // Burst more than the window; everything still arrives (queued + windowed).
  const auto log = drive(cluster, 2, 50);
  ASSERT_EQ(log[0].size(), 50u);
  ASSERT_EQ(log[1].size(), 50u);
}

TEST(Sequencer, PerSenderFifoPreserved) {
  SeqCluster cluster(4, simnet::FabricParams::one_gig(), {}, 13);
  const auto log = drive(cluster, 4, 120, 0.01, 4000);
  ASSERT_EQ(log[0].size(), 120u);
  // Message "m<i>" from sender i%4: indexes per sender must increase.
  std::map<uint16_t, int> last;
  for (const auto& [sender, body] : log[0]) {
    const int index = std::stoi(body.substr(1));
    const auto it = last.find(sender);
    if (it != last.end()) {
      EXPECT_GT(index, it->second);
    }
    last[sender] = index;
  }
}

TEST(Sequencer, MeasuredPointCarriesLightLoad) {
  // The shared fixed-rate runner: well below saturation, the observer sees
  // the whole offered load.
  const harness::PointResult r =
      run_baseline_point<SequencerProtocol, SequencerConfig>(
          simnet::FabricParams::one_gig(), 100.0);
  EXPECT_EQ(r.offered_mbps, 100.0);
  EXPECT_NEAR(r.achieved_mbps, 100.0, 5.0);
  EXPECT_GT(r.messages, 0u);
  EXPECT_GT(r.mean_latency, 0);
}

// --------------------------------------------------------------------------
// U-Ring Paxos
// --------------------------------------------------------------------------

using URingCluster = BaselineCluster<URingProtocol, URingConfig>;

TEST(URing, TotalOrderAndCompleteness) {
  URingCluster cluster(5, simnet::FabricParams::one_gig(), {}, 5);
  const auto log = drive(cluster, 5, 100);
  for (int n = 0; n < 5; ++n) {
    ASSERT_EQ(log[n].size(), 100u) << "node " << n;
    EXPECT_EQ(log[n], log[0]) << "node " << n;
  }
  EXPECT_GT(cluster.protocol_at(0).stats().decided, 0u);
}

TEST(URing, BatchesAmortize) {
  URingConfig cfg;
  cfg.batch_max_msgs = 16;
  URingCluster cluster(4, simnet::FabricParams::one_gig(), cfg, 7);
  const auto log = drive(cluster, 4, 160);
  ASSERT_EQ(log[0].size(), 160u);
  // Batching means far fewer consensus instances than messages.
  EXPECT_LT(cluster.protocol_at(0).stats().batches, 120u);
}

TEST(URing, NonCoordinatorsForwardValues) {
  URingCluster cluster(3, simnet::FabricParams::one_gig(), {});
  const auto log = drive(cluster, 3, 30);
  ASSERT_EQ(log[2].size(), 30u);
  EXPECT_GT(cluster.protocol_at(1).stats().forwarded, 0u);
  EXPECT_EQ(cluster.protocol_at(0).stats().forwarded, 0u);
}

TEST(URing, RecoversFromLoss) {
  URingCluster cluster(4, simnet::FabricParams::one_gig(), {}, 17);
  const auto log = drive(cluster, 4, 150, /*loss=*/0.02, /*run_ms=*/5000);
  for (int n = 0; n < 4; ++n) {
    ASSERT_EQ(log[n].size(), 150u) << "node " << n;
    EXPECT_EQ(log[n], log[0]);
  }
}

TEST(URing, MajorityPositionAcks) {
  // With 5 members, position 3 (index 2) is the majority voter; the
  // coordinator decides only after its ack, so decided lags batches by the
  // time to reach it.
  URingCluster cluster(5, simnet::FabricParams::one_gig(), {});
  const auto log = drive(cluster, 5, 20);
  ASSERT_EQ(log[4].size(), 20u);
  EXPECT_EQ(cluster.protocol_at(0).stats().decided,
            cluster.protocol_at(0).stats().batches);
}

}  // namespace
}  // namespace accelring::baselines
