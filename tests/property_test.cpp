// Property-based tests: protocol invariants checked across a parameter
// sweep of variants, loss rates, window configurations, payload sizes, and
// PRNG seeds. Each run drives a full simulated cluster with mixed
// Agreed/Safe traffic and verifies:
//
//   1. Total order      — all nodes deliver identical sequences.
//   2. Gap-free         — delivered (seq, part) pairs advance one step at a
//                         time from (1, 0): packed messages share a seq.
//   3. Completeness     — every submitted message is delivered everywhere
//                         (liveness under loss).
//   4. Per-sender FIFO  — payload indexes from one sender never reorder.
//   5. Safe stability   — at the instant a Safe message is delivered
//                         anywhere, every other node has received it.
//   6. Self-delivery    — senders deliver their own messages.
#include <gtest/gtest.h>

#include <map>

#include "delivery_order.hpp"
#include "harness/cluster.hpp"
#include "harness/workload.hpp"

namespace accelring::harness {
namespace {

using protocol::SeqNum;
using protocol::Service;
using protocol::Variant;

struct PropertyParam {
  Variant variant;
  double loss_rate;
  uint32_t personal_window;
  uint32_t accel_window;
  size_t payload_size;
  uint64_t seed;
};

std::string param_name(const ::testing::TestParamInfo<PropertyParam>& info) {
  const PropertyParam& p = info.param;
  std::string name =
      p.variant == Variant::kOriginal ? "orig" : "accel";
  name += "_loss" + std::to_string(static_cast<int>(p.loss_rate * 1000));
  name += "_pw" + std::to_string(p.personal_window);
  name += "_aw" + std::to_string(p.accel_window);
  name += "_pl" + std::to_string(p.payload_size);
  name += "_s" + std::to_string(p.seed);
  return name;
}

class ProtocolProperties : public ::testing::TestWithParam<PropertyParam> {};

TEST_P(ProtocolProperties, InvariantsHold) {
  const PropertyParam param = GetParam();
  const int kNodes = 6;
  const int kMessages = 240;

  protocol::ProtocolConfig cfg;
  cfg.variant = param.variant;
  cfg.personal_window = param.personal_window;
  cfg.accelerated_window = param.accel_window;

  SimCluster cluster(kNodes, simnet::FabricParams::one_gig(), cfg,
                     ImplProfile::kLibrary, param.seed);
  cluster.net().set_loss_rate(param.loss_rate);

  struct Event {
    uint16_t sender;
    SeqNum seq;
    uint32_t part;
    uint32_t index;
    Service service;
  };
  std::vector<std::vector<Event>> log(kNodes);
  bool safe_stability_ok = true;

  cluster.set_on_deliver([&](int node, const protocol::Delivery& d,
                             protocol::Nanos) {
    PayloadStamp stamp;
    ASSERT_TRUE(parse_payload(d.payload, stamp));
    log[node].push_back(Event{d.sender, d.seq, d.part, stamp.index, d.service});
    if (requires_safe(d.service)) {
      // Stability: at this instant every node must have the message.
      for (int j = 0; j < kNodes; ++j) {
        safe_stability_ok =
            safe_stability_ok && cluster.engine(j).has_message(d.seq);
      }
    }
  });
  cluster.start_static();

  // Mixed Agreed/Safe traffic, random-ish senders (deterministic per seed).
  util::Rng rng(param.seed * 7919 + 13);
  for (int i = 0; i < kMessages; ++i) {
    const int sender = static_cast<int>(rng.below(kNodes));
    const Service service = rng.chance(0.3) ? Service::kSafe
                                            : Service::kAgreed;
    cluster.eq().schedule(
        util::usec(100) + i * util::usec(60), [&cluster, sender, service, i,
                                               &param] {
          PayloadStamp stamp{cluster.eq().now(),
                             static_cast<uint32_t>(sender),
                             static_cast<uint32_t>(i)};
          cluster.submit(sender, service,
                         make_payload(param.payload_size, stamp));
        });
  }
  cluster.run_until(util::sec(5));

  // 3. Completeness.
  for (int node = 0; node < kNodes; ++node) {
    ASSERT_EQ(log[node].size(), static_cast<size_t>(kMessages))
        << "node " << node << " incomplete";
  }
  // 1. Total order (identical streams).
  for (int node = 1; node < kNodes; ++node) {
    for (int k = 0; k < kMessages; ++k) {
      ASSERT_EQ(log[node][k].seq, log[0][k].seq)
          << "node " << node << " diverges at " << k;
      ASSERT_EQ(log[node][k].part, log[0][k].part);
      ASSERT_EQ(log[node][k].sender, log[0][k].sender);
    }
  }
  // 2. Gap-free.
  std::vector<protocol::SeqPart> order;
  for (const Event& e : log[0]) order.emplace_back(e.seq, e.part);
  EXPECT_TRUE(protocol::gap_free(order));
  // 4. Per-sender FIFO: indexes from each sender strictly increase.
  std::map<uint16_t, uint32_t> last_index;
  for (const Event& e : log[0]) {
    const auto it = last_index.find(e.sender);
    if (it != last_index.end()) {
      EXPECT_GT(e.index, it->second)
          << "sender " << e.sender << " reordered";
    }
    last_index[e.sender] = e.index;
  }
  // 5. Safe stability.
  EXPECT_TRUE(safe_stability_ok);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ProtocolProperties,
    ::testing::Values(
        // Clean fabric, both variants, default windows.
        PropertyParam{Variant::kOriginal, 0.0, 20, 0, 200, 1},
        PropertyParam{Variant::kAccelerated, 0.0, 20, 15, 200, 1},
        // Loss from light to heavy.
        PropertyParam{Variant::kAccelerated, 0.005, 20, 15, 200, 2},
        PropertyParam{Variant::kAccelerated, 0.02, 20, 15, 200, 3},
        PropertyParam{Variant::kAccelerated, 0.05, 20, 15, 200, 4},
        PropertyParam{Variant::kOriginal, 0.02, 20, 0, 200, 5},
        // Window extremes.
        PropertyParam{Variant::kAccelerated, 0.01, 1, 1, 200, 6},
        PropertyParam{Variant::kAccelerated, 0.01, 50, 50, 200, 7},
        PropertyParam{Variant::kAccelerated, 0.0, 4, 40, 200, 8},
        // Large payloads (fragmented datagrams) with loss.
        PropertyParam{Variant::kAccelerated, 0.01, 10, 8, 8850, 9},
        // Different seeds, mixed settings.
        PropertyParam{Variant::kAccelerated, 0.02, 20, 15, 1350, 10},
        PropertyParam{Variant::kAccelerated, 0.02, 20, 15, 1350, 11},
        PropertyParam{Variant::kAccelerated, 0.02, 20, 15, 1350, 12},
        PropertyParam{Variant::kOriginal, 0.01, 20, 0, 1350, 13},
        PropertyParam{Variant::kAccelerated, 0.03, 8, 30, 512, 14},
        PropertyParam{Variant::kAccelerated, 0.0, 20, 15, 16, 15}),
    param_name);

}  // namespace
}  // namespace accelring::harness
