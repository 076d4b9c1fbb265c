// Flight-recorder tests: the tracer itself, and trace-derived *ordering*
// properties of the protocol — most importantly the defining behaviour of
// the Accelerated Ring protocol: the token is passed before the round's
// multicasting completes, and never before its retransmissions.
#include <gtest/gtest.h>

#include "delivery_order.hpp"
#include "harness/cluster.hpp"
#include "harness/workload.hpp"
#include "util/trace.hpp"

namespace accelring::util {
namespace {

TEST(Tracer, RecordsInOrder) {
  Tracer tracer(8);
  for (int i = 0; i < 5; ++i) {
    tracer.record(i * 10, TraceEvent::kDeliver, i);
  }
  const auto records = tracer.snapshot();
  ASSERT_EQ(records.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(records[i].a, i);
  EXPECT_EQ(tracer.total_recorded(), 5u);
}

TEST(Tracer, WrapsAroundKeepingNewest) {
  Tracer tracer(4);
  for (int i = 0; i < 10; ++i) {
    tracer.record(i, TraceEvent::kDeliver, i);
  }
  const auto records = tracer.snapshot();
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records.front().a, 6);
  EXPECT_EQ(records.back().a, 9);
  EXPECT_EQ(tracer.total_recorded(), 10u);
}

TEST(Tracer, ClearResets) {
  Tracer tracer(4);
  tracer.record(1, TraceEvent::kTokenRx, 0);
  tracer.clear();
  EXPECT_TRUE(tracer.snapshot().empty());
  EXPECT_EQ(tracer.total_recorded(), 0u);
}

TEST(Tracer, DrainReturnsChronologicalOrderAndEmptiesTheBuffer) {
  Tracer tracer(4);
  for (int i = 0; i < 6; ++i) {
    tracer.record(i, TraceEvent::kDeliver, i);  // wraps: 2..5 survive
  }
  const auto records = tracer.drain();
  ASSERT_EQ(records.size(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(records[i].a, i + 2);
  EXPECT_TRUE(tracer.drain().empty());
  // total_recorded is cumulative across drains.
  EXPECT_EQ(tracer.total_recorded(), 6u);
  tracer.record(99, TraceEvent::kDeliver, 99);
  EXPECT_EQ(tracer.total_recorded(), 7u);
}

TEST(Tracer, RecordsDuringDrainIterationSurviveToTheNextDrain) {
  // Regression: drain() used to clear the buffer after handing out the
  // records, so a consumer whose processing re-entrantly recorded new
  // events (an oracle tracing its own checks) had them destroyed. The
  // buffer must be detached *before* the records are returned.
  Tracer tracer(8);
  for (int i = 0; i < 3; ++i) tracer.record(i, TraceEvent::kDeliver, i);
  const auto first = tracer.drain();
  ASSERT_EQ(first.size(), 3u);
  for (const auto& r : first) {
    // Consumer reacts to each drained record by recording a new one.
    tracer.record(100 + r.a, TraceEvent::kRtrAdd, 100 + r.a);
  }
  const auto second = tracer.drain();
  ASSERT_EQ(second.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(second[static_cast<size_t>(i)].event, TraceEvent::kRtrAdd);
    EXPECT_EQ(second[static_cast<size_t>(i)].a, 100 + i);
  }
  EXPECT_EQ(tracer.total_recorded(), 6u);
}

TEST(Tracer, DrainAfterWrapWithReentrantRecords) {
  // Wraparound plus re-entrant recording: the rotate happens on the
  // detached buffer, so the re-entrant record starts a fresh unwrapped one.
  Tracer tracer(3);
  for (int i = 0; i < 5; ++i) tracer.record(i, TraceEvent::kDeliver, i);
  std::vector<util::TraceRecord> drained;
  for (const auto& r : tracer.drain()) {
    drained.push_back(r);
    tracer.record(r.at, TraceEvent::kDataRx, r.a);
  }
  ASSERT_EQ(drained.size(), 3u);
  EXPECT_EQ(drained.front().a, 2);
  EXPECT_EQ(drained.back().a, 4);
  const auto echoed = tracer.drain();
  ASSERT_EQ(echoed.size(), 3u);
  for (size_t i = 0; i < echoed.size(); ++i) {
    EXPECT_EQ(echoed[i].event, TraceEvent::kDataRx);
    EXPECT_EQ(echoed[i].a, drained[i].a);
  }
}

}  // namespace
}  // namespace accelring::util

namespace accelring::harness {
namespace {

using util::TraceEvent;
using util::Tracer;

/// Run a loaded cluster with a tracer on node 1 and return its records.
/// Node 1's flight record; `delivered` (optional) receives node 1's
/// (seq, part) deliveries.
std::vector<util::TraceRecord> traced_run(
    protocol::Variant variant,
    std::vector<protocol::SeqPart>* delivered = nullptr) {
  protocol::ProtocolConfig cfg;
  cfg.variant = variant;
  cfg.accelerated_window = 10;
  cfg.personal_window = 20;
  SimCluster cluster(4, simnet::FabricParams::one_gig(), cfg,
                     ImplProfile::kLibrary, 5);
  Tracer tracer;
  cluster.engine(1).set_tracer(&tracer);
  if (delivered != nullptr) {
    cluster.set_on_deliver(
        [delivered](int node, const protocol::Delivery& d, protocol::Nanos) {
          if (node == 1) delivered->emplace_back(d.seq, d.part);
        });
  }
  cluster.start_static();
  for (int i = 0; i < 120; ++i) {
    cluster.eq().schedule(util::usec(100) + i * util::usec(30), [&cluster, i] {
      PayloadStamp stamp{cluster.eq().now(), static_cast<uint32_t>(i % 4),
                         static_cast<uint32_t>(i)};
      cluster.submit(i % 4, protocol::Service::kAgreed,
                     make_payload(600, stamp));
    });
  }
  cluster.run_until(util::msec(100));
  return tracer.snapshot();
}

TEST(ProtocolTrace, AcceleratedSendsAfterPassingTheToken) {
  const auto records = traced_run(protocol::Variant::kAccelerated);
  // The defining property: post-token data sends exist, and each one
  // follows the token send of its round (same timestamp order).
  uint64_t post = 0;
  protocol::Nanos last_token_tx = -1;
  for (const auto& r : records) {
    if (r.event == TraceEvent::kTokenTx) last_token_tx = r.at;
    if (r.event == TraceEvent::kDataTxPost) {
      ++post;
      ASSERT_GE(last_token_tx, 0);
      EXPECT_GE(r.at, last_token_tx);
    }
  }
  EXPECT_GT(post, 0u);
}

TEST(ProtocolTrace, OriginalNeverSendsAfterTheToken) {
  const auto records = traced_run(protocol::Variant::kOriginal);
  uint64_t pre = 0;
  for (const auto& r : records) {
    EXPECT_NE(r.event, TraceEvent::kDataTxPost);
    pre += r.event == TraceEvent::kDataTxPre ? 1 : 0;
  }
  EXPECT_GT(pre, 0u);
}

TEST(ProtocolTrace, RetransmissionsPrecedeTheTokenOfTheirRound) {
  // Force retransmissions with loss, then check every retransmission sits
  // between a token receive and the following token send.
  protocol::ProtocolConfig cfg;
  cfg.variant = protocol::Variant::kAccelerated;
  SimCluster cluster(4, simnet::FabricParams::one_gig(), cfg,
                     ImplProfile::kLibrary, 23);
  cluster.net().set_loss_rate(0.05);
  Tracer tracer;
  cluster.engine(1).set_tracer(&tracer);
  cluster.start_static();
  for (int i = 0; i < 200; ++i) {
    cluster.eq().schedule(util::usec(100) + i * util::usec(40), [&cluster, i] {
      PayloadStamp stamp{cluster.eq().now(), static_cast<uint32_t>(i % 4),
                         static_cast<uint32_t>(i)};
      cluster.submit(i % 4, protocol::Service::kAgreed,
                     make_payload(400, stamp));
    });
  }
  cluster.run_until(util::msec(300));

  const auto records = tracer.snapshot();
  bool in_token_handling = false;
  bool saw_retrans = false;
  protocol::Nanos token_rx_at = 0;
  for (const auto& r : records) {
    if (r.event == TraceEvent::kTokenRx) {
      in_token_handling = true;
      token_rx_at = r.at;
    } else if (r.event == TraceEvent::kTokenTx) {
      in_token_handling = false;
    } else if (r.event == TraceEvent::kRetransTx) {
      saw_retrans = true;
      // All retransmissions happen during token handling, before the pass.
      EXPECT_TRUE(in_token_handling);
      EXPECT_GE(r.at, token_rx_at);
    }
  }
  EXPECT_TRUE(saw_retrans);
}

TEST(ProtocolTrace, DeliveriesAreInSeqOrder) {
  std::vector<protocol::SeqPart> delivered;
  const auto records =
      traced_run(protocol::Variant::kAccelerated, &delivered);
  // One kDeliver per application message, carrying its seq (packed parts
  // repeat it), in the gap-free (seq, part) order the host saw.
  std::vector<int64_t> traced;
  for (const auto& r : records) {
    if (r.event == TraceEvent::kDeliver) traced.push_back(r.a);
  }
  ASSERT_EQ(delivered.size(), 120u);
  ASSERT_EQ(traced.size(), delivered.size());
  for (size_t i = 0; i < traced.size(); ++i) {
    EXPECT_EQ(traced[i], delivered[i].first) << "position " << i;
  }
  EXPECT_TRUE(protocol::gap_free(delivered));
}

TEST(ProtocolTrace, TokenAlternatesRxTx) {
  const auto records = traced_run(protocol::Variant::kAccelerated);
  int state = 0;  // 0 = expect rx, 1 = expect tx
  for (const auto& r : records) {
    if (r.event == TraceEvent::kTokenRx) {
      EXPECT_EQ(state, 0);
      state = 1;
    } else if (r.event == TraceEvent::kTokenTx) {
      EXPECT_EQ(state, 1);
      state = 0;
    }
  }
}

}  // namespace
}  // namespace accelring::harness
