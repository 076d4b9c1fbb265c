// End-to-end KV service tests over a SimCluster: replicated puts/gets with
// oracle checking, the lease fast path, and restart recovery via chunked
// state transfer (snapshot + retained suffix, not full replay).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "check/kv_oracle.hpp"
#include "harness/cluster.hpp"
#include "kv/service.hpp"

namespace accelring::kv {
namespace {

using check::KvOracle;
using harness::ImplProfile;
using harness::SimCluster;

protocol::ProtocolConfig fast_cfg() {
  protocol::ProtocolConfig cfg;
  cfg.timeouts.token_loss = util::msec(30);
  cfg.timeouts.join = util::msec(5);
  cfg.timeouts.consensus = util::msec(60);
  return cfg;
}

/// Issues a scripted op sequence for one session, chaining each op off the
/// completion of the previous one (the session protocol's one-in-flight
/// rule), and collects every outcome.
struct ScriptedSession {
  KvService* service = nullptr;
  int node = 0;
  uint64_t uuid = 0;
  uint64_t next_seq = 0;
  std::vector<KvOp> script;
  size_t cursor = 0;
  uint64_t min_version = 0;  ///< version floor from the last acked write
  std::vector<Frontend::Outcome> outcomes;

  void start(Nanos at) {
    service->eq().schedule(at, [this] { issue_next(); });
  }

  void issue_next() {
    if (cursor >= script.size()) return;
    const KvOp& op = script[cursor++];
    const bool ok = service->frontend(node).issue(
        uuid, ++next_seq, op, is_mutation(op.type) ? 0 : min_version,
        [this](const Frontend::Outcome& outcome) {
          outcomes.push_back(outcome);
          if (is_mutation(outcome.type)) min_version = outcome.version;
          // Small gap before the next op; completion order still serial.
          service->eq().schedule_after(util::msec(2),
                                      [this] { issue_next(); });
        });
    ASSERT_TRUE(ok) << "session " << uuid << " had an op in flight";
    arm_watchdog(next_seq);
  }

  /// Ops shed or lost around view changes are resubmitted; the session
  /// dedup floor makes any duplicate harmless.
  void arm_watchdog(uint64_t seq_token) {
    service->eq().schedule_after(util::msec(60), [this, seq_token] {
      if (next_seq == seq_token && service->frontend(node).in_flight(uuid)) {
        service->frontend(node).retry(uuid);
        arm_watchdog(seq_token);
      }
    });
  }
};

KvOp put_op(std::string key, std::string value) {
  KvOp op;
  op.type = OpType::kPut;
  op.key = std::move(key);
  op.value = std::move(value);
  return op;
}

KvOp get_op(std::string key) {
  KvOp op;
  op.type = OpType::kGet;
  op.key = std::move(key);
  return op;
}

TEST(KvService, ReplicatedPutsAndGetsConvergeUnderOracle) {
  SimCluster cluster(3, simnet::FabricParams::one_gig(), fast_cfg(),
                     ImplProfile::kLibrary, 101);
  ServiceConfig cfg;
  KvService service(cluster, cfg);
  KvOracle oracle;
  oracle.attach(service);
  cluster.start_static();

  std::vector<ScriptedSession> sessions(6);
  for (int s = 0; s < 6; ++s) {
    sessions[s].service = &service;
    sessions[s].node = s % 3;
    sessions[s].uuid = 100 + s;
    for (int i = 0; i < 8; ++i) {
      const std::string key = "k" + std::to_string((s * 8 + i) % 10);
      sessions[s].script.push_back(put_op(key, "v" + std::to_string(i)));
      sessions[s].script.push_back(get_op(key));
    }
    sessions[s].start(util::msec(20) + s * util::msec(1));
  }
  cluster.run_until(util::sec(2));
  oracle.finalize();

  EXPECT_TRUE(oracle.ok()) << oracle.report();
  for (auto& session : sessions) {
    EXPECT_EQ(session.outcomes.size(), session.script.size())
        << "session " << session.uuid << " lost ops";
  }
  // All three machines agree.
  for (int n = 1; n < 3; ++n) {
    EXPECT_EQ(service.machine(n, 0).version(),
              service.machine(0, 0).version());
    EXPECT_EQ(service.machine(n, 0).snapshot(),
              service.machine(0, 0).snapshot());
  }
  // Read-your-writes: every get reflects a state at least as new as the
  // session's preceding put.
  for (auto& session : sessions) {
    for (size_t i = 1; i < session.outcomes.size(); i += 2) {
      const auto& get = session.outcomes[i];
      ASSERT_EQ(get.type, OpType::kGet);
      EXPECT_EQ(get.result.status, Status::kOk);
      EXPECT_GE(get.version, session.outcomes[i - 1].version);
    }
  }
}

TEST(KvService, LeaseHolderServesReadsLocally) {
  SimCluster cluster(3, simnet::FabricParams::one_gig(), fast_cfg(),
                     ImplProfile::kLibrary, 103);
  ServiceConfig cfg;
  KvService service(cluster, cfg);
  KvOracle oracle;
  oracle.attach(service);
  cluster.start_static();

  // One write to seed the key, then repeated reads from every node.
  ScriptedSession writer;
  writer.service = &service;
  writer.uuid = 500;
  writer.script.push_back(put_op("hot", "x"));
  writer.start(util::msec(20));

  std::vector<ScriptedSession> readers(3);
  for (int n = 0; n < 3; ++n) {
    readers[n].service = &service;
    readers[n].node = n;
    readers[n].uuid = 600 + n;
    for (int i = 0; i < 30; ++i) readers[n].script.push_back(get_op("hot"));
    // Start well after the first lease grant has been ordered.
    readers[n].start(util::msec(120));
  }
  cluster.run_until(util::sec(2));
  oracle.finalize();
  EXPECT_TRUE(oracle.ok()) << oracle.report();

  EXPECT_GT(service.stats().grants_applied, 0u);
  // Exactly one node (the designated holder of shard 0's view) serves its
  // reads under the lease; the others go through the total order.
  int lease_nodes = 0;
  uint64_t lease_reads = 0;
  for (int n = 0; n < 3; ++n) {
    const auto& st = service.frontend(n).stats();
    if (st.lease_reads > 0) ++lease_nodes;
    lease_reads += st.lease_reads;
  }
  EXPECT_EQ(lease_nodes, 1);
  EXPECT_GE(lease_reads, 25u);
  EXPECT_EQ(oracle.lease_serves(), lease_reads);

  // Lease-served reads still saw the committed value.
  for (auto& reader : readers) {
    for (const auto& outcome : reader.outcomes) {
      EXPECT_EQ(outcome.result.status, Status::kOk);
      EXPECT_EQ(outcome.result.value, "x");
    }
  }
}

TEST(KvService, LeaseRevokedOnViewChangeUntilRegrant) {
  SimCluster cluster(3, simnet::FabricParams::one_gig(), fast_cfg(),
                     ImplProfile::kLibrary, 107);
  ServiceConfig cfg;
  KvService service(cluster, cfg);
  KvOracle oracle;
  oracle.attach(service);
  cluster.start_static();

  ScriptedSession writer;
  writer.service = &service;
  writer.node = 1;
  writer.uuid = 700;
  writer.script.push_back(put_op("k", "v"));
  writer.start(util::msec(20));

  // Crash the designated holder (node 0) mid-run; the survivors must
  // re-grant among themselves and keep serving without stale reads.
  cluster.eq().schedule(util::msec(300), [&] {
    cluster.crash_node(0);
    service.on_crash(0);
  });
  std::vector<ScriptedSession> readers(2);
  for (int n = 0; n < 2; ++n) {
    readers[n].service = &service;
    readers[n].node = n + 1;
    readers[n].uuid = 800 + n;
    for (int i = 0; i < 100; ++i) readers[n].script.push_back(get_op("k"));
    readers[n].start(util::msec(150));
  }
  cluster.run_until(util::sec(3));
  oracle.finalize();

  EXPECT_TRUE(oracle.ok()) << oracle.report();
  EXPECT_GE(service.stats().grants_applied, 2u);
  // The surviving view {1, 2} designates node 1; its reads after the
  // handover are lease-served.
  EXPECT_GT(service.frontend(1).stats().lease_reads, 0u);
  for (auto& reader : readers) {
    EXPECT_EQ(reader.outcomes.size(), reader.script.size());
  }
}

TEST(KvService, RestartRecoversViaStateTransferNotFullReplay) {
  SimCluster cluster(3, simnet::FabricParams::one_gig(), fast_cfg(),
                     ImplProfile::kLibrary, 109);
  ServiceConfig cfg;
  cfg.replica.checkpoint_interval = 16;  // frequent checkpoints + compaction
  KvService service(cluster, cfg);
  KvOracle oracle;
  oracle.attach(service);
  cluster.start_static();

  // Phase 1: 120 writes, then crash node 2.
  std::vector<ScriptedSession> sessions(3);
  for (int s = 0; s < 3; ++s) {
    sessions[s].service = &service;
    sessions[s].node = s;
    sessions[s].uuid = 900 + s;
    for (int i = 0; i < 40; ++i) {
      sessions[s].script.push_back(
          put_op("k" + std::to_string(i % 12), "p1-" + std::to_string(i)));
    }
    sessions[s].start(util::msec(20));
  }
  cluster.eq().schedule(util::msec(400), [&] {
    cluster.crash_node(2);
    service.on_crash(2);
    oracle.note_restart(2);  // version floors reset with the node
  });
  // Phase 2: more traffic while node 2 is down, then restart it.
  ScriptedSession late;
  late.service = &service;
  late.uuid = 950;
  for (int i = 0; i < 30; ++i) {
    late.script.push_back(
        put_op("k" + std::to_string(i % 12), "p2-" + std::to_string(i)));
  }
  late.start(util::msec(450));
  cluster.eq().schedule(util::msec(900), [&] {
    cluster.restart_node(2);
    service.on_restart(2);
    oracle.note_restart(2);
  });
  cluster.run_until(util::sec(4));
  oracle.finalize();

  EXPECT_TRUE(oracle.ok()) << oracle.report();
  const auto& restarted = service.replica(2, 0).stats();
  const auto& veteran = service.replica(0, 0).stats();
  ASSERT_TRUE(service.replica(2, 0).initialized());
  EXPECT_GE(restarted.snapshots_restored, 1u);
  // The transfer landed the joiner at a checkpointed position: everything
  // before it arrived as state, not as replayed commands.
  EXPECT_GT(restarted.restore_position, 0u);
  EXPECT_LT(restarted.applied + restarted.suffix_replayed, veteran.applied)
      << "restart replayed (nearly) the full history instead of restoring "
         "a snapshot plus suffix";
  // Compaction kept the veterans' retained logs bounded.
  EXPECT_LE(service.replica(0, 0).retained_log_size(),
            cfg.replica.checkpoint_interval);
  // State converged.
  EXPECT_EQ(service.machine(2, 0).snapshot(), service.machine(0, 0).snapshot());
}

TEST(KvOracleRouting, KeyServedByTwoShardsIsAViolation) {
  // Direct feeds, no service: write outcomes touch no per-shard state, so
  // the routing check is all that judges them.
  auto put = [](uint64_t uuid, int shard, std::string key) {
    Frontend::Outcome outcome;
    outcome.uuid = uuid;
    outcome.seq = 1;
    outcome.type = OpType::kPut;
    outcome.shard = shard;
    outcome.key = std::move(key);
    outcome.version = 1;
    return outcome;
  };
  KvOracle oracle;
  oracle.on_outcome(0, put(1, 0, "a"));
  oracle.on_outcome(1, put(2, 0, "a"));  // same key, same shard: fine
  oracle.on_outcome(0, put(3, 1, "b"));  // another key on another shard
  EXPECT_TRUE(oracle.ok()) << oracle.report();

  oracle.on_outcome(2, put(4, 1, "a"));
  ASSERT_FALSE(oracle.ok());
  ASSERT_EQ(oracle.violations().size(), 1u);
  EXPECT_NE(oracle.violations()[0].what.find("rerouted shard 0 -> 1"),
            std::string::npos)
      << oracle.violations()[0].what;
}

}  // namespace
}  // namespace accelring::kv
