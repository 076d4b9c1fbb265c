// Protocol safety oracles: always-on observers that attach to a running
// SimCluster (and, for multi-ring runs, a RingSet) and check the paper's
// correctness properties on the delivery streams as they happen.
//
// ClusterOracle watches one ring's cluster and asserts, per node and across
// nodes, the Extended Virtual Synchrony delivery contract (§II):
//
//  * Agreed order is gapless: within one regular configuration, deliveries
//    advance one step at a time over (seq, part) — the next part of the same
//    packed message, or part 0 of the next sequence number.
//  * No duplicates: within one configuration (seq, part) strictly increases,
//    so a re-delivery is caught even when it is not adjacent to the first
//    (a packed [A, B] delivered as A B A B).
//  * Deliveries are bracketed by configurations: every message arrives under
//    the regular configuration of its ring, or under the transitional
//    configuration that follows it (where holes are permitted but order must
//    still advance).
//  * Prefix-consistent total order: any two nodes' delivery streams for one
//    ring agree on the relative order of every message they both delivered,
//    and their regular (pre-transitional) portions are exact prefixes of one
//    another.
//  * Transitional agreement: nodes that install the same transitional
//    configuration deliver exactly the same messages, in the same order, in
//    it.
//  * Virtual-synchrony configuration sanity: a node appears in every
//    configuration delivered to it, the transitional membership is a subset
//    of both the old and the new regular membership, and two nodes that
//    install the same regular ring id saw identical member lists.
//  * Self-delivery: every message a node submitted comes back to it, unless
//    the node crashed or the engine rejected the submit under backpressure.
//
// MergedOracle watches the K-ring merged streams and asserts that any two
// nodes' merged total orders are prefixes of each other whenever their
// per-ring inputs are prefix-related (the merge is deterministic over its
// inputs). When a component ring's membership split under faults — EVS
// views legitimately deliver different messages to different sides — the
// interleavings may differ, and the oracle falls back to content-order
// consistency: messages both nodes emitted from one ring must appear in
// the same relative order.
//
// Oracles never throw: violations accumulate with enough context to debug
// from the report alone, and the campaign runner (campaign.hpp) attaches the
// failing seed and schedule.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "harness/cluster.hpp"
#include "protocol/types.hpp"

namespace accelring::multiring {
class RingSet;
}  // namespace accelring::multiring

namespace accelring::check {

using protocol::Nanos;

/// One failed safety property, in human-readable form.
struct Violation {
  std::string what;
};

class ClusterOracle {
 public:
  /// `label` prefixes every violation (e.g. "ring 2" in multi-ring runs).
  explicit ClusterOracle(int num_nodes, std::string label = "");

  /// Subscribe to a cluster's delivery and configuration streams. The oracle
  /// must outlive the cluster's run.
  void attach(harness::SimCluster& cluster);

  // Direct feeds, used by attach() and by unit tests that replay
  // hand-crafted histories.
  void on_deliver(int node, const protocol::Delivery& delivery);
  void on_config(int node, const protocol::ConfigurationChange& change);

  /// The workload submitted message `index` at `node` (stamped into the
  /// payload); finalize() checks it came back unless waived.
  void note_submit(int node, uint32_t index);
  /// `node` was crashed: waive its self-delivery obligation.
  void note_crash(int node);
  /// `node` was cold-restarted: also waive self-delivery (pre-crash state,
  /// including rejected-submit counts, is gone).
  void note_restart(int node);

  /// Run the cross-node checks. Call once, after the run drained. `stats`
  /// (optional) supplies per-node submit_rejected counts for the
  /// self-delivery waiver.
  void finalize(const harness::ClusterStats* stats = nullptr);

  [[nodiscard]] bool ok() const { return violations_.empty(); }
  [[nodiscard]] const std::vector<Violation>& violations() const {
    return violations_;
  }
  /// All violations joined into one printable block (empty string when ok).
  [[nodiscard]] std::string report() const;

  /// Deliveries observed across all nodes (for sanity in tests).
  [[nodiscard]] uint64_t observed() const { return observed_; }

 private:
  /// One recorded delivery, reduced to its identity.
  struct Rec {
    protocol::RingId ring = 0;
    protocol::SeqNum seq = 0;
    uint32_t part = 0;  ///< Delivery::part
    protocol::ProcessId sender = protocol::kNoProcess;
    uint32_t hash = 0;  ///< crc32 of the payload
    [[nodiscard]] bool same_message(const Rec& o) const {
      return ring == o.ring && seq == o.seq && part == o.part &&
             sender == o.sender && hash == o.hash;
    }
  };
  /// Deliveries observed under one installed configuration.
  struct Seg {
    protocol::ConfigurationChange change;
    std::vector<Rec> recs;
  };
  struct NodeState {
    std::vector<Seg> segs;
    bool crashed = false;
    bool restarted = false;
    std::set<uint64_t> rings_installed;  ///< regular ring ids seen
    bool ring_reinstalled = false;       ///< same regular ring id twice
    std::set<uint32_t> expected;         ///< submitted message indices
    std::set<uint32_t> self_seen;        ///< ... that came back
  };

  void fail(std::string what);
  void check_order_pair(int a, int b);
  void check_transitional_groups();
  void check_configs();

  std::string label_;
  std::vector<NodeState> nodes_;
  std::set<protocol::RingId> reinstalled_;  ///< rings any node saw twice
  std::vector<Violation> violations_;
  uint64_t observed_ = 0;
  bool finalized_ = false;
};

class MergedOracle {
 public:
  explicit MergedOracle(int num_nodes);

  /// Subscribe to the ring set's merged streams (add_on_merged) and to each
  /// component ring's delivery stream (the merger's true inputs, including
  /// skip messages the merge consumes without emitting).
  void attach(multiring::RingSet& rings);

  void on_merged(int node, int ring, const protocol::Delivery& delivery);
  /// A component ring delivered to `node` (pre-merge input).
  void on_ring_delivery(int node, int ring,
                        const protocol::Delivery& delivery);

  /// Cross-node prefix check over the merged streams. Call once after drain.
  void finalize();

  [[nodiscard]] bool ok() const { return violations_.empty(); }
  [[nodiscard]] const std::vector<Violation>& violations() const {
    return violations_;
  }
  [[nodiscard]] std::string report() const;
  [[nodiscard]] uint64_t observed() const { return observed_; }

 private:
  struct MRec {
    int ring = -1;
    protocol::SeqNum seq = 0;
    uint32_t part = 0;
    protocol::ProcessId sender = protocol::kNoProcess;
    uint32_t hash = 0;
    [[nodiscard]] bool operator==(const MRec&) const = default;
  };
  /// A pre-merge input record; carries the ring id so view changes within a
  /// component ring register as input divergence.
  struct IRec {
    protocol::RingId ring_id = 0;
    protocol::SeqNum seq = 0;
    uint32_t part = 0;
    protocol::ProcessId sender = protocol::kNoProcess;
    uint32_t hash = 0;
    [[nodiscard]] bool operator==(const IRec&) const = default;
  };

  void fail(std::string what);

  std::vector<std::vector<MRec>> streams_;  // per node
  /// Per node, per ring index: the merger's input stream (empty when the
  /// oracle was fed via on_merged only, e.g. in unit tests).
  std::vector<std::map<int, std::vector<IRec>>> inputs_;
  std::vector<Violation> violations_;
  uint64_t observed_ = 0;
};

/// One report block: the violations, one per line.
[[nodiscard]] std::string join_reports(const std::vector<Violation>& violations);

}  // namespace accelring::check
