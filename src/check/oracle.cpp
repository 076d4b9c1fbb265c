#include "check/oracle.hpp"

#include <algorithm>
#include <sstream>
#include <unordered_map>

#include "harness/workload.hpp"
#include "multiring/ring_set.hpp"
#include "util/crc32.hpp"

namespace accelring::check {
namespace {

std::string ring_str(protocol::RingId ring) {
  std::ostringstream os;
  os << "(" << (ring >> 16) << "," << (ring & 0xFFFF) << ")";
  return os.str();
}

std::string members_str(const std::vector<protocol::ProcessId>& members) {
  std::ostringstream os;
  os << "{";
  for (size_t i = 0; i < members.size(); ++i) {
    if (i) os << ",";
    os << members[i];
  }
  os << "}";
  return os.str();
}

bool is_subset(const std::vector<protocol::ProcessId>& sub,
               const std::vector<protocol::ProcessId>& super) {
  for (protocol::ProcessId p : sub) {
    if (std::find(super.begin(), super.end(), p) == super.end()) return false;
  }
  return true;
}

}  // namespace

ClusterOracle::ClusterOracle(int num_nodes, std::string label)
    : label_(std::move(label)),
      nodes_(static_cast<size_t>(num_nodes)) {}

void ClusterOracle::attach(harness::SimCluster& cluster) {
  cluster.add_on_deliver(
      [this](int node, const protocol::Delivery& d, Nanos) {
        on_deliver(node, d);
      });
  cluster.add_on_config(
      [this](int node, const protocol::ConfigurationChange& c) {
        on_config(node, c);
      });
}

void ClusterOracle::fail(std::string what) {
  if (!label_.empty()) what = label_ + ": " + what;
  violations_.push_back(Violation{std::move(what)});
}

void ClusterOracle::on_deliver(int node, const protocol::Delivery& d) {
  ++observed_;
  NodeState& ns = nodes_[static_cast<size_t>(node)];
  Rec rec;
  rec.ring = d.ring_id;
  rec.seq = d.seq;
  rec.part = d.part;
  rec.sender = d.sender;
  rec.hash = util::crc32(d.payload);

  // Self-delivery bookkeeping: payloads the campaign stamped carry the
  // submitting node and a per-node index; only indices registered via
  // note_submit count (arbitrary payloads may alias a stamp).
  harness::PayloadStamp stamp;
  if (harness::parse_payload(d.payload, stamp) &&
      stamp.sender == static_cast<uint32_t>(node) &&
      ns.expected.count(stamp.index) > 0) {
    ns.self_seen.insert(stamp.index);
  }

  if (ns.segs.empty()) {
    fail("node " + std::to_string(node) + " delivered seq " +
         std::to_string(d.seq) + " of ring " + ring_str(d.ring_id) +
         " before any configuration");
    // Synthesize a matching regular segment so one early delivery does not
    // cascade into a violation per message.
    Seg seg;
    seg.change.config.ring_id = d.ring_id;
    seg.change.transitional = false;
    ns.segs.push_back(std::move(seg));
  }

  Seg& seg = ns.segs.back();
  const bool transitional = seg.change.transitional;

  // Which ring may deliver under this segment: the installed ring when
  // regular; the *previous* regular ring when transitional (EVS delivers the
  // old configuration's leftovers there). A bootstrap transitional (first
  // segment after discovery or cold restart) has no old ring with ordered
  // messages, so nothing may be delivered in it.
  protocol::RingId allowed_ring = seg.change.config.ring_id;
  if (transitional) {
    allowed_ring = 0;
    for (size_t i = ns.segs.size() - 1; i-- > 0;) {
      if (!ns.segs[i].change.transitional) {
        allowed_ring = ns.segs[i].change.config.ring_id;
        break;
      }
    }
    if (allowed_ring == 0) {
      fail("node " + std::to_string(node) +
           " delivered in a bootstrap transitional configuration " +
           ring_str(seg.change.config.ring_id));
      seg.recs.push_back(rec);
      return;
    }
  }
  if (rec.ring != allowed_ring) {
    fail("node " + std::to_string(node) + " delivered ring " +
         ring_str(rec.ring) + " seq " + std::to_string(rec.seq) +
         " under configuration " + ring_str(seg.change.config.ring_id) +
         (transitional ? " (transitional, old ring " + ring_str(allowed_ring) +
                             ")"
                       : ""));
    seg.recs.push_back(rec);
    return;
  }

  // Floor: where the ring's agreed sequence stood when this segment began.
  // Regular segments install a fresh ring, so the stream starts at 1; a
  // transitional segment continues the old ring past whatever the preceding
  // regular segment delivered.
  bool have_prev = false;
  Rec prev_rec;
  if (!seg.recs.empty()) {
    prev_rec = seg.recs.back();
    have_prev = true;
  } else if (transitional) {
    for (size_t i = ns.segs.size() - 1; i-- > 0;) {
      if (!ns.segs[i].change.transitional) {
        if (!ns.segs[i].recs.empty()) {
          prev_rec = ns.segs[i].recs.back();
          have_prev = true;
        }
        break;
      }
    }
  }

  // Deliveries are ordered by (seq, part): packed messages share a seq and
  // count their parts from 0. Anything at or below the previous delivery is
  // a re-delivery (same seq) or a step backwards.
  const std::string where =
      "node " + std::to_string(node) + " ring " + ring_str(rec.ring) + ": ";
  const auto at = [](const Rec& r) {
    return "seq " + std::to_string(r.seq) +
           (r.part > 0 ? " part " + std::to_string(r.part) : "");
  };
  const protocol::SeqNum prev = prev_rec.seq;
  if (have_prev && rec.seq == prev && rec.part <= prev_rec.part) {
    fail(where + "duplicate delivery of " + at(rec) + " from sender " +
         std::to_string(rec.sender) + " after " + at(prev_rec));
  } else if (have_prev && rec.seq < prev) {
    fail(where + "sequence went backwards, " + at(prev_rec) + " -> " +
         at(rec));
  } else if (!transitional) {
    // Regular configuration: gapless after the first delivery, which may
    // open above seq 1 (recovery wrappers consume a prefix of a new ring's
    // sequence space; the cross-node prefix check still catches any
    // disagreement about where it opens). Each step is the next part of
    // the same packed message or part 0 of the next seq.
    if (!have_prev) {
      if (rec.seq < 1 || rec.part != 0) {
        fail(where + "first delivery has " + at(rec));
      }
    } else {
      const bool next_part = rec.seq == prev && rec.part == prev_rec.part + 1;
      const bool next_seq = rec.seq == prev + 1 && rec.part == 0;
      if (!next_part && !next_seq) {
        fail(where + "gap in agreed order after " + at(prev_rec) + ", got " +
             at(rec));
      }
    }
  }
  // Transitional: holes are permitted (EVS delivers what survived, skipping
  // holes no surviving member can fill), so only the order is checked.

  seg.recs.push_back(rec);
}

void ClusterOracle::on_config(int node,
                              const protocol::ConfigurationChange& change) {
  NodeState& ns = nodes_[static_cast<size_t>(node)];
  const auto& cfg = change.config;

  if (std::find(cfg.members.begin(), cfg.members.end(),
                static_cast<protocol::ProcessId>(node)) == cfg.members.end()) {
    fail("node " + std::to_string(node) + " installed configuration " +
         ring_str(cfg.ring_id) + " " + members_str(cfg.members) +
         " that does not contain itself");
  }

  const Seg* last = ns.segs.empty() ? nullptr : &ns.segs.back();
  if (change.transitional) {
    if (last != nullptr && last->change.transitional) {
      fail("node " + std::to_string(node) +
           " installed two transitional configurations in a row (" +
           ring_str(last->change.config.ring_id) + ", " +
           ring_str(cfg.ring_id) + ")");
    }
    // Members came along from the previous regular configuration, so they
    // must be a subset of it (skip for the bootstrap transitional, whose
    // implicit old ring is the singleton discovery ring).
    if (last != nullptr && !last->change.transitional &&
        !is_subset(cfg.members, last->change.config.members)) {
      fail("node " + std::to_string(node) + " transitional configuration " +
           ring_str(cfg.ring_id) + " " + members_str(cfg.members) +
           " is not a subset of the previous regular configuration " +
           members_str(last->change.config.members));
    }
  } else {
    if (last != nullptr && last->change.transitional) {
      if (!is_subset(last->change.config.members, cfg.members)) {
        fail("node " + std::to_string(node) +
             " transitional configuration " +
             members_str(last->change.config.members) +
             " is not a subset of the regular configuration " +
             ring_str(cfg.ring_id) + " " + members_str(cfg.members) +
             " that followed it");
      }
      if (last->change.config.ring_id != cfg.ring_id) {
        fail("node " + std::to_string(node) + " transitional ring id " +
             ring_str(last->change.config.ring_id) +
             " does not match the regular configuration " +
             ring_str(cfg.ring_id) + " that followed it");
      }
    }
    if (!ns.rings_installed.insert(cfg.ring_id).second) {
      // Legitimate after a cold restart (the fresh engine can recreate an
      // earlier singleton ring id); disables cross-node checks for the ring.
      ns.ring_reinstalled = true;
      reinstalled_.insert(cfg.ring_id);
    }
  }

  Seg seg;
  seg.change = change;
  ns.segs.push_back(std::move(seg));
}

void ClusterOracle::note_submit(int node, uint32_t index) {
  nodes_[static_cast<size_t>(node)].expected.insert(index);
}

void ClusterOracle::note_crash(int node) {
  nodes_[static_cast<size_t>(node)].crashed = true;
}

void ClusterOracle::note_restart(int node) {
  nodes_[static_cast<size_t>(node)].restarted = true;
}

void ClusterOracle::check_order_pair(int a, int b) {
  // Full per-ring streams: regular deliveries followed by the transitional
  // leftovers, in delivery order.
  auto streams = [this](int n) {
    std::map<protocol::RingId, std::vector<Rec>> out;
    for (const Seg& seg : nodes_[static_cast<size_t>(n)].segs) {
      for (const Rec& r : seg.recs) out[r.ring].push_back(r);
    }
    return out;
  };
  const auto sa = streams(a);
  const auto sb = streams(b);

  for (const auto& [ring, va] : sa) {
    const auto it = sb.find(ring);
    if (it == sb.end()) continue;
    if (reinstalled_.count(ring) > 0) continue;
    const auto& vb = it->second;

    // Occurrence-indexed identity -> position in a's stream.
    std::unordered_map<std::string, size_t> pos;
    std::unordered_map<std::string, int> occ_a;
    auto key = [](const Rec& r, int occ) {
      return std::to_string(r.seq) + "." + std::to_string(r.part) + "/" +
             std::to_string(r.sender) + "/" + std::to_string(r.hash) + "#" +
             std::to_string(occ);
    };
    for (size_t i = 0; i < va.size(); ++i) {
      pos[key(va[i], occ_a[key(va[i], 0)]++)] = i;
    }
    // Messages both nodes delivered must appear in the same relative order.
    std::unordered_map<std::string, int> occ_b;
    long last_pos = -1;
    protocol::SeqNum last_seq = -1;
    for (const Rec& r : vb) {
      const auto found = pos.find(key(r, occ_b[key(r, 0)]++));
      if (found == pos.end()) continue;
      if (static_cast<long>(found->second) <= last_pos) {
        fail("nodes " + std::to_string(a) + " and " + std::to_string(b) +
             " disagree on the order of ring " + ring_str(ring) +
             " around seq " + std::to_string(r.seq) + " (vs seq " +
             std::to_string(last_seq) + ")");
        return;
      }
      last_pos = static_cast<long>(found->second);
      last_seq = r.seq;
    }

    // The gapless regular portions are stronger than order-consistent: one
    // must be an exact prefix of the other.
    auto regular = [this, ring = ring](int n) {
      std::vector<Rec> out;
      for (const Seg& seg : nodes_[static_cast<size_t>(n)].segs) {
        if (seg.change.transitional) continue;
        for (const Rec& r : seg.recs) {
          if (r.ring == ring) out.push_back(r);
        }
      }
      return out;
    };
    const auto ra = regular(a);
    const auto rb = regular(b);
    const size_t n = std::min(ra.size(), rb.size());
    for (size_t i = 0; i < n; ++i) {
      if (!ra[i].same_message(rb[i])) {
        fail("nodes " + std::to_string(a) + " and " + std::to_string(b) +
             " delivered different messages at position " +
             std::to_string(i) + " of ring " + ring_str(ring) + ": seq " +
             std::to_string(ra[i].seq) + " sender " +
             std::to_string(ra[i].sender) + " vs seq " +
             std::to_string(rb[i].seq) + " sender " +
             std::to_string(rb[i].sender));
        return;
      }
    }
  }
}

void ClusterOracle::check_transitional_groups() {
  // Nodes that installed the same transitional configuration delivered the
  // same messages, in the same order, in it.
  struct Group {
    int node = -1;
    const Seg* seg = nullptr;
  };
  std::map<std::string, Group> groups;
  for (size_t n = 0; n < nodes_.size(); ++n) {
    for (const Seg& seg : nodes_[n].segs) {
      if (!seg.change.transitional) continue;
      std::string id = ring_str(seg.change.config.ring_id) +
                       members_str(seg.change.config.members);
      auto [it, fresh] = groups.emplace(std::move(id), Group{});
      if (fresh) {
        it->second = Group{static_cast<int>(n), &seg};
        continue;
      }
      const Group& g = it->second;
      const bool same =
          seg.recs.size() == g.seg->recs.size() &&
          std::equal(seg.recs.begin(), seg.recs.end(), g.seg->recs.begin(),
                     [](const Rec& x, const Rec& y) {
                       return x.same_message(y);
                     });
      if (!same) {
        fail("nodes " + std::to_string(g.node) + " and " + std::to_string(n) +
             " delivered different message sets in transitional "
             "configuration " +
             ring_str(seg.change.config.ring_id) + " " +
             members_str(seg.change.config.members) + " (" +
             std::to_string(g.seg->recs.size()) + " vs " +
             std::to_string(seg.recs.size()) + " messages)");
      }
    }
  }
}

void ClusterOracle::check_configs() {
  // Two nodes that installed the same regular ring id agreed on its members.
  std::map<protocol::RingId, std::pair<int, std::vector<protocol::ProcessId>>>
      seen;
  for (size_t n = 0; n < nodes_.size(); ++n) {
    for (const Seg& seg : nodes_[n].segs) {
      if (seg.change.transitional) continue;
      const auto ring = seg.change.config.ring_id;
      if (reinstalled_.count(ring) > 0) continue;
      auto [it, fresh] = seen.emplace(
          ring, std::make_pair(static_cast<int>(n), seg.change.config.members));
      if (!fresh && it->second.second != seg.change.config.members) {
        fail("nodes " + std::to_string(it->second.first) + " and " +
             std::to_string(n) + " installed regular configuration " +
             ring_str(ring) + " with different members: " +
             members_str(it->second.second) + " vs " +
             members_str(seg.change.config.members));
      }
    }
  }
}

void ClusterOracle::finalize(const harness::ClusterStats* stats) {
  if (finalized_) return;
  finalized_ = true;

  for (size_t a = 0; a < nodes_.size(); ++a) {
    for (size_t b = a + 1; b < nodes_.size(); ++b) {
      check_order_pair(static_cast<int>(a), static_cast<int>(b));
    }
  }
  check_transitional_groups();
  check_configs();

  for (size_t n = 0; n < nodes_.size(); ++n) {
    const NodeState& ns = nodes_[n];
    if (ns.crashed || ns.restarted) continue;  // obligation waived
    std::vector<uint32_t> missing;
    for (uint32_t idx : ns.expected) {
      if (ns.self_seen.count(idx) == 0) missing.push_back(idx);
    }
    const uint64_t rejected =
        stats != nullptr && n < stats->nodes.size()
            ? stats->nodes[n].engine.submit_rejected
            : 0;
    if (missing.size() > rejected) {
      std::ostringstream os;
      os << "node " << n << " never delivered " << missing.size()
         << " of its own " << ns.expected.size() << " submitted messages ("
         << rejected << " waived as rejected); first missing indices:";
      for (size_t i = 0; i < missing.size() && i < 5; ++i) {
        os << " " << missing[i];
      }
      fail(os.str());
    }
  }
}

std::string ClusterOracle::report() const {
  std::ostringstream os;
  for (const Violation& v : violations_) os << v.what << "\n";
  return os.str();
}

MergedOracle::MergedOracle(int num_nodes)
    : streams_(static_cast<size_t>(num_nodes)),
      inputs_(static_cast<size_t>(num_nodes)) {}

void MergedOracle::attach(multiring::RingSet& rings) {
  rings.add_on_merged([this](int node, int ring, const protocol::Delivery& d,
                             Nanos) { on_merged(node, ring, d); });
  for (int r = 0; r < rings.num_rings(); ++r) {
    rings.ring(r).add_on_deliver(
        [this, r](int node, const protocol::Delivery& d, Nanos) {
          on_ring_delivery(node, r, d);
        });
  }
}

void MergedOracle::on_ring_delivery(int node, int ring,
                                    const protocol::Delivery& d) {
  IRec rec;
  rec.ring_id = d.ring_id;
  rec.seq = d.seq;
  rec.part = d.part;
  rec.sender = d.sender;
  rec.hash = util::crc32(d.payload);
  inputs_[static_cast<size_t>(node)][ring].push_back(rec);
}

void MergedOracle::fail(std::string what) {
  violations_.push_back(Violation{std::move(what)});
}

void MergedOracle::on_merged(int node, int ring,
                             const protocol::Delivery& d) {
  ++observed_;
  MRec rec;
  rec.ring = ring;
  rec.seq = d.seq;
  rec.part = d.part;
  rec.sender = d.sender;
  rec.hash = util::crc32(d.payload);
  streams_[static_cast<size_t>(node)].push_back(rec);
}

void MergedOracle::finalize() {
  // Per-node, per-ring input sub-streams (the merger preserves each ring's
  // delivery order, so the merged stream restricted to one ring IS that
  // ring's input as this node saw it).
  auto substreams = [this](size_t n) {
    std::map<int, std::vector<MRec>> out;
    for (const MRec& r : streams_[n]) out[r.ring].push_back(r);
    return out;
  };

  auto prefix_related = [](const auto& x, const auto& y) {
    const size_t n = std::min(x.size(), y.size());
    for (size_t i = 0; i < n; ++i) {
      if (!(x[i] == y[i])) return false;
    }
    return true;
  };

  for (size_t a = 0; a < streams_.size(); ++a) {
    for (size_t b = a + 1; b < streams_.size(); ++b) {
      const auto sa = substreams(a);
      const auto sb = substreams(b);

      // The merge is a deterministic function of the per-ring inputs: when
      // the two nodes' inputs are prefix-related for every ring, their
      // merged streams must be prefix-related too. When some component ring
      // underwent a membership split (loss can partition an EVS ring into
      // views that deliver genuinely different messages, skip streams, and
      // sequence spaces), the inputs diverge and the interleavings may
      // legitimately differ — fall back to content-order consistency below;
      // the per-ring ClusterOracles still enforce the EVS contract inside
      // each lineage. Prefer the true pre-merge input streams recorded via
      // attach() (they include skips the merge consumed without emitting);
      // fall back to the emitted sub-streams when the oracle was fed by
      // hand.
      bool inputs_prefix = true;
      if (!inputs_[a].empty() || !inputs_[b].empty()) {
        for (const auto& [ring, va] : inputs_[a]) {
          const auto it = inputs_[b].find(ring);
          if (it != inputs_[b].end() && !prefix_related(va, it->second)) {
            inputs_prefix = false;
            break;
          }
        }
      } else {
        for (const auto& [ring, va] : sa) {
          const auto it = sb.find(ring);
          if (it != sb.end() && !prefix_related(va, it->second)) {
            inputs_prefix = false;
            break;
          }
        }
      }

      if (inputs_prefix) {
        const auto& va = streams_[a];
        const auto& vb = streams_[b];
        const size_t n = std::min(va.size(), vb.size());
        for (size_t i = 0; i < n; ++i) {
          if (!(va[i] == vb[i])) {
            fail("merged streams of nodes " + std::to_string(a) + " and " +
                 std::to_string(b) + " diverge at position " +
                 std::to_string(i) + ": ring " + std::to_string(va[i].ring) +
                 " seq " + std::to_string(va[i].seq) + " sender " +
                 std::to_string(va[i].sender) + " vs ring " +
                 std::to_string(vb[i].ring) + " seq " +
                 std::to_string(vb[i].seq) + " sender " +
                 std::to_string(vb[i].sender));
            break;
          }
        }
        continue;
      }

      // Split-tolerant check: two messages (identified by sender and
      // payload; occurrence-indexed) that both nodes emitted from the same
      // ring must appear in the same relative order. EVS guarantees this
      // across view splits — only an ordering bug can flip it.
      for (const auto& [ring, va] : sa) {
        const auto it = sb.find(ring);
        if (it == sb.end()) continue;
        const auto& vb = it->second;
        auto key = [](const MRec& r, int occ) {
          return std::to_string(r.sender) + "/" + std::to_string(r.hash) +
                 "#" + std::to_string(occ);
        };
        std::unordered_map<std::string, size_t> pos;
        std::unordered_map<std::string, int> occ_a;
        for (size_t i = 0; i < va.size(); ++i) {
          pos[key(va[i], occ_a[key(va[i], 0)]++)] = i;
        }
        std::unordered_map<std::string, int> occ_b;
        long last = -1;
        for (const MRec& r : vb) {
          const auto found = pos.find(key(r, occ_b[key(r, 0)]++));
          if (found == pos.end()) continue;
          if (static_cast<long>(found->second) <= last) {
            fail("merged streams of nodes " + std::to_string(a) + " and " +
                 std::to_string(b) + " diverge on the content order of ring " +
                 std::to_string(ring) + " around seq " + std::to_string(r.seq) +
                 " sender " + std::to_string(r.sender));
            break;
          }
          last = static_cast<long>(found->second);
        }
      }
    }
  }
}

std::string MergedOracle::report() const {
  std::ostringstream os;
  for (const Violation& v : violations_) os << v.what << "\n";
  return os.str();
}

std::string join_reports(const std::vector<Violation>& violations) {
  std::ostringstream os;
  for (const Violation& v : violations) os << v.what << "\n";
  return os.str();
}

}  // namespace accelring::check
