// Per-node shard router: map-version-aware routing with hold-and-flush.
//
// Every logical node owns one ShardRouter. It wraps the node's copy of the
// versioned ShardMap and advances it through migrations *driven only by the
// markers the node merges* (migration.hpp), so all nodes apply the same map
// transition at the same merged-stream position:
//
//   steady            — keys route to their map owner
//   freeze(S) merged  — new submissions for moving keys of S are HELD by the
//                       caller (Decision::hold); non-moving keys unaffected
//   drain(S) merged   — source ownership closed; holds continue
//   activate(D) merged— moving keys whose destination is D route to D (held
//                       submissions flush); when every destination of the
//                       plan has activated the map is applied and version()
//                       bumps
//
// The router decides; the caller (RingSet) owns payloads, performs the
// actual holds/flushes, and runs the controller that submits the markers.
#pragma once

#include <cassert>
#include <optional>
#include <string_view>
#include <vector>

#include "multiring/migration.hpp"
#include "multiring/shard_map.hpp"

namespace accelring::multiring {

class ShardRouter {
 public:
  struct Decision {
    int ring = 0;
    bool hold = false;  ///< true: do not submit yet, park until flush
  };

  /// What a merged marker changed, so the caller can react (flush holds on
  /// activation, account completions).
  struct MarkerEffect {
    bool activated = false;  ///< an activate marker was merged
    bool completed = false;  ///< the migration finished; map version bumped
  };

  explicit ShardRouter(ShardMap map) : map_(std::move(map)) {}

  /// Route an already-mixed 64-bit key (RingSet mixes raw keys first).
  [[nodiscard]] Decision route_key(uint64_t mixed_key) const {
    if (plan_.has_value()) {
      if (const MigrationMove* mv = plan_->move_of(mixed_key)) {
        if (contains(activated_, mv->dst)) return {mv->dst, false};
        if (contains(frozen_, mv->src)) return {mv->src, true};
        return {mv->src, false};
      }
    }
    return {map_.ring_of_key(mixed_key), false};
  }

  /// Out-of-band plan staging by the controller. The decision to act on the
  /// plan is still marker-driven — staging alone changes no routing — but it
  /// carries the successor point set that apply() installs (the freeze
  /// marker's wire form carries only the moves).
  void stage_plan(const MigrationPlan& plan) {
    assert(!plan_.has_value());
    assert(plan.from_version == map_.version());
    if (plan.empty()) return;
    plan_ = plan;
    frozen_.clear();
    drained_.clear();
    activated_.clear();
  }

  /// Feed one marker in this node's merged-stream order.
  MarkerEffect on_marker(const MigrationMarker& m) {
    MarkerEffect effect;
    if (!plan_.has_value() || m.version != plan_->to_version) return effect;
    switch (m.kind) {
      case MarkerKind::kFreeze:
        insert(frozen_, m.ring);
        break;
      case MarkerKind::kDrain:
        insert(drained_, m.ring);
        break;
      case MarkerKind::kActivate:
        insert(activated_, m.ring);
        effect.activated = true;
        if (covers(activated_, plan_->dests()) &&
            covers(drained_, plan_->sources())) {
          map_.apply(*plan_);
          plan_.reset();
          frozen_.clear();
          drained_.clear();
          activated_.clear();
          effect.completed = true;
        }
        break;
    }
    return effect;
  }

  [[nodiscard]] uint64_t version() const { return map_.version(); }
  [[nodiscard]] bool migrating() const { return plan_.has_value(); }
  /// True when this node merged freeze markers from every source of the
  /// in-flight plan (the controller's drain precondition).
  [[nodiscard]] bool all_frozen() const {
    return plan_.has_value() && covers(frozen_, plan_->sources());
  }
  [[nodiscard]] bool all_drained() const {
    return plan_.has_value() && covers(drained_, plan_->sources());
  }
  [[nodiscard]] const ShardMap& map() const { return map_; }

 private:
  static bool contains(const std::vector<int>& v, int x) {
    for (const int e : v) {
      if (e == x) return true;
    }
    return false;
  }
  static void insert(std::vector<int>& v, int x) {
    if (!contains(v, x)) v.push_back(x);
  }
  static bool covers(const std::vector<int>& have,
                     const std::vector<int>& want) {
    for (const int w : want) {
      if (!contains(have, w)) return false;
    }
    return true;
  }

  ShardMap map_;
  std::optional<MigrationPlan> plan_;
  std::vector<int> frozen_;
  std::vector<int> drained_;
  std::vector<int> activated_;
};

}  // namespace accelring::multiring
