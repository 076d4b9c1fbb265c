// Property tests for the consistent-hash ShardMap.
//
// 1. Full coverage: for every ring count, the arcs the points define tile
//    [0, 2^64-1] exactly — no gap, no overlap, wrap-around arc included —
//    and successor lookup agrees with the tiling for adversarial probes
//    (arc endpoints and their neighbours) and random keys.
// 2. Balance: with the default vnode count, every ring's ownership stays
//    within a constant factor of its fair share.
// 3. Placement: point positions and key owners are pinned to literals, so
//    any change that moves a key to another ring fails here first.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "multiring/shard_map.hpp"
#include "util/rng.hpp"

namespace accelring::multiring {
namespace {

constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();

/// Inclusive range of the hash space and the ring that owns it.
struct Arc {
  uint64_t lo = 0;
  uint64_t hi = 0;
  int ring = 0;
};

/// The arcs the points define, sorted by lo: point i owns (point i-1,
/// point i], and the first point also owns the wrap-around arc (last point,
/// 2^64-1] ∪ [0, first point], split here at 2^64-1.
std::vector<Arc> arcs(const ShardMap& map) {
  const auto& pts = map.points();
  std::vector<Arc> out;
  out.push_back(Arc{0, pts.front().at, pts.front().ring});
  for (size_t i = 1; i < pts.size(); ++i) {
    out.push_back(Arc{pts[i - 1].at + 1, pts[i].at, pts[i].ring});
  }
  if (pts.back().at != kMax) {
    out.push_back(Arc{pts.back().at + 1, kMax, pts.front().ring});
  }
  return out;
}

/// Fraction of the hash space `ring` owns, in [0, 1].
double owned_fraction(const ShardMap& map, int ring) {
  long double total = 0.0L;
  constexpr long double kSpace = 18446744073709551616.0L;  // 2^64
  for (const Arc& a : arcs(map)) {
    if (a.ring == ring) total += static_cast<long double>(a.hi - a.lo) + 1.0L;
  }
  return static_cast<double>(total / kSpace);
}

/// Gap-free, overlap-free tiling of the whole 64-bit space.
void expect_tiles(const std::vector<Arc>& all, int rings) {
  ASSERT_FALSE(all.empty()) << "rings=" << rings;
  EXPECT_EQ(all.front().lo, 0u) << "rings=" << rings;
  EXPECT_EQ(all.back().hi, kMax) << "rings=" << rings;
  for (size_t i = 0; i + 1 < all.size(); ++i) {
    ASSERT_LE(all[i].lo, all[i].hi) << "rings=" << rings << " arc " << i;
    ASSERT_EQ(all[i].hi + 1, all[i + 1].lo)
        << "rings=" << rings << " gap/overlap after arc " << i;
  }
}

/// Owner of `key` by the tiling (binary search over the arcs).
int arc_owner(const std::vector<Arc>& all, uint64_t key) {
  const auto it = std::partition_point(
      all.begin(), all.end(), [key](const Arc& a) { return a.hi < key; });
  return it->ring;
}

TEST(ShardMapFuzz, RandomMapsTileAndLookupAgrees) {
  util::Rng rng(0x5eed);
  for (int rings = 1; rings <= 8; ++rings) {
    const ShardMap map(rings);
    const std::vector<Arc> all = arcs(map);
    expect_tiles(all, rings);
    // Adversarial probes: every arc boundary and its neighbours (the
    // circle's own edges included), plus random keys.
    for (const Arc& a : all) {
      for (const uint64_t key : {a.lo, a.hi, a.lo - 1, a.hi + 1}) {
        EXPECT_EQ(map.ring_of_key(key), arc_owner(all, key))
            << "rings=" << rings << " key " << key;
      }
      EXPECT_EQ(map.ring_of_key(a.hi), a.ring);
    }
    for (int probe = 0; probe < 256; ++probe) {
      const uint64_t key = rng.next();
      EXPECT_EQ(map.ring_of_key(key), arc_owner(all, key))
          << "rings=" << rings << " key " << key;
    }
    // Every ring owns some of the space.
    for (int r = 0; r < rings; ++r) {
      EXPECT_GT(owned_fraction(map, r), 0.0) << "rings=" << rings;
    }
  }
}

TEST(ShardMapFuzz, WrapAroundArcBelongsToFirstPoint) {
  // The arc (last point, 2^64-1] ∪ [0, first point] wraps; keys on both
  // sides of the wrap must resolve to the first point's ring.
  for (int k : {2, 3, 5, 8}) {
    ShardMap map(k);
    const auto& pts = map.points();
    ASSERT_FALSE(pts.empty());
    EXPECT_EQ(map.ring_of_key(0), pts.front().ring);
    EXPECT_EQ(map.ring_of_key(pts.front().at), pts.front().ring);
    EXPECT_EQ(map.ring_of_key(kMax), pts.front().ring)
        << "keys past the last point wrap to the first point's ring";
    EXPECT_EQ(map.ring_of_key(pts.back().at + 1), pts.front().ring);
  }
}

TEST(ShardMapFuzz, DefaultVnodesBoundTheImbalance) {
  // With kDefaultVnodes the largest share stays within 2x of ideal and the
  // smallest within a third — the bound the routing layer's spread tests
  // rely on.
  for (int k : {2, 3, 4, 6, 8}) {
    ShardMap map(k);
    const double ideal = 1.0 / k;
    double total = 0;
    for (int r = 0; r < k; ++r) {
      const double f = owned_fraction(map, r);
      EXPECT_LT(f, 2.0 * ideal) << "rings=" << k << " ring " << r;
      EXPECT_GT(f, ideal / 3.0) << "rings=" << k << " ring " << r;
      total += f;
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

TEST(ShardMapFuzz, VnodePointIsDeterministic) {
  // Key placement is part of the deployment contract (every node must route
  // a key to the same ring), and KV routing and every K > 1 artifact depend
  // on it. These literals were taken from the map as it shipped; any change
  // to the hash, the vnode count, the dedup or the successor lookup moves
  // at least one of them.
  EXPECT_EQ(ShardMap::vnode_point(0, 0), 0x766bd286674d3963ull);
  EXPECT_EQ(ShardMap::vnode_point(0, 63), 0xcb5b583b48b1eca7ull);
  EXPECT_EQ(ShardMap::vnode_point(1, 0), 0x9c5c2d43b88fce17ull);
  EXPECT_EQ(ShardMap::vnode_point(3, 17), 0xc0f0927917625335ull);
  EXPECT_EQ(ShardMap::vnode_point(7, 5), 0xc5b0ec58e75219c6ull);

  const ShardMap four(4);
  const int group_ring[] = {2, 2, 3, 1, 3, 2, 1, 0};
  for (int g = 0; g < 8; ++g) {
    EXPECT_EQ(four.ring_of("group-" + std::to_string(g)), group_ring[g])
        << "group-" << g;
  }

  // FNV-1a fold of the owner of mix64(i), i in [0, 4096), per ring count.
  const std::pair<int, uint64_t> folds[] = {{1, 0xb93a0c83ce3b6325ull},
                                            {2, 0x3f86889870b06cb0ull},
                                            {3, 0x0bfe2ba4d778b845ull},
                                            {4, 0x81fb269a55cfe273ull},
                                            {8, 0x036d495de1bf4215ull}};
  for (const auto& [k, want] : folds) {
    const ShardMap map(k);
    uint64_t h = 0xcbf29ce484222325ull;
    for (uint64_t i = 0; i < 4096; ++i) {
      h ^= static_cast<uint64_t>(map.ring_of_key(mix64(i)));
      h *= 0x100000001b3ull;
    }
    EXPECT_EQ(h, want) << "rings=" << k;
  }
}

}  // namespace
}  // namespace accelring::multiring
