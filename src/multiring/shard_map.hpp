// Shard map: assigns ordering keys (group names, sender streams) to rings.
//
// The multi-ring subsystem runs K independent Accelerated Ring instances and
// multiplies aggregate throughput by spreading disjoint traffic across them
// (Multi-Ring Paxos; Benz et al., "Stretching Multi-Ring Paxos"). The shard
// map is the routing half of that design: a consistent hash ring places a
// fixed set of virtual-node points per protocol ring on the 64-bit circle,
// each point owning the wrap-around arc that ends at it. A key is hashed once
// and the owning ring found by successor lookup, so everything that must stay
// FIFO-ordered relative to itself (one group, one sender stream) lands on one
// ring, while unrelated keys spread uniformly across all rings. The map is
// static: every node builds the same one from K alone.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

namespace accelring::multiring {

/// splitmix64 finalizer: turns small sequential stream ids into uniform
/// 64-bit keys before the arc lookup (a raw counter would always land in
/// one point's arc).
[[nodiscard]] constexpr uint64_t mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// FNV-1a 64-bit; stable across platforms so shard assignment is part of the
/// deployment contract (every node must route a group to the same ring).
[[nodiscard]] constexpr uint64_t fnv1a(std::string_view s) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : s) {
    h ^= static_cast<uint8_t>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

class ShardMap {
 public:
  /// One virtual-node point on the hash circle. The point owns the arc
  /// (previous point, at], wrapping past 2^64-1 for the first point.
  struct Point {
    uint64_t at = 0;
    int ring = 0;
  };

  /// Virtual nodes per ring. Enough that the largest ownership share stays
  /// within ~2x of ideal (the fuzz test pins the bound) and a 4-ring map
  /// gives every ring a usable share of a few hundred keys.
  static constexpr int kDefaultVnodes = 64;

  /// All `num_rings` rings own hash space, kDefaultVnodes points each.
  explicit ShardMap(int num_rings);

  /// Ring owning a raw 64-bit key.
  [[nodiscard]] int ring_of_key(uint64_t key) const;
  /// Ring owning a named entity (group name, sender name). The FNV hash is
  /// finalized with mix64: FNV-1a concentrates its avalanche in the low bits
  /// while the arc lookup needs uniform placement on the whole circle.
  [[nodiscard]] int ring_of(std::string_view name) const {
    return ring_of_key(mix64(fnv1a(name)));
  }

  [[nodiscard]] int num_rings() const { return num_rings_; }
  /// The circle, sorted by position, duplicates dropped.
  [[nodiscard]] const std::vector<Point>& points() const { return points_; }

  /// Canonical circle position of virtual node `v` of `ring`: a pure
  /// function, so every node builds the identical circle.
  [[nodiscard]] static uint64_t vnode_point(int ring, int v);

 private:
  int num_rings_ = 1;
  std::vector<Point> points_;  ///< sorted by at, unique
};

}  // namespace accelring::multiring
