#include "multiring/shard_map.hpp"

#include <algorithm>
#include <cassert>

namespace accelring::multiring {

uint64_t ShardMap::vnode_point(int ring, int v) {
  // Two rounds of the finalizer decorrelate (ring, v) lanes: one round of a
  // near-sequential input would still be uniform, but seeding per ring keeps
  // the per-ring point streams independent.
  const uint64_t seed = mix64(0x632be59bd9b4e019ull ^
                              (static_cast<uint64_t>(ring) + 1));
  return mix64(seed + static_cast<uint64_t>(v));
}

ShardMap::ShardMap(int num_rings) : num_rings_(num_rings) {
  assert(num_rings >= 1);
  points_.reserve(static_cast<size_t>(num_rings) * kDefaultVnodes);
  for (int r = 0; r < num_rings; ++r) {
    for (int v = 0; v < kDefaultVnodes; ++v) {
      points_.push_back(Point{vnode_point(r, v), r});
    }
  }
  std::sort(points_.begin(), points_.end(),
            [](const Point& a, const Point& b) { return a.at < b.at; });
  // A point collision (two (ring, v) lanes hashing to the same position) has
  // probability ~(K*V)^2 / 2^65 — negligible, but drop duplicates so the
  // successor lookup stays well defined.
  points_.erase(std::unique(points_.begin(), points_.end(),
                            [](const Point& a, const Point& b) {
                              return a.at == b.at;
                            }),
                points_.end());
}

int ShardMap::ring_of_key(uint64_t key) const {
  // Successor lookup: the first point clockwise from the key owns it; keys
  // past the last point wrap to the first.
  const auto it = std::lower_bound(
      points_.begin(), points_.end(), key,
      [](const Point& p, uint64_t k) { return p.at < k; });
  return it == points_.end() ? points_.front().ring : it->ring;
}

}  // namespace accelring::multiring
