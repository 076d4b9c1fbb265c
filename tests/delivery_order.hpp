// Gap-free total order over (seq, part): the shape of one node's delivery
// stream within one regular configuration. Packed messages share a seq and
// number their parts from 0 (protocol::Delivery::part); an unpacked message
// is part 0 of its own seq.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "protocol/types.hpp"

namespace accelring::protocol {

using SeqPart = std::pair<SeqNum, uint32_t>;

/// Passes when `order` opens at (1, 0) and each next delivery is the next
/// part of the same packed message or part 0 of the next seq.
inline ::testing::AssertionResult gap_free(const std::vector<SeqPart>& order) {
  SeqPart prev{0, 0};
  for (size_t i = 0; i < order.size(); ++i) {
    const auto [seq, part] = order[i];
    const bool next_part =
        i > 0 && seq == prev.first && part == prev.second + 1;
    const bool next_seq = seq == prev.first + 1 && part == 0;
    if (!next_part && !next_seq) {
      return ::testing::AssertionFailure()
             << "position " << i << ": (" << seq << ", " << part
             << ") after (" << prev.first << ", " << prev.second << ")";
    }
    prev = order[i];
  }
  return ::testing::AssertionSuccess();
}

}  // namespace accelring::protocol
