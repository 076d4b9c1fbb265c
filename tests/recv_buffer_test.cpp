// Unit tests for the sequence-ordered receive buffer, and a differential
// test against the map-based buffer it replaced (reference_recv_buffer.hpp).
#include "protocol/recv_buffer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>

#include "reference_recv_buffer.hpp"
#include "util/rng.hpp"

namespace accelring::protocol {
namespace {

DataMsg msg(SeqNum seq, Service service = Service::kAgreed) {
  DataMsg m;
  m.seq = seq;
  m.pid = 1;
  m.service = service;
  return m;
}

TEST(RecvBuffer, AruAdvancesOverContiguousPrefix) {
  RecvBuffer b;
  EXPECT_EQ(b.local_aru(), 0);
  EXPECT_TRUE(b.insert(msg(1)));
  EXPECT_EQ(b.local_aru(), 1);
  EXPECT_TRUE(b.insert(msg(3)));
  EXPECT_EQ(b.local_aru(), 1);  // gap at 2
  EXPECT_TRUE(b.insert(msg(2)));
  EXPECT_EQ(b.local_aru(), 3);  // gap filled, jumps over 3
  EXPECT_EQ(b.high_seq(), 3);
}

TEST(RecvBuffer, DuplicatesRejected) {
  RecvBuffer b;
  EXPECT_TRUE(b.insert(msg(1)));
  EXPECT_FALSE(b.insert(msg(1)));
  EXPECT_TRUE(b.insert(msg(5)));
  EXPECT_FALSE(b.insert(msg(5)));
}

TEST(RecvBuffer, HasAnswersBelowAndAboveAru) {
  RecvBuffer b;
  b.insert(msg(1));
  b.insert(msg(2));
  b.insert(msg(4));
  EXPECT_TRUE(b.has(1));
  EXPECT_TRUE(b.has(2));
  EXPECT_FALSE(b.has(3));
  EXPECT_TRUE(b.has(4));
  EXPECT_FALSE(b.has(5));
}

TEST(RecvBuffer, AgreedDeliversInSeqOrder) {
  RecvBuffer b;
  b.insert(msg(2));
  EXPECT_EQ(b.next_deliverable(0), nullptr);  // 1 missing
  b.insert(msg(1));
  const DataMsg* m = b.next_deliverable(0);
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->seq, 1);
  b.mark_delivered();
  m = b.next_deliverable(0);
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->seq, 2);
  b.mark_delivered();
  EXPECT_EQ(b.next_deliverable(0), nullptr);
  EXPECT_EQ(b.delivered_up_to(), 2);
}

TEST(RecvBuffer, SafeBlocksUntilSafeLine) {
  RecvBuffer b;
  b.insert(msg(1, Service::kSafe));
  b.insert(msg(2));
  // Safe message 1 blocks everything until the safe line reaches it.
  EXPECT_EQ(b.next_deliverable(0), nullptr);
  const DataMsg* m = b.next_deliverable(1);
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->seq, 1);
  b.mark_delivered();
  // The agreed message behind it is now free.
  m = b.next_deliverable(1);
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->seq, 2);
}

TEST(RecvBuffer, AgreedAfterBlockedSafeIsHeldBack) {
  RecvBuffer b;
  b.insert(msg(1));
  b.insert(msg(2, Service::kSafe));
  b.insert(msg(3));  // agreed, but must not bypass the safe message
  const DataMsg* m = b.next_deliverable(0);
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->seq, 1);
  b.mark_delivered();
  EXPECT_EQ(b.next_deliverable(0), nullptr);
  EXPECT_EQ(b.next_deliverable(1), nullptr);
  EXPECT_NE(b.next_deliverable(2), nullptr);
}

TEST(RecvBuffer, DiscardReleasesOnlyDelivered) {
  RecvBuffer b;
  for (SeqNum s = 1; s <= 5; ++s) b.insert(msg(s));
  while (b.next_deliverable(0) != nullptr && b.delivered_up_to() < 3) {
    b.mark_delivered();
  }
  EXPECT_EQ(b.delivered_up_to(), 3);
  b.discard_up_to(5);  // clamped to delivered (3)
  EXPECT_EQ(b.size(), 2u);
  EXPECT_FALSE(b.find(2));
  EXPECT_TRUE(b.find(4));
}

TEST(RecvBuffer, ReinsertBelowDiscardLineIgnored) {
  RecvBuffer b;
  b.insert(msg(1));
  (void)b.next_deliverable(0);
  b.mark_delivered();
  b.discard_up_to(1);
  EXPECT_FALSE(b.insert(msg(1)));  // stable: never needed again
}

TEST(RecvBuffer, MissingUpToListsHoles) {
  RecvBuffer b;
  b.insert(msg(1));
  b.insert(msg(4));
  b.insert(msg(6));
  const auto missing = b.missing_up_to(7, {});
  EXPECT_EQ(missing, (std::vector<SeqNum>{2, 3, 5, 7}));
}

TEST(RecvBuffer, MissingExcludesAlreadyRequested) {
  RecvBuffer b;
  b.insert(msg(1));
  const auto missing = b.missing_up_to(4, {2, 4});
  EXPECT_EQ(missing, (std::vector<SeqNum>{3}));
}

TEST(RecvBuffer, MissingBoundBelowAruIsEmpty) {
  RecvBuffer b;
  b.insert(msg(1));
  b.insert(msg(2));
  EXPECT_TRUE(b.missing_up_to(2, {}).empty());
  EXPECT_TRUE(b.missing_up_to(0, {}).empty());
}

TEST(RecvBuffer, UndeliveredCount) {
  RecvBuffer b;
  b.insert(msg(1));
  b.insert(msg(2));
  b.insert(msg(4));
  EXPECT_EQ(b.undelivered(), 3u);
  (void)b.next_deliverable(0);
  b.mark_delivered();
  EXPECT_EQ(b.undelivered(), 2u);
}

TEST(RecvBuffer, FindReturnsStoredMessage) {
  RecvBuffer b;
  DataMsg m = msg(7, Service::kSafe);
  m.round = 42;
  b.insert(std::move(m));
  const DataMsg* found = b.find(7);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->round, 42u);
  EXPECT_EQ(b.find(8), nullptr);
}

TEST(RecvBuffer, LargeOutOfOrderStress) {
  RecvBuffer b;
  // Insert 1..500 in a scrambled but deterministic order.
  for (SeqNum s = 500; s >= 1; s -= 2) b.insert(msg(s));
  for (SeqNum s = 1; s <= 500; s += 2) b.insert(msg(s));
  EXPECT_EQ(b.local_aru(), 500);
  int delivered = 0;
  while (b.next_deliverable(0) != nullptr) {
    b.mark_delivered();
    ++delivered;
  }
  EXPECT_EQ(delivered, 500);
}

TEST(RecvBuffer, SlotsAreAllocatedOnTheFirstInsert) {
  RecvBuffer b;
  EXPECT_EQ(b.capacity(), 0u);
  EXPECT_EQ(b.find(1), nullptr);
  EXPECT_EQ(b.missing_up_to(3, {}), (std::vector<SeqNum>{1, 2, 3}));
  EXPECT_EQ(b.capacity(), 0u);
  b.insert(msg(1));
  EXPECT_EQ(b.capacity(), RecvBuffer::kInitialSlots);
}

TEST(RecvBuffer, SteadyInOrderTrafficWrapsWithoutGrowing) {
  RecvBuffer b;
  for (SeqNum s = 1; s <= 10'000; ++s) {
    ASSERT_TRUE(b.insert(msg(s)));
    while (b.next_deliverable(s) != nullptr) b.mark_delivered();
    b.discard_up_to(s - 10);
  }
  EXPECT_EQ(b.capacity(), RecvBuffer::kInitialSlots);
  EXPECT_EQ(b.size(), 10u);
  EXPECT_EQ(b.find(9'990), nullptr);
  ASSERT_NE(b.find(9'991), nullptr);
  EXPECT_EQ(b.find(9'991)->seq, 9'991);
}

TEST(RecvBuffer, GrowthKeepsEveryHeldMessage) {
  RecvBuffer b;
  for (SeqNum s = 2; s <= 40; s += 3) b.insert(msg(s));
  b.insert(msg(1000));  // forces doubling from 64 to 1024 slots
  EXPECT_EQ(b.capacity(), 1024u);
  for (SeqNum s = 2; s <= 40; s += 3) {
    ASSERT_NE(b.find(s), nullptr) << s;
    EXPECT_EQ(b.find(s)->seq, s);
  }
  EXPECT_NE(b.find(1000), nullptr);
  EXPECT_EQ(b.find(999), nullptr);
  EXPECT_EQ(b.size(), 14u);
}

TEST(RecvBuffer, SeqBeyondTheSpanCapIsRejectedAndLeftUnmoved) {
  RecvBuffer b;
  DataMsg far = msg(RecvBuffer::kMaxSpan + 1);
  far.payload.resize(100);
  EXPECT_FALSE(b.insert(std::move(far)));
  EXPECT_EQ(far.payload.size(), 100u);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(b.capacity(), 0u);
  EXPECT_EQ(b.high_seq(), 0);
  EXPECT_FALSE(b.has(RecvBuffer::kMaxSpan + 1));

  // The cap is relative to the discard line: it moves with it.
  EXPECT_TRUE(b.insert(msg(RecvBuffer::kMaxSpan)));
  EXPECT_EQ(b.capacity(), static_cast<size_t>(RecvBuffer::kMaxSpan));
  EXPECT_TRUE(b.insert(msg(1)));
  ASSERT_NE(b.next_deliverable(1), nullptr);
  b.mark_delivered();
  b.discard_up_to(1);
  EXPECT_TRUE(b.insert(msg(RecvBuffer::kMaxSpan + 1)));
  EXPECT_FALSE(b.insert(msg(RecvBuffer::kMaxSpan + 2)));
  EXPECT_EQ(b.capacity(), static_cast<size_t>(RecvBuffer::kMaxSpan));
  EXPECT_EQ(b.high_seq(), RecvBuffer::kMaxSpan + 1);
}

TEST(RecvBuffer, MovedFromBufferIsEmpty) {
  RecvBuffer a;
  for (SeqNum s = 1; s <= 3; ++s) a.insert(msg(s));
  RecvBuffer b = std::move(a);
  EXPECT_EQ(b.local_aru(), 3);
  EXPECT_EQ(b.size(), 3u);
  EXPECT_EQ(a.local_aru(), 0);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(a.size(), 0u);
  EXPECT_EQ(a.find(1), nullptr);
  EXPECT_TRUE(a.insert(msg(1)));
}

// --- differential test against the reference model -------------------------

/// A message whose every field, payload included, is a function of its seq,
/// so two copies can be compared and a misplaced one shows.
DataMsg tagged(SeqNum seq, uint64_t seed, double safe_fraction) {
  util::Rng rng(seed * 1'000'003 + static_cast<uint64_t>(seq));
  DataMsg m;
  m.ring_id = 0x10001;
  m.seq = seq;
  m.pid = static_cast<ProcessId>(rng.below(5));
  m.round = rng.below(1000);
  m.service = rng.chance(safe_fraction) ? Service::kSafe : Service::kAgreed;
  m.post_token = rng.chance(0.5);
  m.payload.resize(rng.below(40));
  for (std::byte& b : m.payload) b = static_cast<std::byte>(rng.below(256));
  return m;
}

void expect_same_msg(const DataMsg* got, const DataMsg* want,
                     const std::string& where) {
  ASSERT_EQ(got == nullptr, want == nullptr) << where;
  if (got == nullptr) return;
  EXPECT_EQ(got->seq, want->seq) << where;
  EXPECT_EQ(got->pid, want->pid) << where;
  EXPECT_EQ(got->round, want->round) << where;
  EXPECT_EQ(got->service, want->service) << where;
  EXPECT_EQ(got->post_token, want->post_token) << where;
  EXPECT_EQ(got->payload, want->payload) << where;
}

/// Drives a RecvBuffer and the reference through the same random operations
/// and compares every accessor after each one.
class Differential {
 public:
  Differential(uint64_t seed, double safe_fraction)
      : seed_(seed), safe_fraction_(safe_fraction), rng_(seed) {}

  void insert(SeqNum seq) {
    DataMsg a = tagged(seq, seed_, safe_fraction_);
    DataMsg b = tagged(seq, seed_, safe_fraction_);
    const bool inserted = buffer_.insert(std::move(a));
    ASSERT_EQ(inserted, reference_.insert(std::move(b))) << at("insert", seq);
    if (!inserted) {
      // A rejected message is left unmoved.
      const DataMsg whole = tagged(seq, seed_, safe_fraction_);
      EXPECT_EQ(a.payload, whole.payload)  // NOLINT(bugprone-use-after-move)
          << at("rejected insert moved", seq);
    }
    top_ = std::max(top_, seq);
    check(seq);
  }

  void deliver(SeqNum safe_line, int limit) {
    for (int i = 0; i < limit; ++i) {
      const DataMsg* got = buffer_.next_deliverable(safe_line);
      const DataMsg* want = reference_.next_deliverable(safe_line);
      expect_same_msg(got, want, at("next_deliverable", safe_line));
      if (got == nullptr || want == nullptr) break;
      buffer_.mark_delivered();
      reference_.mark_delivered();
    }
    check(safe_line);
  }

  void discard(SeqNum line) {
    buffer_.discard_up_to(line);
    reference_.discard_up_to(line);
    discard_line_ = std::max(discard_line_,
                             std::min(line, reference_.delivered_up_to()));
    check(line);
  }

  void missing(SeqNum bound, const std::vector<SeqNum>& requested) {
    EXPECT_EQ(buffer_.missing_up_to(bound, requested),
              reference_.missing_up_to(bound, requested))
        << at("missing_up_to", bound);
  }

  /// Every accessor on every seq from 0 past the highest one inserted.
  void check_all() {
    for (SeqNum s = 0; s <= top_ + 2; ++s) probe(s);
  }

  [[nodiscard]] SeqNum aru() const { return reference_.local_aru(); }
  [[nodiscard]] SeqNum delivered() const { return reference_.delivered_up_to(); }
  [[nodiscard]] SeqNum discard_line() const { return discard_line_; }
  [[nodiscard]] SeqNum top() const { return top_; }
  [[nodiscard]] size_t capacity() const { return buffer_.capacity(); }
  util::Rng& rng() { return rng_; }

 private:
  std::string at(const char* op, SeqNum arg) const {
    return "seed " + std::to_string(seed_) + " op " + std::to_string(ops_) +
           " " + op + "(" + std::to_string(arg) + ")";
  }

  void probe(SeqNum s) {
    EXPECT_EQ(buffer_.has(s), reference_.has(s)) << at("has", s);
    expect_same_msg(buffer_.find(s), reference_.find(s), at("find", s));
  }

  void check(SeqNum arg) {
    ++ops_;
    const std::string where = at("after", arg);
    ASSERT_EQ(buffer_.local_aru(), reference_.local_aru()) << where;
    ASSERT_EQ(buffer_.high_seq(), reference_.high_seq()) << where;
    ASSERT_EQ(buffer_.delivered_up_to(), reference_.delivered_up_to()) << where;
    ASSERT_EQ(buffer_.size(), reference_.size()) << where;
    ASSERT_EQ(buffer_.undelivered(), reference_.undelivered()) << where;
    // The seqs around every boundary, the one just touched, and a few at
    // random.
    for (SeqNum s : {arg, discard_line_, discard_line_ + 1, aru(), aru() + 1,
                     delivered() + 1, top_, top_ + 1}) {
      probe(s);
    }
    for (int i = 0; i < 4; ++i) {
      probe(static_cast<SeqNum>(rng_.below(static_cast<uint64_t>(top_) + 3)));
    }
  }

  uint64_t seed_;
  double safe_fraction_;
  util::Rng rng_;
  RecvBuffer buffer_;
  ReferenceRecvBuffer reference_;
  SeqNum discard_line_ = 0;
  SeqNum top_ = 0;  ///< highest seq ever offered
  int ops_ = 0;
};

/// One seed: a sender cursor runs ahead of the receiver, which gets some
/// messages in order, some out of order, some twice and some far ahead
/// (gaps it fills later), while the safe line, deliveries and discards
/// trail behind. `reach` bounds how far ahead of the discard line an insert
/// lands; a large one forces the slot vector to grow.
void run_differential(uint64_t seed, SeqNum reach, int ops) {
  Differential d(seed, /*safe_fraction=*/util::Rng(~seed).uniform());
  util::Rng& rng = d.rng();
  SeqNum safe_line = 0;
  const auto below = [&rng](SeqNum lo, SeqNum hi) {  // uniform in [lo, hi]
    return hi <= lo ? lo : rng.range(lo, hi);
  };
  for (int i = 0; i < ops && !::testing::Test::HasFatalFailure(); ++i) {
    const uint64_t op = rng.below(100);
    if (op < 30) {
      d.insert(d.top() + 1);  // in order
    } else if (op < 42) {
      d.insert(below(d.aru() + 1, d.discard_line() + reach));  // ahead
    } else if (op < 52) {
      d.insert(d.aru() + 1);  // fill the first gap
    } else if (op < 58) {
      d.insert(below(std::max<SeqNum>(d.aru() - 3, 1), d.top()));  // dup
    } else if (op < 62) {
      d.insert(below(std::max<SeqNum>(d.discard_line() - 3, 1),
                     d.aru()));  // at or below the aru / discard line
    } else if (op < 72) {
      safe_line = below(safe_line, d.aru() + 2);
      d.deliver(safe_line, static_cast<int>(rng.below(20)) + 1);
    } else if (op < 78) {
      d.deliver(safe_line, 1000);
    } else if (op < 88) {
      // Lines below, at and above the delivery cursor.
      d.discard(below(d.discard_line() - 2, d.delivered() + 8));
    } else {
      std::vector<SeqNum> requested;
      const SeqNum bound = below(d.aru() - 2, d.top() + 4);
      for (SeqNum s = d.aru() + 1; s <= bound; ++s) {
        if (rng.chance(0.3)) requested.push_back(s);
      }
      d.missing(bound, requested);
    }
  }
  if (!::testing::Test::HasFatalFailure()) d.check_all();
}

TEST(RecvBufferDifferential, MatchesTheReferenceOnRandomOperations) {
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    run_differential(seed, /*reach=*/static_cast<SeqNum>(8 + seed % 120),
                     /*ops=*/3000);
    ASSERT_FALSE(HasFatalFailure()) << "seed " << seed;
  }
}

TEST(RecvBufferDifferential, GrowsToThousandsOfSlotsAndWraps) {
  // Inserts land ever further ahead, up to 5000 seqs past the discard line,
  // so the slots double from kInitialSlots to at least 4096; the in-order
  // traffic behind them wraps the ring many times.
  for (uint64_t seed = 1001; seed <= 1010; ++seed) {
    Differential d(seed, 0.3);
    SeqNum safe_line = 0;
    for (SeqNum s = 1; s <= 20'000 && !HasFatalFailure(); ++s) {
      d.insert(s);
      if (d.rng().chance(0.05)) {
        const auto reach = static_cast<uint64_t>(std::min<SeqNum>(s, 5000));
        d.insert(d.discard_line() + 1 +
                 static_cast<SeqNum>(d.rng().below(reach)));
      }
      if (s % 7 == 0) {
        safe_line = d.aru();
        d.deliver(safe_line, 1000);
        d.discard(safe_line - static_cast<SeqNum>(d.rng().below(50)));
      }
    }
    ASSERT_FALSE(HasFatalFailure()) << "seed " << seed;
    EXPECT_GE(d.capacity(), 4096u);
    d.check_all();
  }
}

}  // namespace
}  // namespace accelring::protocol
