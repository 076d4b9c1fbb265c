// Unit tests for the sequence-ordered receive buffer.
#include "protocol/recv_buffer.hpp"

#include <gtest/gtest.h>

#include <utility>

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

}  // namespace
}  // namespace accelring::protocol
