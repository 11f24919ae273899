// Rollback queue tests: FIFO discipline (also across the ring
// buffer's wrap-around), C-bit compaction on flush, the oldest-is-memory
// CSL mask input and the oldest-first checkpoint encoding.
#include <gtest/gtest.h>

#include "core/rollback_queue.hpp"

namespace virec::core {
namespace {

RollbackQueue::Entry entry_for(u16 phys, u8 tid, isa::RegId arch,
                               bool is_mem = false) {
  RollbackQueue::Entry e;
  e.count = 1;
  e.phys[0] = phys;
  e.tid[0] = tid;
  e.arch[0] = arch;
  e.is_mem = is_mem;
  return e;
}

TEST(RollbackQueue, PushPopFifo) {
  RollbackQueue queue(4);
  queue.push(entry_for(0, 0, 1, true));
  queue.push(entry_for(1, 0, 2, false));
  EXPECT_EQ(queue.size(), 2u);
  EXPECT_TRUE(queue.oldest_is_mem());
  queue.pop_oldest();
  EXPECT_FALSE(queue.oldest_is_mem());
  queue.pop_oldest();
  EXPECT_TRUE(queue.empty());
}

TEST(RollbackQueue, OverflowThrows) {
  RollbackQueue queue(2);
  queue.push(entry_for(0, 0, 0));
  queue.push(entry_for(1, 0, 1));
  EXPECT_THROW(queue.push(entry_for(2, 0, 2)), std::logic_error);
}

TEST(RollbackQueue, UnderflowThrows) {
  RollbackQueue queue(2);
  EXPECT_THROW(queue.pop_oldest(), std::logic_error);
}

TEST(RollbackQueue, FlushResetsCBitsOfQueuedRegisters) {
  TagStore tags(4, 2, PolicyKind::kLRC);
  std::vector<u8> locked(4, 0);
  const int a = tags.allocate(0, 5, locked, nullptr);
  const int b = tags.allocate(0, 6, locked, nullptr);
  const int c = tags.allocate(0, 7, locked, nullptr);
  RollbackQueue queue(4);
  queue.push(entry_for(static_cast<u16>(a), 0, 5));
  queue.push(entry_for(static_cast<u16>(b), 0, 6));
  // Entry c committed already (not in queue).
  queue.flush_to(tags);
  EXPECT_FALSE(tags.entry(static_cast<u32>(a)).c_bit);
  EXPECT_FALSE(tags.entry(static_cast<u32>(b)).c_bit);
  EXPECT_TRUE(tags.entry(static_cast<u32>(c)).c_bit);
  EXPECT_TRUE(queue.empty());
}

TEST(RollbackQueue, FlushIgnoresRemappedEntries) {
  TagStore tags(1, 2, PolicyKind::kLRU);
  std::vector<u8> locked(1, 0);
  const int idx = tags.allocate(0, 5, locked, nullptr);
  RollbackQueue queue(4);
  queue.push(entry_for(static_cast<u16>(idx), 0, 5));
  // The entry is remapped to another register before the flush.
  tags.allocate(1, 3, locked, nullptr);
  queue.flush_to(tags);
  EXPECT_TRUE(tags.entry(0).c_bit);  // new mapping untouched
}

TEST(RollbackQueue, ClearDiscardsWithoutTouchingCBits) {
  TagStore tags(2, 1, PolicyKind::kLRC);
  std::vector<u8> locked(2, 0);
  const int idx = tags.allocate(0, 1, locked, nullptr);
  RollbackQueue queue(4);
  queue.push(entry_for(static_cast<u16>(idx), 0, 1));
  queue.clear();
  EXPECT_TRUE(queue.empty());
  EXPECT_TRUE(tags.entry(static_cast<u32>(idx)).c_bit);
}

TEST(RollbackQueue, MultiRegisterEntries) {
  TagStore tags(4, 1, PolicyKind::kLRC);
  std::vector<u8> locked(4, 0);
  const int a = tags.allocate(0, 1, locked, nullptr);
  const int b = tags.allocate(0, 2, locked, nullptr);
  RollbackQueue::Entry e;
  e.count = 2;
  e.phys = {static_cast<u16>(a), static_cast<u16>(b)};
  e.tid = {0, 0};
  e.arch = {1, 2};
  RollbackQueue queue(4);
  queue.push(e);
  queue.flush_to(tags);
  EXPECT_FALSE(tags.entry(static_cast<u32>(a)).c_bit);
  EXPECT_FALSE(tags.entry(static_cast<u32>(b)).c_bit);
}

TEST(RollbackQueue, DepthAccessor) {
  RollbackQueue queue(8);
  EXPECT_EQ(queue.depth(), 8u);
}

TEST(RollbackQueue, FifoOrderSurvivesWrapAround) {
  // Depth 3 with one slot kept occupied: every push after the first
  // three lands past the end of the ring and wraps.
  RollbackQueue queue(3);
  queue.push(entry_for(0, 0, 0, /*is_mem=*/true));
  for (u16 i = 1; i < 20; ++i) {
    queue.push(entry_for(i, 0, 1, /*is_mem=*/i % 2 == 0));
    EXPECT_EQ(queue.size(), 2u);
    EXPECT_EQ(queue.oldest_is_mem(), (i - 1) % 2 == 0) << i;
    queue.pop_oldest();
    EXPECT_EQ(queue.oldest_is_mem(), i % 2 == 0) << i;
  }
  queue.push(entry_for(20, 0, 1));
  queue.push(entry_for(21, 0, 1));
  EXPECT_THROW(queue.push(entry_for(22, 0, 1)), std::logic_error);
}

TEST(RollbackQueue, FlushAfterWrapResetsExactlyTheQueuedEntries) {
  TagStore tags(4, 1, PolicyKind::kLRC);
  std::vector<u8> locked(4, 0);
  const int a = tags.allocate(0, 1, locked, nullptr);
  const int b = tags.allocate(0, 2, locked, nullptr);
  const int c = tags.allocate(0, 3, locked, nullptr);
  RollbackQueue queue(2);
  queue.push(entry_for(static_cast<u16>(a), 0, 1));
  queue.push(entry_for(static_cast<u16>(b), 0, 2));
  queue.pop_oldest();  // a committed
  queue.push(entry_for(static_cast<u16>(c), 0, 3));  // wraps to slot 0
  queue.flush_to(tags);
  EXPECT_TRUE(tags.entry(static_cast<u32>(a)).c_bit);
  EXPECT_FALSE(tags.entry(static_cast<u32>(b)).c_bit);
  EXPECT_FALSE(tags.entry(static_cast<u32>(c)).c_bit);
  EXPECT_TRUE(queue.empty());
}

TEST(RollbackQueue, SaveStateIsOldestFirstWhateverTheRingPosition) {
  // Same in-flight entries, one queue wrapped and one not: identical
  // snapshot bytes, and a restore replays them in the same order.
  RollbackQueue wrapped(3);
  wrapped.push(entry_for(9, 0, 9));
  wrapped.push(entry_for(9, 0, 9));
  wrapped.pop_oldest();
  wrapped.pop_oldest();
  RollbackQueue fresh(3);
  for (u16 i = 0; i < 3; ++i) {
    wrapped.push(entry_for(i, 1, static_cast<isa::RegId>(i + 4), i == 1));
    fresh.push(entry_for(i, 1, static_cast<isa::RegId>(i + 4), i == 1));
  }
  ckpt::Encoder a, b;
  wrapped.save_state(a);
  fresh.save_state(b);
  EXPECT_EQ(a.bytes(), b.bytes());

  RollbackQueue restored(3);
  ckpt::Decoder dec(a.bytes().data(), a.size());
  restored.restore_state(dec);
  ckpt::Encoder c;
  restored.save_state(c);
  EXPECT_EQ(c.bytes(), a.bytes());
  EXPECT_FALSE(restored.oldest_is_mem());
  restored.pop_oldest();
  EXPECT_TRUE(restored.oldest_is_mem());
}

TEST(RollbackQueue, RestoreRejectsOversizedEntries) {
  RollbackQueue queue(2);
  RollbackQueue::Entry e = entry_for(0, 0, 0);
  queue.push(e);
  ckpt::Encoder enc;
  queue.save_state(enc);
  // Patch the entry's register count (after the u32 entry count) past
  // the four slots an entry holds.
  std::vector<u8> bytes = enc.bytes();
  bytes[4] = 5;
  ckpt::Decoder dec(bytes.data(), bytes.size());
  RollbackQueue target(2);
  EXPECT_THROW(target.restore_state(dec), ckpt::CkptError);
}

}  // namespace
}  // namespace virec::core
