// SparseMemory functional tests.
#include <gtest/gtest.h>

#include <vector>

#include "mem/sparse_memory.hpp"

namespace virec::mem {
namespace {

TEST(SparseMemory, UnwrittenReadsZero) {
  SparseMemory memory;
  EXPECT_EQ(memory.read_u64(0x1234), 0u);
  EXPECT_EQ(memory.read(0xdeadbeef, 1), 0u);
}

TEST(SparseMemory, RoundTripAllWidths) {
  SparseMemory memory;
  memory.write(0x100, 1, 0xab);
  memory.write(0x200, 2, 0xcdef);
  memory.write(0x300, 4, 0x12345678);
  memory.write(0x400, 8, 0x1122334455667788ull);
  EXPECT_EQ(memory.read(0x100, 1), 0xabu);
  EXPECT_EQ(memory.read(0x200, 2), 0xcdefu);
  EXPECT_EQ(memory.read(0x300, 4), 0x12345678u);
  EXPECT_EQ(memory.read(0x400, 8), 0x1122334455667788ull);
}

TEST(SparseMemory, LittleEndianLayout) {
  SparseMemory memory;
  memory.write_u64(0x500, 0x0807060504030201ull);
  for (u32 i = 0; i < 8; ++i) {
    EXPECT_EQ(memory.read(0x500 + i, 1), i + 1);
  }
}

TEST(SparseMemory, CrossPageAccess) {
  SparseMemory memory;
  const Addr addr = SparseMemory::kPageSize - 4;
  memory.write_u64(addr, 0xa1b2c3d4e5f60718ull);
  EXPECT_EQ(memory.read_u64(addr), 0xa1b2c3d4e5f60718ull);
  EXPECT_EQ(memory.page_count(), 2u);
}

TEST(SparseMemory, PartialOverwrite) {
  SparseMemory memory;
  memory.write_u64(0x600, ~u64{0});
  memory.write(0x602, 2, 0);
  EXPECT_EQ(memory.read_u64(0x600), 0xffffffff0000ffffull);
}

TEST(SparseMemory, F64RoundTrip) {
  SparseMemory memory;
  memory.write_f64(0x700, 3.14159);
  EXPECT_DOUBLE_EQ(memory.read_f64(0x700), 3.14159);
  memory.write_f64(0x708, -0.0);
  EXPECT_EQ(memory.read_u64(0x708), 0x8000000000000000ull);
}

TEST(SparseMemory, BlockRoundTrip) {
  SparseMemory memory;
  std::vector<u8> data(10000);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<u8>(i * 7);
  }
  memory.write_block(0x12345, data.data(), data.size());
  std::vector<u8> out(data.size());
  memory.read_block(0x12345, out.data(), out.size());
  EXPECT_EQ(data, out);
}

TEST(SparseMemory, BlockReadOfUnwrittenIsZero) {
  SparseMemory memory;
  std::vector<u8> out(64, 0xff);
  memory.read_block(0x9999, out.data(), out.size());
  for (u8 b : out) EXPECT_EQ(b, 0);
}

TEST(SparseMemory, SparseAddressesDoNotCollide) {
  SparseMemory memory;
  memory.write_u64(0x0, 1);
  memory.write_u64(0xffff'ffff'0000ull, 2);
  EXPECT_EQ(memory.read_u64(0x0), 1u);
  EXPECT_EQ(memory.read_u64(0xffff'ffff'0000ull), 2u);
}

TEST(SparseMemory, ClearDropsEverything) {
  SparseMemory memory;
  memory.write_u64(0x10, 5);
  memory.clear();
  EXPECT_EQ(memory.read_u64(0x10), 0u);
  EXPECT_EQ(memory.page_count(), 0u);
}

TEST(SparseMemory, PageCountGrowsPerPage) {
  SparseMemory memory;
  memory.write_u64(0, 1);
  memory.write_u64(8, 2);
  EXPECT_EQ(memory.page_count(), 1u);
  memory.write_u64(SparseMemory::kPageSize, 3);
  EXPECT_EQ(memory.page_count(), 2u);
}

TEST(SparseMemory, CopiesDoNotAliasThePageCache) {
  SparseMemory original;
  original.write_u64(0x40, 1);
  EXPECT_EQ(original.read_u64(0x40), 1u);  // primes the one-entry cache
  SparseMemory copy(original);
  copy.write_u64(0x40, 2);
  SparseMemory assigned;
  assigned.write_u64(0x40, 9);  // primes the target's cache first
  assigned = original;
  assigned.write_u64(0x40, 3);
  EXPECT_EQ(original.read_u64(0x40), 1u);
  EXPECT_EQ(copy.read_u64(0x40), 2u);
  EXPECT_EQ(assigned.read_u64(0x40), 3u);
}

TEST(SparseMemory, SaveStateIsSortedByPage) {
  // Same contents, opposite insertion order: identical snapshot bytes,
  // with page numbers ascending.
  SparseMemory up, down;
  const std::vector<u64> pages = {7, 1, 300, 42, 5};
  for (const u64 no : pages) up.write_u64(no * SparseMemory::kPageSize, no);
  for (auto it = pages.rbegin(); it != pages.rend(); ++it) {
    down.write_u64(*it * SparseMemory::kPageSize, *it);
  }
  ckpt::Encoder a, b;
  up.save_state(a);
  down.save_state(b);
  EXPECT_EQ(a.bytes(), b.bytes());
  ckpt::Decoder dec(a.bytes().data(), a.size());
  ASSERT_EQ(dec.get_u64(), pages.size());
  u64 prev = 0;
  for (std::size_t i = 0; i < pages.size(); ++i) {
    const u64 no = dec.get_u64();
    EXPECT_GT(no, prev);
    prev = no;
    std::vector<u8> page(SparseMemory::kPageSize);
    dec.raw(page.data(), page.size());
    EXPECT_EQ(page[0], static_cast<u8>(no));
  }
  SparseMemory restored;
  ckpt::Decoder again(a.bytes().data(), a.size());
  restored.restore_state(again);
  for (const u64 no : pages) {
    EXPECT_EQ(restored.read_u64(no * SparseMemory::kPageSize), no);
  }
}

}  // namespace
}  // namespace virec::mem
