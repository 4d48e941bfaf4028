// HugePageAllocator: which path a block takes, and that vectors built on
// it behave as with std::allocator. Whether the kernel backs a block
// with huge pages depends on the host's THP mode, so no test reads it.

#include "base/huge_pages.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace {

// Aligned allocations made so far, and the alignment of the last one.
std::size_t aligned_news = 0;
std::size_t last_alignment = 0;

}  // namespace

[[gnu::noinline]] void* operator new(std::size_t size, std::align_val_t al) {
  ++aligned_news;
  last_alignment = static_cast<std::size_t>(al);
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(al), size == 0 ? 1 : size) !=
      0) {
    throw std::bad_alloc();
  }
  return p;
}

[[gnu::noinline]] void operator delete(void* p, std::align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::size_t,
                                       std::align_val_t) noexcept {
  std::free(p);
}

namespace strip::base {
namespace {

constexpr std::size_t kWords = kHugePageBytes / sizeof(std::uint64_t);

bool HugePageAligned(const void* p) {
  return reinterpret_cast<std::uintptr_t>(p) % kHugePageBytes == 0;
}

TEST(HugePageAllocatorTest, BlockOfTwoMibOrMoreIsHugePageAligned) {
  HugePageAllocator<std::uint64_t> allocator;
  for (const std::size_t n : {kWords, kWords + 1, 3 * kWords + 7}) {
    const std::size_t before = aligned_news;
    std::uint64_t* p = allocator.allocate(n);
    EXPECT_EQ(aligned_news, before + 1) << n;
    EXPECT_EQ(last_alignment, kHugePageBytes) << n;
    EXPECT_TRUE(HugePageAligned(p)) << n;
    p[0] = 1;
    p[n - 1] = 2;
    allocator.deallocate(p, n);
  }
}

TEST(HugePageAllocatorTest, SmallerBlockTakesThePlainPath) {
  HugePageAllocator<std::uint64_t> allocator;
  for (const std::size_t n : std::vector<std::size_t>{1, 1000, kWords - 1}) {
    const std::size_t before = aligned_news;
    std::uint64_t* p = allocator.allocate(n);
    EXPECT_EQ(aligned_news, before) << n;
    p[n - 1] = 3;
    allocator.deallocate(p, n);
  }
}

TEST(HugePageAllocatorTest, ResizeZeroFills) {
  {
    // Leave garbage behind where the next block may land.
    HugePageVector<std::uint64_t> dirty(2 * kWords, ~std::uint64_t{0});
  }
  HugePageVector<std::uint64_t> words;
  words.resize(2 * kWords);
  EXPECT_TRUE(HugePageAligned(words.data()));
  for (const std::uint64_t w : words) ASSERT_EQ(w, 0u);
  words.resize(3 * kWords);
  for (const std::uint64_t w : words) ASSERT_EQ(w, 0u);
}

TEST(HugePageAllocatorTest, GrowthMoveAndCopyKeepContents) {
  HugePageVector<std::uint64_t> words;
  // Grows across the threshold: plain blocks first, then huge ones.
  for (std::uint64_t i = 0; i < 2 * kWords; ++i) words.push_back(i * 7);
  EXPECT_TRUE(HugePageAligned(words.data()));
  std::vector<std::uint64_t> expected(words.size());
  for (std::size_t i = 0; i < expected.size(); ++i) expected[i] = i * 7;
  ASSERT_TRUE(std::equal(words.begin(), words.end(), expected.begin(),
                         expected.end()));

  const std::uint64_t* block = words.data();
  HugePageVector<std::uint64_t> moved = std::move(words);
  EXPECT_EQ(moved.data(), block);
  ASSERT_TRUE(std::equal(moved.begin(), moved.end(), expected.begin(),
                         expected.end()));

  const HugePageVector<std::uint64_t> copy = moved;
  EXPECT_NE(copy.data(), moved.data());
  EXPECT_TRUE(HugePageAligned(copy.data()));
  EXPECT_EQ(copy, moved);

  HugePageVector<std::uint64_t> assigned;
  assigned = copy;
  EXPECT_EQ(assigned, moved);
  assigned = std::move(moved);
  EXPECT_EQ(assigned, copy);
}

TEST(HugePageAllocatorTest, VectorOfBoolPacksBitsOnHugePages) {
  // More than 2 MiB of bits, so the word block takes the huge path.
  const std::size_t n = 8 * kHugePageBytes + 5;
  const std::size_t before = aligned_news;
  std::vector<bool, HugePageAllocator<bool>> bits(n, false);
  EXPECT_EQ(aligned_news, before + 1);
  for (std::size_t i = 0; i < n; i += 3) bits[i] = true;
  bits.push_back(true);
  std::size_t set = 0;
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(bits[i], i % 3 == 0) << i;
    if (bits[i]) ++set;
  }
  EXPECT_EQ(set, (n + 2) / 3);
  EXPECT_TRUE(bits.back());
  const std::vector<bool, HugePageAllocator<bool>> copy = bits;
  EXPECT_EQ(copy, bits);
}

}  // namespace
}  // namespace strip::base
