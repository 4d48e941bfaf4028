// A standard allocator that backs large blocks with huge pages.
//
// A block of at least kHugePageBytes (2 MiB) is allocated 2 MiB-aligned
// and its whole huge pages are advised for transparent huge pages, so
// one TLB entry covers 512 times the memory of a 4 KiB page and the
// first touch faults in 2 MiB at once. The tail past the last whole
// huge page keeps 4 KiB pages, so the resident size never grows past
// the bytes in use. A smaller block goes to std::allocator unchanged.
//
// The advice is a hint only: where the kernel ignores it (THP mode
// "never") or the platform has no MADV_HUGEPAGE, the block is an
// ordinary aligned allocation. Contents and behaviour never depend on
// whether it was taken. Blocks come from the aligned global operator
// new, so sanitizers and allocation counters still see them.

#ifndef STRIP_BASE_HUGE_PAGES_H_
#define STRIP_BASE_HUGE_PAGES_H_

#include <cstddef>
#include <memory>
#include <new>
#include <vector>

#if __has_include(<sys/mman.h>)
#include <sys/mman.h>
#endif

namespace strip::base {

inline constexpr std::size_t kHugePageBytes = std::size_t{2} << 20;

template <typename T>
class HugePageAllocator {
 public:
  using value_type = T;

  HugePageAllocator() = default;
  template <typename U>
  HugePageAllocator(const HugePageAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    if (n > std::size_t(-1) / sizeof(T)) throw std::bad_array_new_length();
    const std::size_t bytes = n * sizeof(T);
    if (bytes < kHugePageBytes) return std::allocator<T>().allocate(n);
    void* block = ::operator new(bytes, std::align_val_t{kHugePageBytes});
#ifdef MADV_HUGEPAGE
    ::madvise(block, bytes & ~(kHugePageBytes - 1), MADV_HUGEPAGE);
#endif
    return static_cast<T*>(block);
  }

  void deallocate(T* p, std::size_t n) noexcept {
    const std::size_t bytes = n * sizeof(T);
    if (bytes < kHugePageBytes) {
      std::allocator<T>().deallocate(p, n);
      return;
    }
    ::operator delete(p, bytes, std::align_val_t{kHugePageBytes});
  }

  friend bool operator==(const HugePageAllocator&,
                         const HugePageAllocator&) noexcept {
    return true;
  }
};

// The vector every array indexed by view object uses.
template <typename T>
using HugePageVector = std::vector<T, HugePageAllocator<T>>;

}  // namespace strip::base

#endif  // STRIP_BASE_HUGE_PAGES_H_
