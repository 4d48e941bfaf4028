// A cache hint for a load the caller knows it will make soon.
//
// PrefetchForRead(p) asks the CPU to start loading the cache line that
// holds `p`, so that a read one or more events later finds it in cache
// instead of stalling on memory. It is a hint only: it changes no
// program state, never faults (not even for an address that is not
// mapped) and, where the compiler has no __builtin_prefetch, compiles
// to nothing.
//
// It and every wrapper around it must be always_inline. GCC counts the
// builtin as free of side effects, so a wrapper left out of line can be
// judged const, and every call to it then deleted as dead code (GCC 12
// does so at -O2 for the bounds-checked member hints).

#ifndef STRIP_BASE_PREFETCH_H_
#define STRIP_BASE_PREFETCH_H_

namespace strip::base {

[[gnu::always_inline]] inline void PrefetchForRead(
    [[maybe_unused]] const void* address) {
#ifdef __has_builtin
#if __has_builtin(__builtin_prefetch)
  __builtin_prefetch(address);
#endif
#endif
}

}  // namespace strip::base

#endif  // STRIP_BASE_PREFETCH_H_
