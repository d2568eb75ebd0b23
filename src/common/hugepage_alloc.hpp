// Hugepage-backed allocator for large flat slabs.
//
// The bandwidth calendar's B+ tree slabs grow to tens of megabytes at
// high reservation counts. Backed by 4 KiB pages that working set
// overwhelms the DTLB, and every cache miss pays a page walk on top.
// Slabs of at least one huge page (kHugePageBytes, 2 MiB) are mmap'd and
// tagged MADV_HUGEPAGE, so on kernels with transparent hugepages in
// `madvise` (or `always`) mode they are assembled from 2 MiB pages and
// the whole structure needs a handful of TLB entries.
//
// A smaller slab cannot hold a huge page, and mapping it costs more than
// it saves: every growth maps, advises and unmaps (three system calls),
// each page it touches faults, and a 520-byte leaf takes a whole 4 KiB
// page. A federation world keeps one calendar tree per link, most of
// them a leaf or two, so slabs below a huge page come from operator
// new. deallocate(p, n) decides by the same n that allocate(n) did,
// which std::vector guarantees, so each buffer goes back the way it
// came. On other platforms every slab comes from operator new.
#pragma once

#include <cstddef>
#include <new>

#if defined(__linux__)
#include <sys/mman.h>
#endif

namespace gridvc {

/// The transparent huge page on x86-64 (and on AArch64 with 4 KiB base
/// pages). A named constant, not a setting: it is a property of the
/// hardware the slabs are laid out for.
inline constexpr std::size_t kHugePageBytes = std::size_t{2} << 20;

template <class T>
struct HugePageAllocator {
  using value_type = T;

  HugePageAllocator() = default;
  template <class U>
  HugePageAllocator(const HugePageAllocator<U>&) noexcept {}

  /// Whether a slab of n elements is mapped (true) or comes from
  /// operator new (false).
  static constexpr bool maps(std::size_t n) {
#if defined(__linux__)
    return n >= (kHugePageBytes + sizeof(T) - 1) / sizeof(T);
#else
    (void)n;
    return false;
#endif
  }

  T* allocate(std::size_t n) {
    const std::size_t bytes = n * sizeof(T);
#if defined(__linux__)
    if (maps(n)) {
      void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
      if (p == MAP_FAILED) throw std::bad_alloc();
#if defined(MADV_HUGEPAGE)
      // Advisory: harmless when THP is disabled.
      (void)::madvise(p, bytes, MADV_HUGEPAGE);
#endif
      return static_cast<T*>(p);
    }
#endif
    return static_cast<T*>(::operator new(bytes));
  }

  void deallocate(T* p, std::size_t n) noexcept {
#if defined(__linux__)
    if (maps(n)) {
      ::munmap(p, n * sizeof(T));
      return;
    }
#endif
    ::operator delete(p);
  }

  template <class U>
  bool operator==(const HugePageAllocator<U>&) const noexcept {
    return true;
  }
};

}  // namespace gridvc
