// A minimal over-aligned allocator for std::vector backing stores.
//
// PatternBatch keeps its word array in a vector with 64-byte-aligned
// storage (logic/lane_kernels.h, kLaneAlignment) so the SIMD lane
// kernels start from a cache-line boundary. Note this aligns only the
// BASE pointer: interior lane pointers at `base + signal * words` are
// aligned only when the stride cooperates, which is why the kernels
// are loadu/storeu-only — the allocator is a throughput nicety, the
// unaligned-access contract is the correctness rule. `resize` leaves
// new elements uninitialized (see construct below): the serve layer
// sizes a payload's lanes and lets read() write them once.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace ambit {

/// std::allocator drop-in that over-aligns every allocation to `Align`
/// bytes (must be a power of two and >= alignof(T)).
template <typename T, std::size_t Align>
struct AlignedAllocator {
  using value_type = T;

  static_assert((Align & (Align - 1)) == 0, "alignment must be a power of 2");
  static_assert(Align >= alignof(T), "alignment below the type's natural one");

  AlignedAllocator() = default;
  template <typename U>
  constexpr AlignedAllocator(const AlignedAllocator<U, Align>&) noexcept {}

  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Align>;
  };

  /// Over-allocates through the plain operator new and aligns by hand,
  /// keeping the raw pointer in the word just below the aligned block.
  /// glibc serves the aligned operator new through memalign, whose padded
  /// requests never fit a freed block of the same size: every multi-MB
  /// lane buffer was a fresh mmap and paid one page fault per 4 KiB on
  /// first touch. Same-size plain requests are recycled from the heap.
  T* allocate(std::size_t n) {
    if (n > (static_cast<std::size_t>(-1) - Align) / sizeof(T)) {
      throw std::bad_array_new_length();
    }
    // operator new returns at least pointer-aligned storage, so rounding
    // raw up to the next Align boundary strictly above it leaves a gap of
    // at least one pointer.
    static_assert(Align >= sizeof(void*), "no room for the raw pointer");
    void* raw = ::operator new(n * sizeof(T) + Align);
    const std::uintptr_t aligned =
        (reinterpret_cast<std::uintptr_t>(raw) + Align) & ~(Align - 1);
    std::memcpy(reinterpret_cast<void*>(aligned - sizeof(void*)), &raw,
                sizeof(void*));
    return reinterpret_cast<T*>(aligned);
  }

  void deallocate(T* p, std::size_t) noexcept {
    void* raw = nullptr;
    std::memcpy(&raw, reinterpret_cast<const char*>(p) - sizeof(void*),
                sizeof(void*));
    ::operator delete(raw);
  }

  /// Default-initializes where std::allocator value-initializes, so
  /// `resize(n)` leaves new trivial elements unwritten: a buffer can be
  /// sized first and then filled once, by read() say, without a zero
  /// pass that would touch (and page in) all of it. Construction with a
  /// value — `assign(n, 0)` — still writes that value.
  template <typename U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }

  friend bool operator==(const AlignedAllocator&, const AlignedAllocator&) {
    return true;
  }
};

}  // namespace ambit
