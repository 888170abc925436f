//===- perfbench/Alloc.cpp - Counting operator new/delete -----------------===//
//
// Part of the PACO project, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// Replaces the global allocation functions of the benchmark binary so the
// traced mode can count heap allocations and live bytes per layer without
// touching the program. Counting is off (one relaxed load per call) until
// the traced mode turns it on. Live bytes use malloc_usable_size on both
// sides, so a block freed while counting is on subtracts what it added.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <atomic>
#include <cstdlib>
#include <malloc.h>
#include <new>

namespace {

std::atomic<bool> Counting{false};
std::atomic<uint64_t> Allocs{0};
std::atomic<int64_t> Live{0};
std::atomic<int64_t> Peak{0};

void noteAlloc(void *P) {
  if (!P || !Counting.load(std::memory_order_relaxed))
    return;
  Allocs.fetch_add(1, std::memory_order_relaxed);
  int64_t Size = static_cast<int64_t>(malloc_usable_size(P));
  int64_t L = Live.fetch_add(Size, std::memory_order_relaxed) + Size;
  int64_t Pk = Peak.load(std::memory_order_relaxed);
  while (L > Pk &&
         !Peak.compare_exchange_weak(Pk, L, std::memory_order_relaxed)) {
  }
}

void release(void *P) noexcept {
  if (P && Counting.load(std::memory_order_relaxed))
    Live.fetch_sub(static_cast<int64_t>(malloc_usable_size(P)),
                   std::memory_order_relaxed);
  std::free(P);
}

void *allocate(std::size_t N) {
  void *P = std::malloc(N ? N : 1);
  if (!P)
    throw std::bad_alloc();
  noteAlloc(P);
  return P;
}

void *allocateAligned(std::size_t N, std::align_val_t Align) {
  std::size_t A = static_cast<std::size_t>(Align);
  void *P = nullptr;
  if (posix_memalign(&P, A < sizeof(void *) ? sizeof(void *) : A,
                     N ? N : 1) != 0)
    throw std::bad_alloc();
  noteAlloc(P);
  return P;
}

} // namespace

void *operator new(std::size_t N) { return allocate(N); }
void *operator new[](std::size_t N) { return allocate(N); }
void *operator new(std::size_t N, std::align_val_t A) {
  return allocateAligned(N, A);
}
void *operator new[](std::size_t N, std::align_val_t A) {
  return allocateAligned(N, A);
}
void *operator new(std::size_t N, const std::nothrow_t &) noexcept {
  void *P = std::malloc(N ? N : 1);
  noteAlloc(P);
  return P;
}
void *operator new[](std::size_t N, const std::nothrow_t &) noexcept {
  void *P = std::malloc(N ? N : 1);
  noteAlloc(P);
  return P;
}

void operator delete(void *P) noexcept { release(P); }
void operator delete[](void *P) noexcept { release(P); }
void operator delete(void *P, std::size_t) noexcept { release(P); }
void operator delete[](void *P, std::size_t) noexcept { release(P); }
void operator delete(void *P, std::align_val_t) noexcept { release(P); }
void operator delete[](void *P, std::align_val_t) noexcept { release(P); }
void operator delete(void *P, std::size_t, std::align_val_t) noexcept {
  release(P);
}
void operator delete[](void *P, std::size_t, std::align_val_t) noexcept {
  release(P);
}
void operator delete(void *P, const std::nothrow_t &) noexcept { release(P); }
void operator delete[](void *P, const std::nothrow_t &) noexcept {
  release(P);
}

namespace perfbench {

void setAllocCounting(bool On) {
  Counting.store(On, std::memory_order_relaxed);
}

AllocCounts allocCounts() {
  return {Allocs.load(std::memory_order_relaxed),
          Live.load(std::memory_order_relaxed)};
}

void resetAllocPeak() {
  Peak.store(Live.load(std::memory_order_relaxed), std::memory_order_relaxed);
}

int64_t allocPeakBytes() { return Peak.load(std::memory_order_relaxed); }

} // namespace perfbench
